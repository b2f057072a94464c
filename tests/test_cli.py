"""End-to-end CLI checks: frozen outputs, exit codes, determinism."""

import contextlib
import io
import time

from berkline.cli import run

# Each fixture is (argv, exact stdout). Outputs are frozen byte for byte;
# any drift in JSON key order, rational formatting, or DOT layout is a bug.
FIXTURES = [
    (
        ["classify", "--field", "padic:5", "disc(0; 1/2)"],
        '{"E": 0, "F": 1, "components": "p1-of-residue-field", "status": "ok", "type": 2}\n',
    ),
    (
        ["eval", "--field", "padic:5", "--poly", "T^2 + 5*T + 125", "disc(0; 1/2)"],
        '{"exact": true, "status": "ok", "value": {"approx": 0.2, "exponent": "1", "zero": false}}\n',
    ),
    (
        ["path", "--field", "padic:5", "pt1(0)", "pt1(1)"],
        '{"length": "inf", "segments": ['
        '{"center": "0", "from": "inf", "length": "inf", "to": "0"}, '
        '{"center": "1", "from": "0", "length": "inf", "to": "inf"}], "status": "ok"}\n',
    ),
    (
        ["hull", "--field", "padic:5", "--dot", "pt1(0)", "pt1(1)", "pt1(5)"],
        "graph hull {\n"
        '  n0 [label="disc(0; 0) t2 g0"];\n'
        '  n1 [label="disc(0; 1) t2 g0"];\n'
        '  n2 [label="pt1(0) t1 g0 *"];\n'
        '  n3 [label="pt1(1) t1 g0 *"];\n'
        '  n4 [label="pt1(5) t1 g0 *"];\n'
        '  n1 -- n0 [len="1"];\n'
        '  n2 -- n1 [len="inf"];\n'
        '  n3 -- n0 [len="inf"];\n'
        '  n4 -- n1 [len="inf"];\n'
        "}\n",
    ),
    (
        ["member", "--field", "padic:5", "--standard", "annulus(0; 1, 0)", "pt1(5)"],
        '{"class": "laurent", "exact": true, "member": true, "status": "ok"}\n',
    ),
    (
        ["shilov", "--field", "padic:5", "--standard", "annulus(0; 1, 0)"],
        '{"points": ["disc(0; 0)", "disc(0; 1)"], "status": "ok"}\n',
    ),
    (
        ["reduce", "--field", "padic:5", "disc(7; 1/3)"],
        '{"generic": false, "residue": "2", "status": "ok"}\n',
    ),
    (
        ["mspecz", "--point", "p:5,r:1/2", "--values", "50,3,1"],
        '{"point": "p:5,r:1/2", "status": "ok", "values": ['
        '{"approx": 0.2, "base": 5, "exp": -1, "m": 50}, '
        '{"approx": 1.0, "base": 5, "exp": 0, "m": 3}, '
        '{"approx": 1.0, "base": 5, "exp": 0, "m": 1}]}\n',
    ),
    (
        ["nadic", "--n", "6", "--x", "12"],
        '{"norm": {"approx": 0.16666666666666666, "base": 6, "exp": -1}, '
        '"spectral": {"approx": 0.16666666666666666, "base": 6, "exp": -1}, '
        '"status": "ok"}\n',
    ),
    (
        ["elliptic", "--field", "puiseux:Q", "--lambda", "t^(-1)"],
        '{"cycle_exponent": "2", "status": "ok", "type": "multiplicative", "via": "lambda"}\n',
    ),
    (
        ["hyper", "--field", "puiseux:Q", "--roots", "0,t,1,1+t,2"],
        '{"betti": 2, "edges": ['
        '{"len": "1", "u": 1, "v": 0}, '
        '{"len": "1", "u": 2, "v": 0}, '
        '{"len": "inf", "u": 3, "v": 1}, '
        '{"len": "inf", "u": 4, "v": 2}, '
        '{"len": "inf", "u": 5, "v": 2}, '
        '{"len": "inf", "u": 6, "v": 0}, '
        '{"len": "inf", "u": 7, "v": 1}, '
        '{"len": "inf", "u": 0, "v": 8}], '
        '"fibers": [1, 1, 1, 1, 1, 1, 1, 1, 1], '
        '"splits": [true, true, false, false, false, false, false, false], '
        '"status": "ok", "total_genus": 2, '
        '"vertex_genera": [0, 0, 0, 0, 0, 0, 0, 0, 0], '
        '"vertices": ['
        '{"genus": 0, "id": 0, "marked": false, "point": "disc(0; 0)", "type": 2}, '
        '{"genus": 0, "id": 1, "marked": false, "point": "disc(0; 1)", "type": 2}, '
        '{"genus": 0, "id": 2, "marked": false, "point": "disc(1; 1)", "type": 2}, '
        '{"genus": 0, "id": 3, "marked": true, "point": "pt1(0)", "type": 1}, '
        '{"genus": 0, "id": 4, "marked": true, "point": "pt1(1)", "type": 1}, '
        '{"genus": 0, "id": 5, "marked": true, "point": "pt1(1+t)", "type": 1}, '
        '{"genus": 0, "id": 6, "marked": true, "point": "pt1(2)", "type": 1}, '
        '{"genus": 0, "id": 7, "marked": true, "point": "pt1(t)", "type": 1}, '
        '{"genus": 0, "id": 8, "marked": false, "point": "inf", "type": 1}]}\n',
    ),
    (
        [
            "retract",
            "--field",
            "padic:5",
            "--hull-point",
            "pt1(0)",
            "--hull-point",
            "disc(0; 0)",
            "pt1(5)",
        ],
        '{"point": "disc(5; 1)", "status": "ok"}\n',
    ),
]


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_fixture_outputs_are_frozen():
    for argv, expected in FIXTURES:
        code, out, err = invoke(argv)
        assert code == 0, (argv, err)
        assert out == expected, argv
        assert err == ""


def test_fixture_outputs_are_deterministic():
    for argv, _ in FIXTURES:
        first = invoke(argv)
        second = invoke(argv)
        assert first == second


def test_unknown_subcommand_exits_2():
    code, out, err = invoke(["bogus"])
    assert code == 2
    assert out == ""
    assert "invalid choice" in err
    code, _, err = invoke([])
    assert code == 2
    assert err.startswith("usage:")


def test_parse_failures_exit_3():
    code, out, err = invoke(["classify", "--field", "padic:5", "disc(0 1/2)"])
    assert code == 3
    assert out == ""
    assert err == (
        "parse error [point]: cannot parse 'point' from 'disc(0 1/2)': "
        "disc needs a center and an exponent\n"
    )
    code, _, err = invoke(["classify", "--field", "padic:4", "disc(0; 1)"])
    assert code == 3
    assert err == (
        "parse error [field selector]: cannot parse 'field selector' from "
        "'padic:4': 4 is not prime\n"
    )


def test_zero_exponent_denominator_exits_3():
    for argv in (
        ["elliptic", "--field", "puiseux:Q", "--lambda=t^(1/0)"],
        ["hyper", "--field", "puiseux:Q", "--roots=t^(1/0),1,2"],
    ):
        code, out, err = invoke(argv)
        assert code == 3, argv
        assert out == ""
        assert err == (
            "parse error [puiseux element]: cannot parse 'puiseux element' from "
            "'t^(1/0)': zero denominator\n"
        )


def test_large_prime_moduli():
    # 2^61 - 1 is prime; trial division would not finish on it
    code, out, err = invoke(
        ["classify", "--field", "padic:2305843009213693951", "disc(0; 1/2)"]
    )
    assert (code, err) == (0, "")
    assert '"type": 2' in out
    code, out, err = invoke(
        ["classify", "--field", "padic:3317044064679887385961981", "disc(0; 1/2)"]
    )
    assert (code, out) == (4, "")
    assert err == (
        "precondition violated: primality is decided only below "
        "3317044064679887385961981\n"
    )


def test_nadic_with_large_prime_factors_answers_in_time():
    # a Mersenne prime and a product of two primes near 10^9: trial
    # division alone would not finish on either
    for argv in (
        ["nadic", "--n", "2305843009213693951", "--x", "12"],
        ["nadic", "--n", "1000000016000000063", "--x", "1/3"],
    ):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 2.0, argv
        assert (code, err) == (0, ""), argv
        assert '"status": "ok"' in out


def test_nadic_refuses_what_it_cannot_factor():
    # two primes near 2^40 and 2^41: beyond the rho step budget
    start = time.perf_counter()
    code, out, err = invoke(["nadic", "--n", "2417851639291930512195989", "--x", "3"])
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (4, "")
    assert err.startswith("precondition violated: no factor of 2417851639291930512195989")


def test_precondition_failures_exit_4():
    code, out, err = invoke(
        ["path", "--field", "padic:5", "chain[(1;0),(2;5)]", "pt1(1)"]
    )
    assert code == 4
    assert out == ""
    assert err == "precondition violated: paths with chain endpoints are not supported\n"


def test_polynomial_degree_above_the_limit_exits_4():
    # T^N stores N+1 coefficients; huge degrees are refused before any
    # allocation, including ones too long for int()
    for degree in ("4097", "4000000", "9" * 6000):
        start = time.perf_counter()
        code, out, err = invoke(
            ["eval", "--field", "padic:5", f"--poly=T^{degree}", "disc(0; 1/2)"]
        )
        assert time.perf_counter() - start < 2.0, degree[:10]
        assert (code, out) == (4, ""), degree[:10]
        assert err == "precondition violated: polynomial degree above the limit 4096\n"
    code, out, err = invoke(
        ["eval", "--field", "padic:5", "--poly=T^4096 + T^0004", "disc(0; 1/2)"]
    )
    assert (code, err) == (0, "")
    assert '"exponent": "2"' in out


def test_strict_squares_column():
    code, out, err = invoke(
        ["hyper", "--field", "padic:5", "--roots", "0,5", "--lc", "2", "--strict-squares"]
    )
    assert code == 0
    assert err == ""
    assert out == (
        '{"betti": 0, "edges": ['
        '{"len": "inf", "u": 1, "v": 0}, '
        '{"len": "inf", "u": 2, "v": 0}], '
        '"fibers": [1, 1, 1], "splits": [false, false], "status": "ok", '
        '"strict_fibers": [1, null, null], "total_genus": 0, '
        '"vertex_genera": [0, 0, 0], "vertices": ['
        '{"genus": 0, "id": 0, "marked": false, "point": "disc(0; 1)", "type": 2}, '
        '{"genus": 0, "id": 1, "marked": true, "point": "pt1(0)", "type": 1}, '
        '{"genus": 0, "id": 2, "marked": true, "point": "pt1(5)", "type": 1}]}\n'
    )


def test_eval_reports_exact_zero():
    code, out, err = invoke(
        ["eval", "--field", "puiseux:Q", "--poly", "T^2 - t", "pt1(t^(1/2))"]
    )
    assert code == 0
    assert err == ""
    assert out == '{"exact": true, "status": "ok", "value": {"zero": true}}\n'
