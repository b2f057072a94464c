"""End-to-end CLI checks: frozen outputs, exit codes, determinism."""

import contextlib
import io
import json
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from berkline.cli import run
from berkline.fields import Rationals, _keyed, parse_field
from berkline.polynomials import parse_poly

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


def test_generic_reduction_and_cover_dot_in_process():
    # two answers that no fixture prints: the generic point of a
    # reduction, and the DOT graph of a cover skeleton
    assert invoke(["reduce", "--field", "padic:5", "disc(0; 0)"]) == (
        0, '{"generic": true, "status": "ok"}\n', ""
    )
    code, out, err = invoke(["hyper", "--field", "padic:5", "--roots", "0,1,5", "--dot"])
    assert (code, err) == (0, "")
    assert out == (
        "graph cover {\n"
        '  n0 [label="disc(0; 0) t2 g0"];\n'
        '  n1 [label="disc(0; 1) t2 g0"];\n'
        '  n2 [label="pt1(0) t1 g0 *"];\n'
        '  n3 [label="pt1(1) t1 g0 *"];\n'
        '  n4 [label="pt1(5) t1 g0 *"];\n'
        '  n5 [label="inf t1 g0"];\n'
        '  n1 -- n0 [len="1"];\n'
        '  n2 -- n1 [len="inf"];\n'
        '  n3 -- n0 [len="inf"];\n'
        '  n4 -- n1 [len="inf"];\n'
        '  n0 -- n5 [len="inf"];\n'
        "}\n"
    )


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
    # --json was accepted and ignored; output is JSON without it
    code, out, err = invoke(["classify", "--field", "padic:5", "--json", "pt1(0)"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --json" in err


SUBCOMMANDS = [argv[0] for argv, _ in FIXTURES]


def test_help_exits_0_and_names_every_subcommand():
    assert len(set(SUBCOMMANDS)) == 12
    code, out, err = invoke(["--help"])
    assert (code, err) == (0, "")
    assert out.startswith("usage: berkline")
    listed = re.search(r"\{([a-z,]+)\}", out).group(1).split(",")
    assert sorted(listed) == sorted(SUBCOMMANDS)
    for cmd in SUBCOMMANDS:
        code, out, err = invoke([cmd, "-h"])
        assert (code, err) == (0, ""), cmd
        assert out.startswith(f"usage: berkline {cmd}"), cmd


def test_parse_failures_exit_3():
    code, out, err = invoke(["classify", "--field", "padic:5", "disc(0 1/2)"])
    assert code == 3
    assert out == ""
    assert err == (
        "parse error [point]: cannot parse 'point' from 'disc(0 1/2)': "
        "disc needs a center and an exponent\n"
    )
    # literals beyond the digit limit or in exponent notation, and
    # empty parts, are grammar errors like any other
    digits = "9" * 5000
    for argv in (
        ["classify", "--field", "padic:5", f"disc(0; {digits})"],
        ["classify", "--field", "puiseux:Q", f"pt1(t^({digits}))"],
        ["classify", "--field", "padic:5", "pt1(1e20000000)"],
        ["nadic", "--n", "10", "--x", "1e200000"],
        ["classify", "--field", "padic:5", "chain[(0;0),]"],
        ["eval", "--field", "padic:5", "--poly", "T+", "pt1(0)"],
        ["classify", "--field", "padic:5", "chain[,(0;0)]"],
        ["shilov", "--field", "padic:5", "--standard", "disc_holes(0; 0; (1;1),)"],
        ["shilov", "--field", "padic:5", "--standard", "closed_disc(0)"],
        ["member", "--field", "padic:5", "--standard", "annulus(0)", "pt1(0)"],
        ["shilov", "--field", "padic:5", "--standard", "disc_holes(0; 0)"],
        ["shilov", "--field", "padic:5", "--standard", "disc_holes(0; 0; 1)"],
        ["eval", "--field", "padic:5", "--poly", "T-", "pt1(0)"],
        ["member", "--field", "padic:5", f"--domain=|T| <= rho^({digits}) * |1|", "pt1(0)"],
        ["mspecz", "--point", "p:5,r:1/2", "--values", "1,2,"],
    ):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        assert time.perf_counter() - start < 2.0, argv
        assert (code, out) == (3, ""), argv
        assert err.startswith("parse error [") and err.count("\n") == 1, argv
    code, _, err = invoke(["classify", "--field", "padic:4", "disc(0; 1)"])
    assert code == 3
    assert err == (
        "parse error [field selector]: cannot parse 'field selector' from "
        "'padic:4': 4 is not prime\n"
    )


def test_bad_field_is_reported_before_the_other_arguments():
    # every subcommand with --field reads it first, so a bad selector is
    # the one error reported even when the rest is malformed too
    for argv in (
        ["classify", "disc(0 1/2)"],
        ["eval", "--poly", "T+", "pt1(0)"],
        ["path", "pt1(", "pt1(0)"],
        ["hull", "pt1(0)", "disc(0"],
        ["member", "--standard", "annulus(0)", "pt1(0)"],
        ["shilov", "--standard", "closed_disc(0)"],
        ["reduce", "chain[,(0;0)]"],
        ["elliptic", "--lambda=t^(1/0)"],
        ["hyper", "--roots=1,,2"],
        ["retract", "--hull-point", "pt1(0", "pt1(0)"],
    ):
        argv = [argv[0], "--field", "padic:4", *argv[1:]]
        code, out, err = invoke(argv)
        assert (code, out) == (3, ""), argv
        assert err == (
            "parse error [field selector]: cannot parse 'field selector' from "
            "'padic:4': 4 is not prime\n"
        ), argv


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


def test_more_roots_than_the_degree_limit_exits_4():
    # the limit is checked before the distinctness check and the product
    roots = ",".join(str(i) for i in range(4097))
    for field in ("padic:5", "puiseux:F5"):
        start = time.perf_counter()
        code, out, err = invoke(["hyper", "--field", field, f"--roots={roots}"])
        assert time.perf_counter() - start < 2.0, field
        assert (code, out) == (4, ""), field
        assert err == "precondition violated: polynomial degree above the limit 4096\n"


def test_exact_evaluation_beyond_the_bound_exits_4():
    # v**n * f(u/v) would have about 40 million bits: its size is known
    # before Horner's rule runs, and the shift at a disc center builds
    # f(a) as its constant term, so both are refused up front, over Q
    # and over Puiseux sums with rational coefficients
    big = "7" * 3000
    for argv in (
        ["eval", "--field", "padic:5", "--poly", f"{big}*T^4096", f"pt1(1/{big})"],
        ["eval", "--field", "trivial:Q", "--poly", f"{big}*T^4096", f"pt1(1/{big})"],
        ["eval", "--field", "padic:5", "--poly", f"{big}*T^4096 + T", f"disc(1/{big}; 1)"],
        ["eval", "--field", "puiseux:Q", "--poly", f"{big}*T^4096", f"pt1(1/{big})"],
        ["eval", "--field", "puiseux:Q", "--poly", f"{big}*T^4096", f"disc(1/{big}; 1)"],
    ):
        start = time.perf_counter()
        code, out, err = invoke(argv)
        label = (argv[2], argv[-1][:4])
        assert time.perf_counter() - start < 2.0, label
        assert (code, out, err.count("\n")) == (4, "", 1), label
        assert err.startswith("precondition violated: ") and err.endswith("above 1048576 bits\n")
    code, out, err = invoke(["eval", "--field", "padic:5", "--poly", "T^4096 + 1", "pt1(123456789/7)"])
    assert (code, err) == (0, "")
    assert '"exponent": "0"' in out
    for point in ("pt1(123456789/7)", "disc(1/3; 1)"):
        code, out, err = invoke(["eval", "--field", "puiseux:Q", "--poly", "T^600+T", point])
        assert (code, err) == (0, "")
        assert '"exponent": "0"' in out


def test_puiseux_product_work_beyond_the_bound_exits_4():
    # twenty roots of three terms each, with exponent denominators up to
    # 13: the running product's rows fill wide key spans, so the term
    # operations of the product are bounded up front and refused (the
    # product alone ran past 60 s)
    rng = random.Random(3)
    roots = []
    for _ in range(20):
        e = rng.choice([1, 2, 3, 5, 7, 11, 13])
        terms = "+".join(f"{rng.randint(1, 5)}*t^({rng.randint(-20, 20)}/{e})" for _ in range(3))
        roots.append(terms.replace("+-", "-"))
    start = time.perf_counter()
    code, out, err = invoke(["hyper", "--field", "puiseux:Q", "--roots=" + ",".join(roots)])
    assert time.perf_counter() - start < 2.0
    assert (code, out, err.count("\n")) == (4, "", 1)
    assert err.startswith("precondition violated: a product would need ")
    assert "term operations" in err


def test_puiseux_term_work_beyond_the_bound_exits_4():
    # powers of a center with three incommensurable exponents have
    # supports that grow with the cube of the degree: the number of term
    # operations is estimated from the supports and refused up front
    center = "t^(1/7)+t^(1/11)+t^(1/13)"
    for field, point in (
        ("puiseux:F5", f"pt1({center})"),
        ("puiseux:Q", f"pt1({center})"),
        ("puiseux:F5", f"disc({center}; 2)"),
    ):
        start = time.perf_counter()
        code, out, err = invoke(["eval", "--field", field, "--poly", "T^4096+T", point])
        label = (field, point[:4])
        assert time.perf_counter() - start < 2.0, label
        assert (code, out, err.count("\n")) == (4, "", 1), label
        assert err.startswith("precondition violated: ") and "term operations" in err
    for field in ("puiseux:F5", "puiseux:Q"):
        code, out, err = invoke(["eval", "--field", field, "--poly", "T^200+T", f"pt1({center})"])
        assert (code, err) == (0, "")
        assert '"exponent": "1/13"' in out


def _run_within_512_mb(argv):
    """``python -m berkline.cli argv`` in a fresh interpreter whose
    address space alone is limited to 512 MB."""
    resource = pytest.importorskip("resource")
    src = str(Path(__file__).resolve().parent.parent / "src")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    return subprocess.run(
        [sys.executable, "-m", "berkline.cli", *argv],
        capture_output=True, text=True, env={"PYTHONPATH": src}, preexec_fn=limit,
    )


def test_heaviest_inputs_run_within_512_mb():
    """The heaviest accepted inputs measured, and refusals of the two
    work bounds, each in a fresh interpreter whose address space alone is
    limited to 512 MB: each ends with exit 0 or 4 and one line, never a
    traceback.  The full keyed sweep over F_5 at degree 2048 is the
    Lucas-sparse case of the keyed kernel."""
    big = "7" * 3000
    center = "t^(1/7)+t^(1/11)+t^(1/13)"
    for argv, want in (
        (["eval", "--field=puiseux:F5", "--poly=T^2048+T", "disc(2+t; 1)"], 0),
        (["eval", "--field=puiseux:F5", "--poly=T^4096+T", "pt1(2+t)"], 0),
        (["eval", "--field=puiseux:Q", "--poly=T^200+T", f"pt1({center})"], 0),
        (["eval", "--field=padic:5", "--poly=T^1024+T", "disc(1/3; 1)"], 0),
        (["hyper", "--field=padic:5", "--roots=" + ",".join(map(str, range(1, 301)))], 0),
        (["eval", "--field=puiseux:F5", "--poly=T^4096+T", f"disc({center}; 2)"], 4),
        (["eval", "--field=puiseux:Q", f"--poly={big}*T^4096", f"disc(1/{big}; 1)"], 4),
    ):
        done = _run_within_512_mb(argv)
        label = (argv[0], argv[1], argv[-1][:16])
        assert "Traceback" not in done.stderr, label
        assert done.returncode == want, (label, done.stderr[-300:])
        assert (done.stdout if want == 0 else done.stderr).count("\n") == 1, label
        assert (done.stderr if want == 0 else done.stdout) == "", label


def test_sparse_wide_disc_sweeps_run_within_512_mb():
    """Disc seminorms over puiseux:Q whose centers have exponents with
    large denominators: the rows of the sweep hold few terms over a wide
    span of keys, so a packed row would be wider than ``MAX_EXACT_BITS``
    (packing took gigabytes for ``T^300+T`` at the first center, seconds
    for ``T^100+T``).  Each shape takes the dict rows, and each input
    answers as the dict sweep did, in a 512 MB child, within 30 s (0.2 to
    4 s each on a 2-vCPU host)."""
    field = parse_field("puiseux:Q")
    wide, mixed = "t^(1/1000)+t^(999/1000)", "t^(1/7)+t^(1/11)"
    for poly, center, exponent in (
        ("T^100+T", wide, "1/1000"),
        ("T^300+T", wide, "1/1000"),
        ("T^300+T", mixed, "1/11"),
    ):
        label = (poly, center)
        f, a = parse_poly(field, poly), field.parse_element(center)
        _, ([shift], D), (rows, L) = _keyed(Rationals(), (a,), f.coeffs)
        assert Rationals()._packed_sweep(list(shift.items()), D, rows, L) is None, label
        start = time.perf_counter()
        argv = ["eval", "--field=puiseux:Q", f"--poly={poly}", f"disc({center}; 2)"]
        done = _run_within_512_mb(argv)
        assert time.perf_counter() - start < 30.0, label
        assert (done.returncode, done.stderr) == (0, ""), (label, done.stderr[-300:])
        assert done.stdout == (
            '{"exact": true, "status": "ok", "value": '
            f'{{"exponent": "{exponent}", "zero": false}}}}\n'
        ), label


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
    # The same column over puiseux:Q and trivial:Q.  With lc = t both
    # points above the Gauss point are defined over the field itself (t
    # has the square root t^(1/2)); with lc = 2 they need sqrt(2), so the
    # column reads null there.
    for argv, expected in (
        (
            ["hyper", "--field", "puiseux:Q", "--roots", "0,t,1,1+t", "--lc", "t", "--strict-squares"],
            '{"betti": 1, "edges": [{"len": "1", "u": 1, "v": 0}, '
            '{"len": "1", "u": 2, "v": 0}, '
            '{"len": "inf", "u": 3, "v": 1}, '
            '{"len": "inf", "u": 4, "v": 2}, '
            '{"len": "inf", "u": 5, "v": 2}, '
            '{"len": "inf", "u": 6, "v": 1}]'
            ', "fibers": [2, 1, 1, 1, 1, 1, 1]'
            ', "splits": [true, true, false, false, false, false]'
            ', "status": "ok", "strict_fibers": [2, 1, 1, null, null, null, null]'
            ', "total_genus": 1, "vertex_genera": [0, 0, 0, 0, 0, 0, 0]'
            ', "vertices": [{"genus": 0, "id": 0, "marked": false, "point": "disc(0; 0)", "type": 2}, '
            '{"genus": 0, "id": 1, "marked": false, "point": "disc(0; 1)", "type": 2}, '
            '{"genus": 0, "id": 2, "marked": false, "point": "disc(1; 1)", "type": 2}, '
            '{"genus": 0, "id": 3, "marked": true, "point": "pt1(0)", "type": 1}, '
            '{"genus": 0, "id": 4, "marked": true, "point": "pt1(1)", "type": 1}, '
            '{"genus": 0, "id": 5, "marked": true, "point": "pt1(1+t)", "type": 1}, '
            '{"genus": 0, "id": 6, "marked": true, "point": "pt1(t)", "type": 1}]}\n',
        ),
        (
            ["hyper", "--field", "puiseux:Q", "--roots", "0,t,1,1+t", "--lc", "2", "--strict-squares"],
            '{"betti": 1, "edges": [{"len": "1", "u": 1, "v": 0}, '
            '{"len": "1", "u": 2, "v": 0}, '
            '{"len": "inf", "u": 3, "v": 1}, '
            '{"len": "inf", "u": 4, "v": 2}, '
            '{"len": "inf", "u": 5, "v": 2}, '
            '{"len": "inf", "u": 6, "v": 1}]'
            ', "fibers": [2, 1, 1, 1, 1, 1, 1]'
            ', "splits": [true, true, false, false, false, false]'
            ', "status": "ok", "strict_fibers": [null, 1, 1, null, null, null, null]'
            ', "total_genus": 1, "vertex_genera": [0, 0, 0, 0, 0, 0, 0]'
            ', "vertices": [{"genus": 0, "id": 0, "marked": false, "point": "disc(0; 0)", "type": 2}, '
            '{"genus": 0, "id": 1, "marked": false, "point": "disc(0; 1)", "type": 2}, '
            '{"genus": 0, "id": 2, "marked": false, "point": "disc(1; 1)", "type": 2}, '
            '{"genus": 0, "id": 3, "marked": true, "point": "pt1(0)", "type": 1}, '
            '{"genus": 0, "id": 4, "marked": true, "point": "pt1(1)", "type": 1}, '
            '{"genus": 0, "id": 5, "marked": true, "point": "pt1(1+t)", "type": 1}, '
            '{"genus": 0, "id": 6, "marked": true, "point": "pt1(t)", "type": 1}]}\n',
        ),
        (
            ["hyper", "--field", "trivial:Q", "--roots", "0,1,2,3", "--lc", "2", "--strict-squares"],
            '{"betti": 0, "edges": [{"len": "inf", "u": 1, "v": 0}, '
            '{"len": "inf", "u": 2, "v": 0}, '
            '{"len": "inf", "u": 3, "v": 0}, '
            '{"len": "inf", "u": 4, "v": 0}]'
            ', "fibers": [1, 1, 1, 1, 1]'
            ', "splits": [false, false, false, false]'
            ', "status": "ok", "strict_fibers": [1, null, null, null, null]'
            ', "total_genus": 1, "vertex_genera": [1, 0, 0, 0, 0]'
            ', "vertices": [{"genus": 1, "id": 0, "marked": false, "point": "disc(0; 0)", "type": 2}, '
            '{"genus": 0, "id": 1, "marked": true, "point": "pt1(0)", "type": 1}, '
            '{"genus": 0, "id": 2, "marked": true, "point": "pt1(1)", "type": 1}, '
            '{"genus": 0, "id": 3, "marked": true, "point": "pt1(2)", "type": 1}, '
            '{"genus": 0, "id": 4, "marked": true, "point": "pt1(3)", "type": 1}]}\n',
        ),
    ):
        assert invoke(argv) == (0, expected, ""), argv


def test_large_values_print_exactly():
    # approx is display only and is left out beyond the float range
    code, out, err = invoke(["eval", "--field", "padic:5", "--poly", "T", "disc(0; -500)"])
    assert (code, err) == (0, "")
    assert out == '{"exact": true, "status": "ok", "value": {"exponent": "-500", "zero": false}}\n'
    # j = 256 (l^2 - l + 1)^3 / (l^2 (l - 1)^2) has about 6,000 digits here,
    # past the interpreter's default limit for int-to-str conversion
    limit = sys.get_int_max_str_digits()
    code, out, err = invoke(["elliptic", "--field", "puiseux:Q", "--lambda=" + "7" * 1000])
    assert (code, err) == (0, "")
    assert len(json.loads(out)["j_residue"]) > 4300
    assert sys.get_int_max_str_digits() == limit


def test_eval_reports_exact_zero():
    code, out, err = invoke(
        ["eval", "--field", "puiseux:Q", "--poly", "T^2 - t", "pt1(t^(1/2))"]
    )
    assert code == 0
    assert err == ""
    assert out == '{"exact": true, "status": "ok", "value": {"zero": true}}\n'


# ---------------------------------------------------------------------
# Grammar-aware fuzz: argvs for every subcommand built from the documented
# grammars, then mutated the way hand-typed input goes wrong.  Whatever
# comes in, the CLI answers with exit 0, 2, 3 or 4 and never a traceback.

_SUBCOMMANDS = (
    "classify", "eval", "path", "hull", "member", "shilov",
    "reduce", "mspecz", "nadic", "elliptic", "hyper", "retract",
)
_SELECTORS = ("padic:5", "padic:2", "puiseux:Q", "puiseux:F3", "trivial:Q", "trivial:F7")
_digits = st.text("0123456789", min_size=1, max_size=3)


@st.composite
def _literal(draw, integer=False):
    text = draw(st.sampled_from(("", "-"))) + draw(_digits)
    if not integer and draw(st.booleans()):
        text += f"/{draw(st.integers(1, 999))}"
    return text


@st.composite
def _exponent(draw):
    text = draw(_literal())
    if draw(st.integers(0, 3)) == 0:
        text += draw(st.sampled_from("+-")) + draw(_digits) + "*s2"
    return text


@st.composite
def _element(draw, sel):
    integer = sel.endswith("F3") or sel.endswith("F7")
    if not sel.startswith("puiseux"):
        return draw(_literal(integer))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(_literal(integer))
        form = draw(st.integers(0, 2))
        terms.append(c if form == 0 else f"{c}*t" if form == 1 else f"{c}*t^({draw(_literal())})")
    return _sum(terms)


def _sum(terms, plus="+"):
    return terms[0] + "".join(t if t.startswith("-") else plus + t for t in terms[1:])


@st.composite
def _point(draw, sel):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return f"pt1({draw(_element(sel))})"
    if kind == 1:
        return f"disc({draw(_element(sel))}; {draw(_exponent())})"
    radii = sorted(draw(st.sets(st.integers(-9, 9), min_size=1, max_size=3)))
    items = ",".join(f"({e};{draw(_element(sel))})" for e in radii)
    limit = f"; limit={draw(_exponent())}" if draw(st.booleans()) else ""
    return f"chain[{items}{limit}]"


@st.composite
def _poly(draw, sel):
    terms = [f"({draw(_element(sel))})*T^{draw(st.integers(0, 5))}"]
    terms += [draw(_element(sel)) for _ in range(draw(st.integers(0, 2)))]
    return _sum(terms, " + ")


@st.composite
def _standard(draw, sel):
    a, e = draw(_element(sel)), draw(_exponent())
    kind = draw(st.integers(0, 2))
    if kind == 0:
        return f"closed_disc({a}; {e})"
    if kind == 1:
        return f"annulus({a}; {e}, {draw(_exponent())})"
    holes = ", ".join(
        f"({draw(_element(sel))}; {draw(_exponent())})" for _ in range(draw(st.integers(1, 2)))
    )
    return f"disc_holes({a}; {e}; {holes})"


@st.composite
def _argv(draw):
    """A subcommand and its arguments, all valid in form; options are
    written ``--name=value`` because values may begin with a minus."""
    sub = draw(st.sampled_from(_SUBCOMMANDS))
    sel = draw(st.sampled_from(_SELECTORS))
    field = ["--field=" + sel]
    point = lambda: draw(_point(sel))  # noqa: E731
    if sub == "classify" or sub == "reduce":
        return [sub, *field, point()]
    if sub == "eval":
        return [sub, *field, "--poly=" + draw(_poly(sel)), point()]
    if sub == "path":
        return [sub, *field, point(), point()]
    if sub == "hull":
        return [sub, *field, *(point() for _ in range(draw(st.integers(1, 3))))]
    if sub == "member":
        if draw(st.booleans()):
            return [sub, *field, "--standard=" + draw(_standard(sel)), point()]
        bound = f"|{draw(_poly(sel))}| <= rho^({draw(_exponent())}) * |{draw(_poly(sel))}|"
        return [sub, *field, "--domain=" + bound, point()]
    if sub == "shilov":
        return [sub, *field, "--standard=" + draw(_standard(sel))]
    if sub == "mspecz":
        zp = draw(st.sampled_from(("trivial", "p:5,r:{}", "arch:{}", "pinf:7")))
        values = ",".join(draw(_literal(True)) for _ in range(draw(st.integers(1, 3))))
        return [sub, "--point=" + zp.format(draw(_literal())), "--values=" + values]
    if sub == "nadic":
        return [sub, "--n=" + draw(st.sampled_from(("2", "6", "12", "30"))), "--x=" + draw(_literal())]
    if sub == "elliptic":
        return [sub, *field, "--lambda=" + draw(_element(sel))]
    if sub == "hyper":
        roots = ",".join(draw(_element(sel)) for _ in range(draw(st.integers(1, 5))))
        form = draw(st.sampled_from(([], ["--dot"], ["--strict-squares"])))
        return [sub, *field, "--roots=" + roots, *form]
    hull = ["--hull-point=" + point() for _ in range(draw(st.integers(1, 3)))]
    return [sub, *field, *hull, point()]


@st.composite
def _mutated(draw, text):
    kind = draw(st.sampled_from(("digits", "exponent", "double", "trail", "parens")))
    runs = [m.span() for m in re.finditer(r"[0-9]+", text)]
    if kind in ("digits", "exponent") and runs:
        i, j = draw(st.sampled_from(runs))
        if kind == "digits":
            return text[:i] + "7" * draw(st.sampled_from((700, 5000))) + text[j:]
        return text[:j] + "e20000000" + text[j:]
    if kind == "double":
        seps = [i for i, ch in enumerate(text) if ch in ",;+-*"]
        if not seps:
            return text + ","
        i = draw(st.sampled_from(seps))
        return text[: i + 1] + text[i:]
    if kind == "trail":
        ends = [i for i, ch in enumerate(text) if ch in ")]"] + [len(text)]
        i = draw(st.sampled_from(ends))
        return text[:i] + draw(st.sampled_from(",;+-")) + text[i:]
    i = draw(st.integers(0, len(text)))
    j = draw(st.integers(i, len(text)))
    return text[:i] + "((" + text[i:j] + "))" + text[j:]


@settings(max_examples=300, deadline=2000)
@given(st.data())
def test_cli_fuzz_exits_0_2_3_or_4(data):
    argv = data.draw(_argv())
    texts = [
        i for i, a in enumerate(argv[1:], 1)
        if not a.startswith(("--field=", "--dot", "--strict"))
    ]
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.sampled_from(texts))
        # an option keeps its name; only its value is mutated
        name, eq, value = argv[i].partition("=") if argv[i].startswith("--") else ("", "", argv[i])
        argv[i] = name + eq + data.draw(_mutated(value))
    code, out, err = invoke(argv)
    assert code in (0, 2, 3, 4), argv
    if code == 0:
        assert err == ""
        assert out.startswith("graph ") or (out.count("\n") == 1 and '"status": "ok"' in out)
    else:
        assert out == ""
    if code in (3, 4):
        assert err.count("\n") == 1
