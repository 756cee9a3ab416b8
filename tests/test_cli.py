"""Command-line surface: exit codes, report content, determinism."""

import contextlib
import hashlib
import io
import json
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zzsl import cli, fock, statistics
from zzsl.cli import _json_text, parse_and_run


def run(argv, capsys):
    code = parse_and_run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes(capsys):
    code, out, _ = run(["verify", "--params", "1,1,1,1", "--p", "2"], capsys)
    assert code == 0
    assert "all suites passed" in out
    assert "FAIL" not in out


def test_verify_json_report(capsys):
    code, out, _ = run(
        ["verify", "--params", "1,0,1,0", "--p", "1..2", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["passed"] is True
    assert data["total_failures"] == 0
    assert data["p_range"] == [1, 2]
    names = [s["name"] for s in data["suites"]]
    assert "axioms" in names
    assert "defining-relations" in names
    assert any(name.startswith("representation[p=2]") for name in names)
    assert any(name.startswith("statistics[p=1]") for name in names)


def test_dim_table(capsys):
    code, out, _ = run(["dim", "--params", "1,1,1,1", "--p", "1..3"], capsys)
    assert code == 0
    assert "2 13" in out

    code, out, _ = run(
        ["dim", "--params", "1,1,1,1", "--p", "1..3", "--format", "csv"], capsys
    )
    assert code == 0
    assert out.splitlines()[0] == "p,dimension"
    assert "2,13" in out

    code, out, _ = run(
        ["dim", "--params", "1,1,1,1", "--p", "2", "--format", "json"], capsys
    )
    assert json.loads(out) == [{"p": 2, "dimension": 13}]


def test_spectrum_output(capsys):
    code, out, _ = run(
        ["spectrum", "--params", "1,0,1,0", "--p", "1", "--eps", "1"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "0: 1"
    assert lines[1] == "1: 2"
    assert all("residual ok" in line for line in lines[3:])

    code, out, _ = run(
        ["spectrum", "--params", "1,0,1,0", "--p", "1", "--eps", "1", "--format", "json"],
        capsys,
    )
    data = json.loads(out)
    assert [entry["multiplicity"] for entry in data["spectrum"]] == [1, 2]
    assert all(entry["residual_zero"] for entry in data["ladder"])


def test_spectrum_builds_the_hamiltonian_once(monkeypatch, tmp_path):
    for name, module in list(sys.modules.items()):
        if name.startswith("zzsl"):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    honest = statistics.graded_bracket
    calls = []

    def counted(x, y):
        calls.append(1)
        return honest(x, y)

    monkeypatch.setattr(statistics, "graded_bracket", counted)
    argv = [
        "spectrum", "--params", "1,1,1,1", "--p", "3", "--eps", "1,3/2",
        "--format", "json", "--output", str(tmp_path / "spectrum.json"),
    ]
    assert parse_and_run(argv) == 0
    # H is the sum of one graded bracket per operator, 2m = 4 in all; it is
    # not rebuilt for the 4m ladder checks
    assert len(calls) == 4
    data = json.loads((tmp_path / "spectrum.json").read_text())
    assert len(data["ladder"]) == 8
    assert all(entry["residual_zero"] for entry in data["ladder"])


def test_spectrum_literal_reading_reports_nonzero_residuals(capsys):
    code, out, _ = run(
        [
            "spectrum", "--params", "1,0,1,0", "--p", "2", "--eps", "1",
            "--reading", "literal", "--format", "json",
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(out)
    fermionic = [e for e in data["ladder"] if e["generator"].startswith("a2")]
    assert any(not e["residual_zero"] for e in fermionic)


def test_spectrum_rejects_unpaired_params(capsys):
    code, _, err = run(
        ["spectrum", "--params", "1,0,0,0", "--p", "1", "--eps", "1"], capsys
    )
    assert code == 2
    assert "m = n" in err


def test_occupancy_output(capsys):
    code, out, _ = run(
        ["occupancy", "--params", "1,1,1,1", "--p", "3", "--format", "json"], capsys
    )
    assert code == 0
    data = json.loads(out)
    assert data["max_total"] == 3
    assert data["max_lambda"] == [1]


def test_export_deterministic(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        code, _, _ = run(
            ["export", "--params", "1,0,1,0", "--p", "2", "--output", str(target)],
            capsys,
        )
        assert code == 0
    assert first.read_bytes() == second.read_bytes()
    data = json.loads(first.read_text())
    assert data["dimension"] == 5
    assert len(data["basis"]) == 5
    assert [op["generator"] for op in data["operators"]] == [
        "b1+", "b1-", "f1+", "f1-",
    ]
    assert data["basis"][0]["lambda"] == []


def test_export_unnormalized_kind(tmp_path, capsys):
    target = tmp_path / "u.json"
    code, _, _ = run(
        [
            "export", "--params", "1,0,0,0", "--p", "2",
            "--basis", "unnormalized", "--output", str(target),
        ],
        capsys,
    )
    assert code == 0
    data = json.loads(target.read_text())
    assert data["basis_kind"] == "unnormalized"
    lowering = next(op for op in data["operators"] if op["generator"] == "b1-")
    coeffs = {
        (e["row"], e["col"]): e["coeff"] for e in lowering["matrix"]["entries"]
    }
    # integer coefficients only
    assert all(len(c) == 1 and c[0]["radicand"] == "1" for c in coeffs.values())


# sha256 of stdout, recorded when CLI JSON was still rendered by
# ``json.dumps(payload, indent=2)``: export bytes for both basis kinds and
# the JSON reports of the other four commands.
_OUTPUT_DIGESTS = [
    ("export --params 1,0,1,0 --p 2 --basis orthonormal",
     "fdcc1ccfa5acfdd20c1cff9d7051e6a61d9627687c4bc09e669785d37ae647ef"),
    ("export --params 1,0,1,0 --p 2 --basis unnormalized",
     "96ec7dceed423750704bc9d114f3e9ebae8e52730e2513f950b3a241d059f97e"),
    ("export --params 1,1,1,1 --p 3 --basis orthonormal",
     "629dba572f1efa365867f484c2429c0906c8fd9fec77c4ee0d9f2c45d368d05e"),
    ("export --params 1,1,1,1 --p 3 --basis unnormalized",
     "c838ba4fabf0a17e8b02cc6fd6a7958e06ac19c8dc793e05abf5f4171ba34f28"),
    ("export --params 2,2,2,2 --p 2 --basis orthonormal",
     "0077218b8da9b1f94a4e35f6c220fe45f57b97c07759c39c9d7cfa8cc15d26f4"),
    ("export --params 2,2,2,2 --p 2 --basis unnormalized",
     "9a6861ba156d611a29745827a1a516c876e49550ba117156df73322dcd7eff29"),
    ("verify --params 1,0,1,1 --p 1..2 --format json",
     "7c94ec2bc53dcf1accfe3cd9b4ed24b300ba6a273e0593fff11fc5d15b0b2721"),
    ("dim --params 2,1,2,1 --p 1..4 --format json",
     "d2afede2ea4bf840493402de3b411c76beb4a371617c058d5e2244eeca4c900e"),
    ("spectrum --params 1,1,1,1 --p 3 --eps 1,3/2 --format json",
     "9ac9e08ed85dde7c5f94fff9df1167b9113f5585bc586d3509a26b597f745fc9"),
    ("spectrum --params 1,1,1,1 --p 3 --eps 1,3/2 --reading literal --format json",
     "76b75d9984a79d82f33f72340b817471392d3b982db40cb0db96019074edf824"),
    ("occupancy --params 2,1,2,1 --p 3 --format json",
     "93e25ff9287a3e527e6a92935047b40554a25d1a12e62822c2d7c4f2b32d7d01"),
]


@pytest.mark.parametrize(
    "argv, digest", _OUTPUT_DIGESTS, ids=[argv for argv, _ in _OUTPUT_DIGESTS]
)
def test_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(argv.split(), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


_json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(2**100), max_value=2**100),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.sampled_from(["", "\"\\/\b\f\n\r\t\x00\x1f\x7f", "é→ünï", "\u2028\U0001f600"]),
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.one_of(st.text(max_size=5), st.integers()), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_json_text_is_json_dumps_with_indent_two(value):
    assert _json_text(value) == json.dumps(value, indent=2) + "\n"


def test_out_of_memory_is_a_clean_error(monkeypatch, capsys):
    def exhaust(params, p):
        raise MemoryError

    monkeypatch.setattr(cli, "verify_representation", exhaust)
    code, out, err = run(["verify", "--params", "1,0,1,0", "--p", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert "Traceback" not in err


def test_malformed_arguments(capsys):
    assert run(["verify", "--params", "1,1,1", "--p", "2"], capsys)[0] == 2
    assert run(["verify", "--params", "1,1,1,1", "--p", "0"], capsys)[0] == 2
    assert run(["verify", "--params", "1,1,1,1", "--p", "3..1"], capsys)[0] == 2
    assert run(["spectrum", "--params", "1,0,1,0", "--p", "1", "--eps", "x"], capsys)[0] == 2
    assert run(["nonsense"], capsys)[0] == 2
    assert run([], capsys)[0] == 2


@pytest.mark.parametrize("eps", ["1e100000000", "1e3", "1,2E-1"])
def test_eps_with_an_exponent_is_rejected_fast(capsys, eps):
    # Fraction("1e10000000") alone takes seconds, and its value cannot be printed
    start = time.perf_counter()
    code, out, err = run(["spectrum", "--params", "2,0,1,1", "--p", "1", "--eps", eps], capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert f"invalid rational list {eps!r}" in err


def test_eps_takes_integers_decimals_and_quotients():
    assert cli._eps_type("2, -0.25,3/6") == (2, Fraction(-1, 4), Fraction(1, 2))


def test_export_rejects_range(capsys):
    code, _, err = run(["export", "--params", "1,0,1,0", "--p", "1..2"], capsys)
    assert code == 2
    assert "single order" in err


def test_unwritable_output_is_a_clean_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run(
        ["dim", "--params", "1,0,1,0", "--p", "2", "--output", str(target)], capsys
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert "Traceback" not in err
    assert not target.exists()


def test_oversized_module_is_rejected_before_enumeration(monkeypatch, capsys):
    from zzsl import fock

    def refuse(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(fock, "_admissible_occupations", refuse)
    fock.enumerate_basis.cache_clear()
    params = fock.AlgebraParams(40, 40, 40, 40)
    expected = fock.closed_form_dimension(params, 30)
    assert expected > fock.MAX_BASIS_DIMENSION
    code, out, err = run(["dim", "--params", "40,40,40,40", "--p", "30"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(expected) in err
    assert "Traceback" not in err


def test_refusal_hook_fires_on_an_admissible_module(monkeypatch):
    # the patch the refusal tests install sits on the enumeration path, so
    # they cannot pass because enumeration went around it
    def refuse(*args):
        raise AssertionError("the basis was enumerated")

    monkeypatch.setattr(fock, "_admissible_occupations", refuse)
    fock.enumerate_basis.cache_clear()
    with pytest.raises(AssertionError, match="the basis was enumerated"):
        fock.enumerate_basis(fock.AlgebraParams(1, 0, 1, 0), 2)


@pytest.mark.parametrize("command", ["dim", "verify"])
def test_order_range_is_checked_at_its_top_first(monkeypatch, capsys, command):
    from zzsl import grading

    def refuse(*args):
        raise AssertionError("work started before the range was checked")

    monkeypatch.setattr(fock, "_admissible_occupations", refuse)
    monkeypatch.setattr(grading, "_BracketTable", refuse)
    fock.enumerate_basis.cache_clear()
    expected = fock.closed_form_dimension(fock.AlgebraParams(1, 1, 1, 1), 2000)
    code, out, err = run([command, "--params", "1,1,1,1", "--p", "1..2000"], capsys)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: Fock module of order 2000 for (1, 1, 1, 1) has dimension {expected}, "
        f"above the enumeration limit {fock.MAX_BASIS_DIMENSION}\n"
    )


def _refused_before_any_work(monkeypatch, capsys, argv):
    """Run ``argv`` with basis enumeration and the axiom sweep refused; it
    must exit 2 within 1 s with nothing on stdout.  Returns stderr."""
    from zzsl import grading

    def refuse(*args):
        raise AssertionError("work started before the range was checked")

    monkeypatch.setattr(fock, "_admissible_occupations", refuse)
    monkeypatch.setattr(grading, "_BracketTable", refuse)
    fock.enumerate_basis.cache_clear()
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    return err


@pytest.mark.parametrize("argv, total", [
    (["dim", "--params", "0,0,0,0", "--p", "1..1000000000000"], 10**12),
    (["dim", "--params", "0,0,1,1", "--p", "1..100000000000"], 4 * 10**11 - 1),
    (["verify", "--params", "0,0,0,0", "--p", "1..100000000"], 10**8),
    # top module 982,101 states, under the limit; 1,400 modules together are not
    (["dim", "--params", "2,0,0,0", "--p", "1..1400"], 459295900),
])
def test_order_range_is_checked_by_its_summed_dimension(monkeypatch, capsys, argv, total):
    params, p_range = argv[2], argv[4]
    assert _refused_before_any_work(monkeypatch, capsys, argv) == (
        f"error: Fock modules of orders {p_range} for ({params.replace(',', ', ')}) have "
        f"{total} states in all, above the enumeration limit {fock.MAX_BASIS_DIMENSION}\n"
    )


# Each state is stored as a tuple of m + n ints, so a range of many orbitals
# can pass the state limit and still not fit: 100,001 states at width
# 100,000 would store 10**10 entries.
@pytest.mark.parametrize("argv, entries", [
    (["dim", "--params", "400,0,0,0", "--p", "1..2"], 400 * (401 + 80601)),
    (["dim", "--params", "800,0,0,0", "--p", "1..2"], 800 * (801 + 321201)),
    (["verify", "--params", "100000,0,0,0", "--p", "1"], 100000 * 100001),
])
def test_order_range_is_checked_by_its_stored_entries(monkeypatch, capsys, argv, entries):
    params, (lo, _, hi) = argv[2], argv[4].partition("..")
    assert _refused_before_any_work(monkeypatch, capsys, argv) == (
        f"error: Fock modules of orders {lo}..{hi or lo} for ({params.replace(',', ', ')}) "
        f"store {entries} occupation entries in all, above the storage limit "
        f"{16 * fock.MAX_BASIS_DIMENSION}\n"
    )


def test_stored_entry_limit_is_sixteen_times_the_state_limit(monkeypatch):
    # (20, 0, 0, 0) at orders 1..2: 21 + 231 states of 20 entries each
    params = fock.AlgebraParams(20, 0, 0, 0)
    monkeypatch.setattr(fock, "MAX_BASIS_DIMENSION", 5040 // 16)
    fock._check_order_range(params, 1, 2)
    monkeypatch.setattr(fock, "MAX_BASIS_DIMENSION", 5040 // 16 - 1)
    with pytest.raises(ValueError, match=" store 5040 occupation entries in all"):
        fock._check_order_range(params, 1, 2)


def test_range_limit_is_the_exact_sum_of_module_dimensions(monkeypatch):
    # the hockey-stick total against a plain sum of closed-form dimensions;
    # with two modules or more the top one alone stays under the limit
    for blocks in [(0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 2, 1), (1, 1, 1, 1), (2, 1, 3, 0)]:
        params = fock.AlgebraParams(*blocks)
        for lo in range(1, 6):
            for hi in range(lo + 1, 7):
                total = sum(fock.closed_form_dimension(params, p) for p in range(lo, hi + 1))
                monkeypatch.setattr(fock, "MAX_BASIS_DIMENSION", total)
                fock._check_order_range(params, lo, hi)
                monkeypatch.setattr(fock, "MAX_BASIS_DIMENSION", total - 1)
                with pytest.raises(ValueError, match=f" have {total} states in all"):
                    fock._check_order_range(params, lo, hi)


def test_oversized_algebra_is_rejected_before_the_axiom_sweep(monkeypatch, capsys):
    from zzsl import grading

    def refuse(*args):
        raise AssertionError("the axiom sweep was started")

    monkeypatch.setattr(grading, "_BracketTable", refuse)
    code, out, err = run(["verify", "--params", "40,40,40,40", "--p", "1"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(161**6) in err
    assert "Traceback" not in err


# Values that are malformed, or wrong for some option or command, which the
# fuzzer puts in place of valid ones.  Nothing draws digits freely, so a
# valid but huge module cannot come up.
_MALFORMED = st.sampled_from([
    "", " ", "x", "1,1,1", "1,1,1,1,1", "-1,0,0,0", "1.5,0,0,0", "a,b,c,d", "0", "-1",
    "1..", "..2", "3..1", "1..2", "1..2..3", "1.5", "nan", "inf", "1/0", "1e3", "--p", "٣",
])
_blocks = st.tuples(*[st.integers(0, 3)] * 4)
_orders = st.integers(1, 3)


_FORMATS = {
    "verify": ["text", "json"],
    "dim": ["text", "json", "csv"],
    "export": ["json"],
    "spectrum": ["text", "json", "csv"],
    "occupancy": ["text", "json"],
}


@st.composite
def _argv(draw):
    """A well-formed argv for one of the five commands, corrupted one time in two."""
    command = draw(st.sampled_from(sorted(_FORMATS)))
    # the axiom sweep grows as N**6; m+n <= 3 keeps a verify example fast
    blocks = draw(_blocks.filter(lambda b: command != "verify" or sum(b) <= 3))
    m = blocks[0] + blocks[1]
    if command == "spectrum" and draw(st.booleans()):
        blocks = blocks[:2] + (m - min(m, 3), min(m, 3))  # paired: m = n
    lo = draw(_orders)
    hi = draw(st.integers(lo, 3))
    args = {
        "--params": ",".join(map(str, blocks)),
        "--p": f"{lo}..{hi}" if command in ("verify", "dim") and draw(st.booleans()) else str(lo),
        "--format": draw(st.sampled_from(_FORMATS[command])),
    }
    if command == "spectrum":
        eps = st.sampled_from(["1", "3/2", "-2", "0"])
        args["--eps"] = ",".join(draw(st.lists(eps, min_size=max(m, 1), max_size=max(m, 1))))
        args["--reading"] = draw(st.sampled_from(["graded", "literal"]))
    if command == "export":
        args["--basis"] = draw(st.sampled_from(["orthonormal", "unnormalized"]))
    if draw(st.booleans()):
        for name in draw(st.sets(st.sampled_from(sorted(args)), min_size=1, max_size=2)):
            if draw(st.booleans()):
                args[name] = draw(_MALFORMED)
            else:
                del args[name]
    argv = [command]
    for name, value in args.items():
        argv += [name, value]
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_MALFORMED))
    return argv


@settings(max_examples=150, deadline=None)
@given(_argv())
def test_fuzzed_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = parse_and_run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue() and not out.getvalue()
