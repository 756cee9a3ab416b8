"""Command-line surface: verification sweeps, dimension tables, data export.

Exit codes: 0 success, 1 verification failure, 2 malformed or out-of-range
arguments, an unwritable output or a run out of memory.
All diagnostics go to stderr; reports go to stdout or --output."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .algebra import generator_ids, verify_defining_relations
from .fock import (
    _check_order_range, closed_form_dimension, dimension, enumerate_basis, operator_matrix,
    verify_representation,
)
from .grading import AlgebraParams, axiom_report
from .statistics import (
    FAMILIES,
    ladder_residual,
    occupancy_report,
    relation_suite,
    spectrum,
)

PROG = "zzsl"


def _params_type(text: str) -> AlgebraParams:
    try:
        return AlgebraParams.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _p_range_type(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid order or range {text!r}") from None
    if lo < 1 or hi < lo:
        raise argparse.ArgumentTypeError(f"order range {text!r} must be 1 <= lo <= hi")
    return lo, hi


def _eps_type(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(piece.strip()) for piece in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid rational list {text!r}") from None


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    """``json.dumps(payload, indent=2)`` plus a newline, byte for byte.

    With ``indent`` set, ``json.dumps`` leaves its C encoder for a
    pure-Python generator; this renders each container with one join, the
    str and int leaves with C calls, and only other scalars with
    ``json.dumps``.
    """
    return _render(payload, "\n") + "\n"


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def _render(value, newline: str) -> str:
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        parts = [
            encode_basestring_ascii(k if isinstance(k, str) else json.dumps(k)) + ": "
            + (leaf(v) if (leaf := _LEAVES.get(type(v))) else _render(v, inner))
            for k, v in value.items()
        ]
        return "{" + inner + ("," + inner).join(parts) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        parts = [leaf(v) if (leaf := _LEAVES.get(type(v))) else _render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(parts) + newline + "]"
    return json.dumps(value)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact verification and data export for Z2xZ2-graded "
        "special linear superalgebras and their Fock modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, p_range: bool) -> None:
        p.add_argument("--params", type=_params_type, required=True,
                       metavar="M1,M2,N1,N2", help="block sizes of the algebra")
        if p_range:
            p.add_argument("--p", type=_p_range_type, required=True, metavar="P[..Q]",
                           help="statistics order, or inclusive range lo..hi")
        else:
            p.add_argument("--p", type=_p_range_type, required=True, metavar="P",
                           help="statistics order")
        p.add_argument("--output", metavar="PATH", help="write the report to a file")

    verify = sub.add_parser("verify", help="run all verification suites")
    add_common(verify, p_range=True)
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    dim = sub.add_parser("dim", help="dimension table over an order range")
    add_common(dim, p_range=True)
    dim.add_argument("--format", choices=("text", "json", "csv"), default="text")
    dim.set_defaults(func=_cmd_dim)

    export = sub.add_parser("export", help="export basis and operator matrices")
    add_common(export, p_range=False)
    export.add_argument("--basis", choices=("orthonormal", "unnormalized"),
                        default="orthonormal", dest="basis_kind")
    export.add_argument("--format", choices=("json",), default="json")
    export.set_defaults(func=_cmd_export)

    spect = sub.add_parser("spectrum", help="Hamiltonian spectrum and ladder checks")
    add_common(spect, p_range=False)
    spect.add_argument("--eps", type=_eps_type, required=True, metavar="E1,E2,...",
                       help="orbital energies as rationals, e.g. 1,3/2")
    spect.add_argument("--reading", choices=("graded", "literal"), default="graded")
    spect.add_argument("--format", choices=("text", "json", "csv"), default="text")
    spect.set_defaults(func=_cmd_spectrum)

    occ = sub.add_parser("occupancy", help="per-orbital and global occupation maxima")
    add_common(occ, p_range=False)
    occ.add_argument("--format", choices=("text", "json"), default="text")
    occ.set_defaults(func=_cmd_occupancy)

    return parser


def _suite_json(name: str, checked: int, failures) -> dict:
    return {"name": name, "checked": checked, "failures": [f.to_json() for f in failures]}


def _verify_suites(params: AlgebraParams, p_lo: int, p_hi: int) -> list[dict]:
    _check_order_range(params, p_lo, p_hi)  # before any work
    axioms = axiom_report(params)
    defining = verify_defining_relations(params)
    suites = [
        _suite_json("axioms", axioms.pairs_checked + axioms.triples_checked, axioms.failures),
        _suite_json("defining-relations", defining.checked, defining.failures),
    ]
    for p in range(p_lo, p_hi + 1):
        rep = verify_representation(params, p)
        for suite in rep.suites:
            suites.append(
                _suite_json(f"representation[p={p}].{suite.label}", suite.checked, suite.failures)
            )
        for family in FAMILIES:
            fam = relation_suite(family, params, p, representation=rep)
            suites.append(_suite_json(f"statistics[p={p}].{family}", fam.checked, fam.failures))
    return suites


def _cmd_verify(ns: argparse.Namespace) -> int:
    p_lo, p_hi = ns.p
    suites = _verify_suites(ns.params, p_lo, p_hi)
    total_failures = sum(len(s["failures"]) for s in suites)
    if ns.format == "json":
        payload = {
            "params": list(ns.params.as_tuple()),
            "p_range": [p_lo, p_hi],
            "suites": suites,
            "total_failures": total_failures,
            "passed": total_failures == 0,
        }
        _emit(_json_text(payload), ns.output)
    else:
        lines = []
        for s in suites:
            status = "PASS" if not s["failures"] else "FAIL"
            lines.append(
                f"{status}  {s['name']} (checked={s['checked']}, failures={len(s['failures'])})"
            )
        lines.append(
            "all suites passed" if total_failures == 0
            else f"FAILURES: {total_failures} failing checks"
        )
        _emit("\n".join(lines) + "\n", ns.output)
    return 0 if total_failures == 0 else 1


def _single_order(ns: argparse.Namespace) -> int:
    lo, hi = ns.p
    if lo != hi:
        raise ValueError(f"{ns.command} takes a single order, not a range")
    return lo


def _cmd_dim(ns: argparse.Namespace) -> int:
    p_lo, p_hi = ns.p
    _check_order_range(ns.params, p_lo, p_hi)
    rows = []
    for p in range(p_lo, p_hi + 1):
        counted = dimension(ns.params, p)
        formula = closed_form_dimension(ns.params, p)
        if counted != formula:
            print(
                f"error: enumeration ({counted}) disagrees with closed form ({formula}) at p={p}",
                file=sys.stderr,
            )
            return 1
        rows.append((p, counted))
    if ns.format == "json":
        _emit(_json_text([{"p": p, "dimension": d} for p, d in rows]), ns.output)
    elif ns.format == "csv":
        body = "p,dimension\n" + "\n".join(f"{p},{d}" for p, d in rows) + "\n"
        _emit(body, ns.output)
    else:
        body = "p dimension\n" + "\n".join(f"{p} {d}" for p, d in rows) + "\n"
        _emit(body, ns.output)
    return 0


def _cmd_export(ns: argparse.Namespace) -> int:
    p = _single_order(ns)
    params = ns.params
    basis = enumerate_basis(params, p)
    operators = []
    for gid in generator_ids(params):
        op = operator_matrix(gid, params, p, ns.basis_kind)
        operators.append({
            "generator": gid.label(params),
            "index": gid.index,
            "sign": gid.sign,
            "family": gid.family(params),
            "grade": list(gid.grade(params).as_tuple()),
            "matrix": op.to_json(),
        })
    payload = {
        "params": list(params.as_tuple()),
        "p": p,
        "basis_kind": ns.basis_kind,
        "dimension": len(basis),
        "basis": basis.to_json(),
        "operators": operators,
    }
    _emit(_json_text(payload), ns.output)
    return 0


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    p = _single_order(ns)
    params = ns.params
    pairs = spectrum(params, p, ns.eps, ns.reading)
    ladder = []
    for index in range(1, 2 * params.m + 1):
        for sign in ("+", "-"):
            residual = ladder_residual(params, p, ns.eps, index, sign, ns.reading)
            ladder.append({
                "generator": f"a{index}{sign}",
                "residual_zero": residual.is_zero,
                "residual_nnz": residual.nnz,
            })
    if ns.format == "json":
        payload = {
            "params": list(params.as_tuple()),
            "p": p,
            "reading": ns.reading,
            "spectrum": [
                {"eigenvalue": value.to_json(), "multiplicity": mult}
                for value, mult in pairs
            ],
            "ladder": ladder,
        }
        _emit(_json_text(payload), ns.output)
    elif ns.format == "csv":
        body = "eigenvalue,multiplicity\n" + "\n".join(
            f"{value.as_fraction()},{mult}" for value, mult in pairs
        ) + "\n"
        _emit(body, ns.output)
    else:
        lines = [f"{value}: {mult}" for value, mult in pairs]
        lines.append(f"ladder relations ({ns.reading} reading):")
        for entry in ladder:
            status = "ok" if entry["residual_zero"] else f"NONZERO ({entry['residual_nnz']} entries)"
            lines.append(f"  [H,{entry['generator']}] residual {status}")
        _emit("\n".join(lines) + "\n", ns.output)
    return 0


def _cmd_occupancy(ns: argparse.Namespace) -> int:
    p = _single_order(ns)
    report = occupancy_report(ns.params, p)
    if ns.format == "json":
        _emit(_json_text(report.to_json()), ns.output)
    else:
        lines = [
            f"dimension: {report.dimension}",
            f"max r:      {report.max_r}",
            f"max l:      {report.max_l}",
            f"max theta:  {report.max_theta}",
            f"max lambda: {report.max_lam}",
            f"max total:  {report.max_total} (order p={p})",
        ]
        _emit("\n".join(lines) + "\n", ns.output)
    return 0


def parse_and_run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return ns.func(ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory running {ns.command}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(parse_and_run(sys.argv[1:]))


if __name__ == "__main__":
    main()
