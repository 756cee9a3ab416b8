"""Run one grid operation against zzsl's public API and check its output.

Each operation has two oracles.  The first is a digest of its output,
stored in ``expected.json`` and computed once from the seed commit; JSON
outputs are digested with their dict keys restricted to the key names the
seed printed, so later additive fields (timings, counters) do not change the
digest, while ``export`` output is byte-identical by contract and digested
whole.  The second is a set of independent checks written from the algebra
(check counts, closed-form dimensions, spectra, ladder residuals, variant
outcomes) that do not call the code under test.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from math import comb
from pathlib import Path

import zzsl
from zzsl import cli

from grids import FAMILIES

CORRECTED_VARIANT = "ft+->lambda,ft-->lambda"


@dataclass
class Outcome:
    """What one operation produced: exit code, parsed JSON and raw output bytes."""

    exit_code: int
    data: object
    raw: bytes


def execute(op: tuple, out_path: Path) -> Outcome:
    """Run one operation; this is the part the benchmark times."""
    kind, args = op
    if kind == "cli":
        code = cli.parse_and_run(list(args) + ["--output", str(out_path)])
        raw = out_path.read_bytes() if code == 0 else b""
        return Outcome(code, None, raw)
    params = zzsl.AlgebraParams(*args[0])
    p = args[1]
    if kind == "representation":
        data = zzsl.verify_representation(params, p).to_json()
    elif kind == "family":
        data = zzsl.relation_suite(args[2], params, p).to_json()
    elif kind == "discrimination":
        data = zzsl.ft_variant_discrimination(params, p).to_json()
    else:
        raise ValueError(f"unknown operation kind {kind!r}")
    raw = json.dumps(data).encode()
    return Outcome(0, data, raw)


def parse(outcome: Outcome) -> None:
    """Fill ``outcome.data`` from the CLI output file (outside the timed part)."""
    if outcome.data is None and outcome.raw:
        outcome.data = json.loads(outcome.raw)


# ------------------------------------------------------------------ digests


def restrict(obj, keys: frozenset):
    """Drop dict keys the seed never printed; index-like keys ("0", "12") stay."""
    if isinstance(obj, dict):
        return {k: restrict(v, keys) for k, v in obj.items() if k in keys or k.isdigit()}
    if isinstance(obj, list):
        return [restrict(v, keys) for v in obj]
    return obj


def key_names(obj, into: set) -> set:
    """Every non-index dict key in a JSON value."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            if not k.isdigit():
                into.add(k)
            key_names(v, into)
    elif isinstance(obj, list):
        for v in obj:
            key_names(v, into)
    return into


def digest(op: tuple, outcome: Outcome, keys: frozenset) -> str:
    if op[0] == "cli" and op[1][0] == "export":
        return hashlib.sha256(outcome.raw).hexdigest()
    text = json.dumps(restrict(outcome.data, keys), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ------------------------------------------------------- independent checks


def closed_form(params, p: int) -> int:
    """Dimension of the order-p module: k of n fermionic orbitals occupied,
    then at most p-k bosonic quanta over m orbitals."""
    m, n = params[0] + params[1], params[2] + params[3]
    return sum(comb(n, k) * comb(p - k + m, m) for k in range(min(n, p) + 1))


def family_checks(family: str, params) -> int:
    """Checked count of a statistics family: one per pair, two per triple."""
    m, n1, n2 = params[0] + params[1], params[2], params[3]
    n = n1 + n2
    return {
        "A-stat": m * m + 2 * m ** 3,
        "A1-f": n1 * n1 + 2 * n1 ** 3,
        "A1-ft": n2 * n2 + 2 * n2 ** 3,
        "MixA1": 2 * n1 * n2 * (1 + 2 * n),
        "MixA2": n1 * n1 * (1 + 2 * n2) + n2 * n2 * (1 + 2 * n1),
    }[family]


def representation_checks(K: int) -> dict[str, int]:
    """Checked count of each suite of ``verify_representation`` with K operators."""
    triples = K * K + 2 * K ** 3
    return {
        "relations-orthonormal": triples,
        "vacuum-orthonormal": K * K,
        "relations-unnormalized": triples,
        "vacuum-unnormalized": K * K,
        "adjointness": K,
        "spanning": 1,
    }


def _params_of(args: tuple) -> tuple[int, ...]:
    return tuple(int(v) for v in args[args.index("--params") + 1].split(","))


def _p_of(args: tuple) -> tuple[int, int]:
    text = args[args.index("--p") + 1]
    lo, _, hi = text.partition("..")
    return int(lo), int(hi or lo)


def _check_verify(args, data, problems) -> int:
    params = _params_of(args)
    lo, hi = _p_of(args)
    K = sum(params)
    N = K + 1
    expected = {"axioms": N ** 4 + N ** 6, "defining-relations": K * K + 2 * K ** 3}
    for p in range(lo, hi + 1):
        for label, count in representation_checks(K).items():
            expected[f"representation[p={p}].{label}"] = count
        for family in FAMILIES:
            expected[f"statistics[p={p}].{family}"] = family_checks(family, params)
    got = {s["name"]: s["checked"] for s in data["suites"]}
    if got != expected:
        problems.append(f"suite checked counts differ: {sorted(set(got.items()) ^ set(expected.items()))[:4]}")
    if any(s["failures"] for s in data["suites"]) or data["total_failures"] or not data["passed"]:
        problems.append("verify reported failures")
    return sum(got.values())


def _check_spectrum(args, data, problems) -> int:
    params = _params_of(args)
    p = _p_of(args)[0]
    reading = args[args.index("--reading") + 1]
    m = params[0] + params[1]
    total = sum(entry["multiplicity"] for entry in data["spectrum"])
    if total != closed_form(params, p):
        problems.append(f"multiplicities sum to {total}, dimension is {closed_form(params, p)}")
    zero = [entry["residual_zero"] for entry in data["ladder"]]
    if len(zero) != 4 * m:
        problems.append(f"{len(zero)} ladder entries, expected {4 * m}")
    if reading == "graded" and not all(zero):
        problems.append("graded-reading ladder residual nonzero")
    if reading == "literal" and all(zero):
        problems.append("every literal-reading ladder residual is zero")
    return len(zero)


def _check_export(args, data, problems) -> int:
    params = _params_of(args)
    p = _p_of(args)[0]
    dim = closed_form(params, p)
    if data["dimension"] != dim or len(data["basis"]) != dim:
        problems.append(f"export dimension {data['dimension']} != closed form {dim}")
    if len(data["operators"]) != 2 * sum(params):
        problems.append(f"{len(data['operators'])} operators, expected {2 * sum(params)}")
    if any(op["matrix"]["shape"] != [dim, dim] for op in data["operators"]):
        problems.append("operator matrix shape differs from the dimension")
    return 0


def _check_occupancy(args, data, problems) -> int:
    params = _params_of(args)
    p = _p_of(args)[0]
    want = {
        "dimension": closed_form(params, p),
        "max_r": [p] * params[0],
        "max_l": [p] * params[1],
        "max_theta": [1] * params[2],
        "max_lambda": [1] * params[3],
        "max_total": p,
    }
    for key, value in want.items():
        if data[key] != value:
            problems.append(f"occupancy {key} = {data[key]}, expected {value}")
    return 0


def _check_dim(args, data, problems) -> int:
    params = _params_of(args)
    lo, hi = _p_of(args)
    want = [{"p": p, "dimension": closed_form(params, p)} for p in range(lo, hi + 1)]
    if data != want:
        problems.append("dim rows differ from the closed form")
    return 0


def _check_representation(args, data, problems) -> int:
    got = {s["label"]: s["checked"] for s in data["suites"]}
    want = representation_checks(sum(args[0]))
    if got != want:
        problems.append(f"suite checked counts differ: {sorted(set(got.items()) ^ set(want.items()))[:4]}")
    if not data["passed"] or any(s["failures"] for s in data["suites"]):
        problems.append("representation reported failures")
    return sum(got.values())


def _check_family(args, data, problems) -> int:
    params, _p, family = args
    if data["label"] != family or data["checked"] != family_checks(family, params):
        problems.append(f"{family} checked {data['checked']}, expected {family_checks(family, params)}")
    if data["failures"]:
        problems.append(f"{family} reported failures")
    return data["checked"]


def _check_discrimination(args, data, problems) -> int:
    outcomes = {o["variant"]: o for o in data["outcomes"]}
    corrected = outcomes.pop(CORRECTED_VARIANT, None)
    if corrected is None or not corrected["passed"]:
        problems.append("lambda/lambda variant did not pass")
    theta = [o for label, o in outcomes.items() if "theta" in label]
    if len(theta) != 3 or len(outcomes) != 3:
        problems.append(f"expected three theta-slot variants, got {sorted(outcomes)}")
    if any(o["passed"] or o["relation_failure"] is None for o in theta):
        problems.append("a theta-slot variant passed or named no failing relation")
    return 0


_CHECKS = {
    "verify": _check_verify,
    "spectrum": _check_spectrum,
    "export": _check_export,
    "occupancy": _check_occupancy,
    "dim": _check_dim,
    "representation": _check_representation,
    "family": _check_family,
    "discrimination": _check_discrimination,
}


def check(op: tuple, outcome: Outcome, expected_digest: str | None, keys: frozenset) -> tuple[int, list[str]]:
    """Return (checked count reported by the program, problems found)."""
    kind, args = op
    problems: list[str] = []
    if outcome.exit_code != 0:
        return 0, [f"exit code {outcome.exit_code}"]
    name = args[0] if kind == "cli" else kind
    try:
        parse(outcome)
        checks = _CHECKS[name](args, outcome.data, problems)
    except (KeyError, TypeError, ValueError) as exc:
        return 0, [f"malformed output: {exc!r}"]
    if expected_digest is None:
        problems.append("no expected digest")
    elif digest(op, outcome, keys) != expected_digest:
        problems.append("output digest differs from the seed commit")
    return checks, problems
