"""Per-layer tracing, installed from outside the package.

``Tracer.install`` rebinds the public entry points of the zzsl modules to
wrappers, in every namespace that holds them (``from .fock import
ladder_operators`` makes ``statistics.ladder_operators`` a second binding),
and ``Tracer.uninstall`` puts every original back.  The package source is
not touched, and an untraced run never constructs a Tracer.

A span records name, start, end, parent span and operation id.  Spans stay
in memory; ``write_spans`` stores them when the run ends.  Self time is a
span's duration minus the time its child spans cover.  The RadicalSum
operators and ``graded_bracket`` are too hot for spans and are only counted.
"""

from __future__ import annotations

import functools
import gzip
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute path, span name); the span name is the layer metric prefix.
# fock.ladder_operators and statistics.spectrum report no metric of their own;
# their spans keep that work out of their callers' self time.
SPANNED = (
    ("zzsl.grading", "axiom_report", "grading.axiom_report"),
    ("zzsl.algebra", "verify_defining_relations", "algebra.defining_relations"),
    ("zzsl.fock", "enumerate_basis", "fock.basis"),
    ("zzsl.fock", "operator_matrix", "fock.construct"),
    ("zzsl.fock", "ladder_operators", "fock.ladder_operators"),
    ("zzsl.fock", "SparseOperator.to_json", "fock.to_json"),
    ("zzsl.fock", "verify_representation", "fock.verify_representation"),
    ("zzsl.fock", "spanning_rank", "fock.spanning"),
    ("zzsl.fock", "ft_variant_discrimination", "fock.discrimination"),
    ("zzsl.linalg", "RationalRowSpace.add", "linalg.rowspace_add"),
    ("zzsl.statistics", "relation_suite", "statistics.families"),
    ("zzsl.statistics", "hamiltonian", "statistics.hamiltonian"),
    ("zzsl.statistics", "ladder_residual", "statistics.ladder_residual"),
    ("zzsl.statistics", "spectrum", "statistics.spectrum"),
    ("zzsl.cli", "parse_and_run", "cli"),
)

# Counted without spans: (module, attribute path, counter name).
COUNTED = (
    ("zzsl.radicals", "RadicalSum.__mul__", "radicals.mul"),
    ("zzsl.radicals", "RadicalSum.__rmul__", "radicals.mul"),
    ("zzsl.radicals", "RadicalSum.__add__", "radicals.add"),
    ("zzsl.radicals", "RadicalSum.__radd__", "radicals.add"),
    ("zzsl.grading", "graded_bracket", "grading.bracket"),
)

MATMUL = ("zzsl.fock", "SparseOperator.__matmul__", "fock.matmul")

# Per-layer metric -> (workloads it must be nonzero on, end-to-end metrics it should move).
LAYER_TARGETS = {
    "grading.axiom_report.s": (("verify-cli",), "verdict_s.p50, checks_per_s on verify-cli"),
    "grading.bracket.count": (("verify-cli",), "verdict_s.p50, checks_per_s on verify-cli"),
    "algebra.defining_relations.s": (("verify-cli",), "verdict_s.p50 on verify-cli (small)"),
    "radicals.mul.count": (("fock-deep",), "verdict_s.*, checks_per_s on fock-deep"),
    "radicals.add.count": (("fock-deep",), "verdict_s.*, checks_per_s on fock-deep"),
    "fock.matmul.count": (("fock-deep",), "verdict_s.*, peak_rss_mb on fock-deep"),
    "fock.matmul.s": (("fock-deep",), "verdict_s.*, peak_rss_mb on fock-deep"),
    "fock.matmul.nnz_out": (("fock-deep",), "verdict_s.*, peak_rss_mb on fock-deep"),
    "fock.matmul.fresh_ratio": (("fock-deep", "verify-cli"), "verdict_s.p50 on fock-deep and verify-cli"),
    "fock.verify_representation.self_s": (("fock-deep",), "verdict_s.tail on fock-deep"),
    "fock.spanning.s": (("fock-deep",), "verdict_s.tail on fock-deep"),
    "fock.discrimination.s": (("fock-deep",), "verdict_s.tail on fock-deep"),
    "linalg.rowspace_add.count": (("fock-deep",), "verdict_s.tail on fock-deep"),
    "linalg.rowspace_add.s": (("fock-deep",), "verdict_s.tail on fock-deep"),
    "fock.basis.s": (("spectrum-export",), "ops_per_s on spectrum-export"),
    "fock.construct.s": (("spectrum-export",), "ops_per_s on spectrum-export"),
    "fock.to_json.s": (("spectrum-export",), "ops_per_s on spectrum-export"),
    "statistics.families.s": (("verify-cli", "fock-deep"), "verdict_s.p50 on verify-cli and fock-deep"),
    "statistics.hamiltonian.count": (("spectrum-export",), "verdict_s.p50 on spectrum-export"),
    "statistics.hamiltonian.s": (("spectrum-export",), "verdict_s.p50 on spectrum-export"),
    "statistics.ladder_residual.s": (("spectrum-export",), "verdict_s.p50 on spectrum-export"),
    "cli.self_s": (("spectrum-export",), "ops_per_s on spectrum-export"),
    "tracing.overhead_ratio": (("verify-cli", "fock-deep", "spectrum-export"), "none; tracing overhead"),
}


def zzsl_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "zzsl" or name.startswith("zzsl.")) and mod is not None]


def _resolve(module: str, path: str):
    """(owner, attribute, original) for "func" or "Class.method" in a module."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def binding_snapshot() -> dict[tuple[str, str], int]:
    """Identity of every module-level and class-level binding in zzsl."""
    snap: dict[tuple[str, str], int] = {}
    for mod in zzsl_modules():
        for name, value in vars(mod).items():
            snap[(mod.__name__, name)] = id(value)
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in vars(value).items():
                    snap[(f"{mod.__name__}.{name}", attr)] = id(member)
    return snap


def find_caches() -> dict[str, object]:
    """Every functools.lru_cache in the zzsl modules, found by scanning attributes."""
    caches: dict[int, tuple[str, object]] = {}
    for mod in zzsl_modules():
        for name, value in vars(mod).items():
            if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                caches.setdefault(id(value), (name, value))
    return dict(caches.values())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int, int]] = []
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.nnz_out = 0
        self.distinct_pairs = 0
        self.op_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._pairs: set[tuple[int, int]] = set()
        self._held: list[tuple] = []
        self._restore: list[tuple] = []

    # -------------------------------------------------------------- ops

    def start_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._pairs.clear()
        self._held.clear()

    def end_op(self) -> None:
        self.distinct_pairs += len(self._pairs)
        self._pairs.clear()
        self._held.clear()

    # --------------------------------------------------------- wrappers

    def _spanned(self, name: str, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.inclusive[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.counts[name] += 1
                if stack:
                    stack[-1][1] += duration
                tracer.spans.append((span_id, name, start, end, parent, tracer.op_id))
            if after is not None:
                after(args, result)
            return result

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def _after_matmul(self, args, result) -> None:
        self.nnz_out += result.nnz
        left, right = args
        key = (id(left), id(right))
        if key not in self._pairs:
            self._pairs.add(key)
            self._held.append((left, right))  # keeps ids from being reused

    def _rebind(self, module: str, path: str, wrapper_for) -> None:
        owner, attr, original = _resolve(module, path)
        wrapper = wrapper_for(original)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in zzsl_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, path, name in SPANNED:
            self._rebind(module, path, lambda fn, name=name: self._spanned(name, fn))
        for module, path, name in COUNTED:
            self._rebind(module, path, lambda fn, name=name: self._counted(name, fn))
        module, path, name = MATMUL
        self._rebind(module, path, lambda fn: self._spanned(name, fn, self._after_matmul))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # ---------------------------------------------------------- results

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced pass, as {name: (value, unit)}."""
        inc, own, cnt = self.inclusive, self.self_time, self.counts
        matmuls = cnt["fock.matmul"]
        values = {
            "grading.axiom_report.s": (inc["grading.axiom_report"], "s"),
            "grading.bracket.count": (cnt["grading.bracket"], "count"),
            "algebra.defining_relations.s": (inc["algebra.defining_relations"], "s"),
            "radicals.mul.count": (cnt["radicals.mul"], "count"),
            "radicals.add.count": (cnt["radicals.add"], "count"),
            "fock.matmul.count": (matmuls, "count"),
            "fock.matmul.s": (inc["fock.matmul"], "s"),
            "fock.matmul.nnz_out": (self.nnz_out, "count"),
            "fock.verify_representation.self_s": (own["fock.verify_representation"], "s"),
            "fock.spanning.s": (inc["fock.spanning"], "s"),
            "fock.discrimination.s": (inc["fock.discrimination"], "s"),
            "linalg.rowspace_add.count": (cnt["linalg.rowspace_add"], "count"),
            "linalg.rowspace_add.s": (inc["linalg.rowspace_add"], "s"),
            "fock.basis.s": (inc["fock.basis"], "s"),
            "fock.construct.s": (inc["fock.construct"], "s"),
            "fock.to_json.s": (inc["fock.to_json"], "s"),
            "statistics.families.s": (inc["statistics.families"], "s"),
            "statistics.hamiltonian.count": (cnt["statistics.hamiltonian"], "count"),
            "statistics.hamiltonian.s": (inc["statistics.hamiltonian"], "s"),
            "statistics.ladder_residual.s": (inc["statistics.ladder_residual"], "s"),
            "cli.self_s": (own["cli"], "s"),
        }
        out = {name: (value / passes, unit) for name, (value, unit) in values.items()}
        # A ratio is the same per pass and per run.
        out["fock.matmul.fresh_ratio"] = (self.distinct_pairs / matmuls if matmuls else 0.0, "ratio")
        return out

    def write_spans(self, path: Path) -> None:
        """Spans as tab-separated lines: name, start, end, parent span, operation."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write("id\tname\tstart\tend\tparent\top\n")
            for span_id, name, start, end, parent, op in sorted(self.spans):
                handle.write(f"{span_id}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")
