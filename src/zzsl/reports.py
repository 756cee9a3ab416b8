"""Structured pass/fail reports with stable JSON renderings.

Verifiers record failures as data instead of aborting, so a report can be
inspected, exported, and used to compare candidate formula variants.
"""

from __future__ import annotations

from typing import Any

# The reports are reached through the verifiers that return them; none is a
# package export.
__all__ = []


def _plain(value: Any) -> Any:
    """``value`` as JSON data: tuples become lists, reports their ``to_json()``."""
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value.to_json() if hasattr(value, "to_json") else value


class _Report:
    """A report whose JSON object holds the attributes named in ``_keys``, in order."""

    _keys: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {key: _plain(getattr(self, key)) for key in self._keys}


class CheckFailure(_Report):
    _keys = ("identity", "indices", "residual")

    def __init__(self, identity: str, indices: tuple[int, ...], residual: Any = None) -> None:
        self.identity = identity
        self.indices = indices
        self.residual = residual


class AxiomReport(_Report):
    """Outcome of the bracket-axiom sweep over a full matrix-unit basis."""

    _keys = ("params", "pairs_checked", "triples_checked", "failures")

    def __init__(
        self,
        params: tuple[int, int, int, int],
        pairs_checked: int,
        triples_checked: int,
        failures: list[CheckFailure] | None = None,
    ) -> None:
        self.params = params
        self.pairs_checked = pairs_checked
        self.triples_checked = triples_checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures


class RelationFailure:
    def __init__(self, relation: str, indices: tuple[int, ...], residual: Any = None) -> None:
        self.relation = relation
        self.indices = indices
        self.residual = residual

    def to_json(self) -> dict:
        out: dict[str, Any] = {"relation": self.relation}
        for name, value in zip(("i", "j", "k"), self.indices):
            out[name] = value
        out["residual"] = self.residual
        return out


class RelationReport(_Report):
    _keys = ("params", "label", "checked", "vacuous", "failures")

    def __init__(
        self,
        params: tuple[int, int, int, int],
        label: str,
        checked: int,
        failures: list[RelationFailure] | None = None,
    ) -> None:
        self.params = params
        self.label = label
        self.checked = checked
        self.failures = [] if failures is None else failures

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def vacuous(self) -> bool:
        return self.checked == 0


class RepresentationReport(_Report):
    """Bundle of suites: triple relations, vacuum conditions, adjointness, spanning."""

    _keys = ("params", "p", "variant", "passed", "suites")

    def __init__(
        self, params: tuple[int, int, int, int], p: int, variant: str, suites: list[RelationReport]
    ) -> None:
        self.params = params
        self.p = p
        self.variant = variant
        self.suites = suites

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.suites)

    def suite(self, label: str) -> RelationReport:
        for s in self.suites:
            if s.label == label:
                return s
        raise KeyError(label)

    @property
    def first_relation_failure(self) -> tuple[str, RelationFailure] | None:
        """First failing triple-relation instance, if any suite has one."""
        for s in self.suites:
            if s.label.startswith("relations"):
                for f in s.failures:
                    if f.relation.startswith("rel"):
                        return s.label, f
        return None


class VariantOutcome(_Report):
    _keys = ("variant", "passed", "relation_failure")

    def __init__(self, variant: str, passed: bool, relation_failure: dict | None = None) -> None:
        self.variant = variant
        self.passed = passed
        self.relation_failure = relation_failure


class DiscriminationReport(_Report):
    """Verification outcome for each slot variant of the f-tilde action rules."""

    _keys = ("params", "p", "corrected_only_passes", "outcomes")

    def __init__(
        self, params: tuple[int, int, int, int], p: int, outcomes: list[VariantOutcome]
    ) -> None:
        self.params = params
        self.p = p
        self.outcomes = outcomes

    def outcome(self, variant_label: str) -> VariantOutcome:
        for o in self.outcomes:
            if o.variant == variant_label:
                return o
        raise KeyError(variant_label)

    @property
    def corrected_only_passes(self) -> bool:
        flags = [o.passed for o in self.outcomes]
        return flags[0] and not any(flags[1:])


class OccupancyReport(_Report):
    _keys = ("params", "p", "dimension", "max_r", "max_l", "max_theta", "max_lambda", "max_total")

    def __init__(
        self,
        params: tuple[int, int, int, int],
        p: int,
        dimension: int,
        max_r: list[int],
        max_l: list[int],
        max_theta: list[int],
        max_lambda: list[int],
        max_total: int,
    ) -> None:
        self.params = params
        self.p = p
        self.dimension = dimension
        self.max_r = max_r
        self.max_l = max_l
        self.max_theta = max_theta
        self.max_lambda = max_lambda
        self.max_total = max_total
