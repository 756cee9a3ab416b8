"""Test-run settings shared by every module."""

from hypothesis import settings

# Each property test draws the same examples on every run (seeded from the
# test function), so a tier-1 result never depends on the run or on examples
# saved by earlier runs.  Per-test max_examples and deadlines are unchanged.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
