"""The benchmark's tracer (``bench/tracing.py``) wraps modsym's functions
by (owner, attribute) and stops at the first one it cannot find, so a
renamed or removed function must show up here, in the test suite."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, str(BENCH))
    try:
        import tracing
    finally:
        sys.path.remove(str(BENCH))
    return tracing


@pytest.mark.parametrize("targets", ["full_targets", "cli_targets"])
def test_every_traced_target_resolves_to_a_callable(tracing, targets):
    listed = getattr(tracing, targets)()
    assert listed
    missing = [(getattr(owner, "__name__", owner), attr) for owner, attr, _, _ in listed
               if not callable(getattr(owner, attr, None))]
    assert missing == []
