"""Acceptance gate: one test per registered check, generated from the
registry in icosian.checks, each printing a single pass/fail line (visible
with pytest -s or on failure).

Checks flagged known_defect in the registry are claims of the source
material that the exact computation contradicts; they run as strict
expected failures, so neither a silent fix nor a new defect goes unnoticed.
"""
import pytest

from icosian.checks import KNOWN_DEFECTS, REGISTRY


def test_known_defects_are_the_documented_two():
    assert KNOWN_DEFECTS == {"roots.tworefl", "orbits.order4"}


@pytest.mark.parametrize("check", [
    pytest.param(
        fn, id=fn.id,
        marks=pytest.mark.xfail(strict=True, reason=fn.claim)
        if fn.known_defect else (),
    )
    for fn in REGISTRY
])
def test_claim(check):
    r = check()
    print(f"{r.id}: {'PASS' if r.ok else 'FAIL'} (actual {r.actual})")
    assert r.ok, f"{r.id}: expected {r.expected}, actual {r.actual}"
