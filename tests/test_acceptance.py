"""Every advertised guarantee, exercised end to end at full scale.

One test per battery criterion, sharing a single context so expensive
builds and Monte Carlo grids are reused exactly as `geoshift battery`
would.  Run with ``pytest -v tests/test_acceptance.py`` to see one
pass/fail line per criterion (add ``-s`` for the printed checklist).
"""

import pytest

from geoshift.battery import (
    CRITERION_COUNT,
    PROFILES,
    BatteryContext,
    run_criterion,
)
from geoshift.battery import _NAMES  # criterion names, for readable test ids


@pytest.fixture(scope="module")
def ctx():
    return BatteryContext(seed=0, profile=PROFILES["full"])


@pytest.mark.parametrize(
    "index",
    range(1, CRITERION_COUNT + 1),
    ids=[f"{i:02d}-{_NAMES[i][0]}" for i in range(1, CRITERION_COUNT + 1)],
)
def test_criterion(index, ctx):
    res = run_criterion(index, ctx)
    status = "PASS" if res.passed else "FAIL"
    print(f"[{index:2d}] {status}  {res.name}: {res.check}")
    assert res.passed, res.details


@pytest.mark.parametrize("index", (7, 8))
def test_growth_criteria_draw_no_sample(index, monkeypatch):
    import geoshift

    def refuse(*args, **kwargs):
        raise AssertionError("a sphere sample was drawn")

    for mod in (geoshift, *(getattr(geoshift, name) for name in
                            ("automaton", "battery", "dimension",
                             "distortion"))):
        monkeypatch.setattr(mod, "sample_uniform_sphere", refuse,
                            raising=False)
    res = run_criterion(index, BatteryContext(seed=0,
                                              profile=PROFILES["full"]))
    assert res.passed, res.details
