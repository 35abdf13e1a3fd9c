"""Pins for the four sweep statistics, direct and through the farm.

``measure_oblivious_over_placements``, ``measure_anonymous_success``,
``measure_degradation`` and the adversary's ``evaluate_plan`` each
return a dataclass.  The sha256 of its canonical JSON (``to_dict()``
when the class has one, else its fields) is pinned for every engine the
function offers, computed directly, through a cold farm store, and
again through the same store once it is warm (the warm run must add no
object).  Everything runs on the pure-Python fleet backend, so the
curve's ``backend`` label and every digest are the same with or
without NumPy.

A farm run, cold or warm, must give the direct digest.  Every instance
draws its seeded schedule and its fault rolls from its global index, so
the cut does not matter: at 7 samples in blocks of 3 the two workers
run [0, 1, 2], [3], [4, 5, 6] and the farm [0, 1, 2], [3, 4, 5], [6],
and both give the same seeded curve.
"""

from __future__ import annotations

import dataclasses
import hashlib
from pathlib import Path
from typing import Any, Callable, Dict, Optional

import pytest

from repro.adversary.plans import AdversaryPlan
from repro.adversary.search import EvalSettings, evaluate_plan
from repro.analysis.average_case import measure_oblivious_over_placements
from repro.analysis.degradation import measure_degradation
from repro.analysis.whp import measure_anonymous_success
from repro.farm.keys import canonical_json
from repro.faults.model import GroupDrop

Root = Optional[Path]


def _digest(value: Any) -> str:
    body = value.to_dict() if hasattr(value, "to_dict") else dataclasses.asdict(value)
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def _placements(**kwargs: Any) -> Callable[[Root], Any]:
    return lambda root: measure_oblivious_over_placements(
        6, 24, seed=3, farm_root=root, **kwargs
    )


def _whp(**kwargs: Any) -> Callable[[Root], Any]:
    return lambda root: measure_anonymous_success(
        3, 7, seed=6, backend="python", farm_root=root, **kwargs
    )


def _curve(kind: str, **kwargs: Any) -> Callable[[Root], Any]:
    options = dict(n=5, id_max=40, samples=12, seed=2, confidence=0.95)
    options.update(kwargs)
    return lambda root: measure_degradation(
        [0.0, 0.1], kind=kind, backend="python", farm_root=root, **options
    )


SETTINGS = EvalSettings(n=4, id_max=24, samples=12, block_size=8, backend="python")

CRASH_DROP = AdversaryPlan(
    anchor=1,
    trigger_value=2,
    crash=True,
    restart_after=1,
    drops=(GroupDrop(offset=1),),
)


def _plan(plan: AdversaryPlan) -> Callable[[Root], Any]:
    return lambda root: evaluate_plan(plan, SETTINGS, farm_root=root)


#: name -> (call taking the farm root or None, whether it has a farm path).
CASES: Dict[str, Any] = {
    "placements-fleet-p1": (_placements(fleet=True, backend="python"), True),
    "placements-fleet-p2": (
        _placements(fleet=True, backend="python", processes=2),
        True,
    ),
    "placements-batched-p1": (_placements(batched=True), False),
    "placements-batched-p2": (_placements(batched=True, processes=2), False),
    "placements-scalar-p1": (_placements(fleet=False), False),
    "placements-scalar-p2": (_placements(fleet=False, processes=2), False),
    "whp-fleet-wilson": (_whp(), True),
    "whp-fleet-clopper-pearson": (_whp(interval="clopper-pearson"), True),
    "whp-scalar": (_whp(fleet=False), False),
    "whp-scalar-clopper-pearson": (
        _whp(fleet=False, interval="clopper-pearson"),
        False,
    ),
    "whp-fleet-p2": (_whp(processes=2), True),
    "degradation-drop": (_curve("drop"), True),
    "degradation-duplicate": (_curve("duplicate"), True),
    "degradation-spurious": (_curve("spurious"), True),
    "degradation-crash": (_curve("crash"), True),
    "degradation-seeded": (
        _curve(
            "drop", samples=7, scheduler="seeded", block_size=2, processes=2
        ),
        True,
    ),
    "degradation-seeded-split": (
        _curve(
            "drop", samples=7, scheduler="seeded", block_size=3, processes=2
        ),
        True,
    ),
    "plan-trivial": (_plan(AdversaryPlan.trivial()), True),
    "plan-crash-drop": (_plan(CRASH_DROP), True),
}

DIRECT = {
    "placements-fleet-p1": "195cff8a013088171d20fb6385c7b14d560822e31462e2a648488fcec273752a",
    "placements-fleet-p2": "195cff8a013088171d20fb6385c7b14d560822e31462e2a648488fcec273752a",
    "placements-batched-p1": "195cff8a013088171d20fb6385c7b14d560822e31462e2a648488fcec273752a",
    "placements-batched-p2": "195cff8a013088171d20fb6385c7b14d560822e31462e2a648488fcec273752a",
    "placements-scalar-p1": "195cff8a013088171d20fb6385c7b14d560822e31462e2a648488fcec273752a",
    "placements-scalar-p2": "195cff8a013088171d20fb6385c7b14d560822e31462e2a648488fcec273752a",
    "whp-fleet-wilson": "ae9bd0df94f780dd6221df415c9e221ac929790ab5ab73456e12d048c22702ae",
    "whp-fleet-clopper-pearson": "55b9f9dba295082bca472f606db394f639b1135981a1a187459e1a6b54323d3f",
    "whp-scalar": "ae9bd0df94f780dd6221df415c9e221ac929790ab5ab73456e12d048c22702ae",
    "whp-scalar-clopper-pearson": "55b9f9dba295082bca472f606db394f639b1135981a1a187459e1a6b54323d3f",
    "whp-fleet-p2": "ae9bd0df94f780dd6221df415c9e221ac929790ab5ab73456e12d048c22702ae",
    "degradation-drop": "87888be83db3a6b17e285ecf43182739bffae058bddd7508d98dbe77fd039e83",
    "degradation-duplicate": "4bf013f540aa4c66dfdb2bada58b3c3e42f8da5c0f9c4f3d2b2bf29a3c3d895c",
    "degradation-spurious": "d2e2f9e453f61459aaf282f907248625315d3eeec5dfca16410dea806b892468",
    "degradation-crash": "c3b25c41360bffac41d26ca325866f2ebefcd62dc4cdb2558899d8ed999b5b06",
    "degradation-seeded": "42df67c4625270fcad64f903251adcc217be7f6c001c38afc062ba320ef7dc27",
    "degradation-seeded-split": "42df67c4625270fcad64f903251adcc217be7f6c001c38afc062ba320ef7dc27",
    "plan-trivial": "e3c981cc42ea1f7f5976d7f112066acaf5f0db4413f2693ea5b4defdb6d41b8b",
    "plan-crash-drop": "c240e273ab0ed76757b58e27dc22749020335c2a6dacecd2d81c0e2887a23448",
}


def test_every_farm_path_is_pinned():
    assert sorted(DIRECT) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_direct(name):
    call, _farm = CASES[name]
    assert _digest(call(None)) == DIRECT[name]


def _objects(root: Path) -> list:
    return sorted(str(path) for path in (root / "objects").rglob("*.json"))


@pytest.mark.parametrize(
    "name", sorted(name for name, (_, farm) in CASES.items() if farm)
)
def test_farm_cold_then_warm(name, tmp_path):
    call, _farm = CASES[name]
    cold = _digest(call(tmp_path))
    stored = _objects(tmp_path)
    warm = _digest(call(tmp_path))
    assert (cold, warm) == (DIRECT[name], DIRECT[name])
    assert stored and _objects(tmp_path) == stored
