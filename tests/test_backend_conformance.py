"""Backend-conformance matrix: every backend is the same kernel.

One transition kernel per algorithm (:mod:`repro.core.kernels`) is the
single source of truth; the event-driven engine, its batched fast path
and the fleet (both lowerings, each under the ``lockstep`` and
``seeded`` schedules) are thin adapters.  These tests pin that claim
observably: for each algorithm and orientation, every backend must
produce *identical terminal schema fingerprints*
(:meth:`repro.core.schema.StateSchema.state_fingerprint`) and the
paper's *exact* pulse count (the kernel's ``pulse_bound``).  The
fleet's ``lockstep`` cells are the round-based witness: each round
delivers the whole round-start content of a lane's channels.

The fleet rows are reconstructed into per-node dicts and fingerprinted
through the very same schema — no backend gets its own comparison
logic.  The backend registry (:func:`repro.accel.resolve_backend`)
that picks the fleet row is pinned at the end of the file.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.core.common import LeaderState
from repro.core.kernels import nonoriented as nonoriented_kernel
from repro.core.kernels import terminating as terminating_kernel
from repro.core.kernels import warmup as warmup_kernel
from repro.core.nonoriented import IdScheme, run_nonoriented
from repro.core.terminating import run_terminating
from repro.core.warmup import run_warmup
from repro.accel import BACKEND_CHOICES, resolve_backend
from repro.exceptions import ConfigurationError
from repro.simulator.fleet import (
    HAVE_NUMPY,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
)

from strategies import flipped_rings, unique_id_lists

FLEET_BACKENDS = ["python"] + (["numpy"] if HAVE_NUMPY else [])
SCHEDULERS = ["lockstep", "seeded"]

INSTANCES = [
    [2, 1],
    [5, 9, 2, 7],
    [3, 1, 4, 2, 9, 6],
    [1, 2, 3, 4, 5],
    [7, 6, 5, 4, 3, 2],
]


# -- per-backend runners: each returns (fingerprints, total_pulses) ---------


def _terminating_engine(ids, batched):
    outcome = run_terminating(ids, batched=batched)
    prints = [
        terminating_kernel.SCHEMA.state_fingerprint(node)
        for node in outcome.nodes
    ]
    return prints, outcome.total_pulses


def _terminating_fleet(ids, backend, scheduler):
    result = run_terminating_fleet([ids], backend=backend, scheduler=scheduler)
    prints = [
        terminating_kernel.SCHEMA.fleet_fingerprint(
            {
                "node_id": ids[v],
                "strict_lag": True,
                "rho_cw": result.rho_cw[0][v],
                "sigma_cw": result.sigma_cw[0][v],
                "rho_ccw": result.rho_ccw[0][v],
                "sigma_ccw": result.sigma_ccw[0][v],
                "state": result.states[0][v],
                "term_pulse_sent": result.term_pulse_sent[0][v],
            }
        )
        for v in range(len(ids))
    ]
    return prints, result.total_pulses[0]


def _warmup_engine(ids, batched):
    outcome = run_warmup(ids, batched=batched)
    prints = [
        warmup_kernel.SCHEMA.state_fingerprint(node) for node in outcome.nodes
    ]
    return prints, outcome.total_pulses


def _warmup_fleet(ids, backend, scheduler):
    result = run_warmup_fleet([ids], backend=backend, scheduler=scheduler)
    prints = [
        warmup_kernel.SCHEMA.fleet_fingerprint(
            {
                "node_id": ids[v],
                "rho_cw": result.rho_cw[0][v],
                "sigma_cw": result.sigma_cw[0][v],
                "rho_ccw": 0,
                "sigma_ccw": 0,
                "state": result.states[0][v],
            }
        )
        for v in range(len(ids))
    ]
    return prints, result.total_pulses[0]


def _nonoriented_engine(ids, flips, scheme, batched):
    outcome = run_nonoriented(ids, flips=flips, scheme=scheme, batched=batched)
    prints = [
        nonoriented_kernel.SCHEMA.state_fingerprint(node)
        for node in outcome.nodes
    ]
    return prints, outcome.run.total_sent


# -- the matrix --------------------------------------------------------------


@pytest.mark.parametrize("ids", INSTANCES, ids=str)
def test_terminating_all_backends_agree(ids):
    reference, total = _terminating_engine(ids, batched=False)
    assert total == terminating_kernel.pulse_bound(ids)

    observed = {"engine-batched": _terminating_engine(ids, batched=True)}
    for backend in FLEET_BACKENDS:
        for scheduler in SCHEDULERS:
            observed[f"fleet-{backend}-{scheduler}"] = _terminating_fleet(
                ids, backend, scheduler
            )

    for label, (prints, sent) in observed.items():
        assert prints == reference, f"{label}: fingerprints diverge"
        assert sent == total, f"{label}: pulse count diverges"


@pytest.mark.parametrize("ids", INSTANCES, ids=str)
def test_warmup_all_backends_agree(ids):
    reference, total = _warmup_engine(ids, batched=False)
    assert total == warmup_kernel.pulse_bound(ids)

    observed = {"engine-batched": _warmup_engine(ids, batched=True)}
    for backend in FLEET_BACKENDS:
        for scheduler in SCHEDULERS:
            observed[f"fleet-{backend}-{scheduler}"] = _warmup_fleet(
                ids, backend, scheduler
            )

    for label, (prints, sent) in observed.items():
        assert prints == reference, f"{label}: fingerprints diverge"
        assert sent == total, f"{label}: pulse count diverges"


@pytest.mark.parametrize("scheme", [IdScheme.SUCCESSOR, IdScheme.DOUBLED])
@pytest.mark.parametrize(
    "ids,flips",
    [
        ([2, 1], [False, True]),
        ([5, 9, 2, 7], [True, False, True, False]),
        ([3, 1, 4, 2], [False, False, False, False]),
        ([4, 3, 2, 1], [True, True, True, True]),
    ],
    ids=str,
)
def test_nonoriented_all_backends_agree(ids, flips, scheme):
    reference, total = _nonoriented_engine(ids, flips, scheme, batched=False)
    assert total == nonoriented_kernel.pulse_bound(ids, scheme)

    batched, batched_total = _nonoriented_engine(ids, flips, scheme, batched=True)
    assert batched == reference
    assert batched_total == total

    # The fleet lowers Algorithm 3 to two directional warm-up kernels, so
    # it exposes outcome rows rather than per-port counters; compare every
    # schedule-invariant observable it reports.
    for backend in FLEET_BACKENDS:
        for scheduler in SCHEDULERS:
            result = run_nonoriented_fleet(
                [ids],
                flip_lists=[flips],
                scheme=scheme,
                backend=backend,
                scheduler=scheduler,
            )
            label = f"fleet-{backend}-{scheduler}"
            assert result.states[0] == [
                print_[-2] for print_ in reference
            ], f"{label}: states diverge"
            assert result.cw_port_labels[0] == [
                print_[-1] for print_ in reference
            ], f"{label}: port labels diverge"
            assert result.total_pulses[0] == total, f"{label}: pulses diverge"


@settings(max_examples=25, deadline=None)
@given(ids=unique_id_lists(min_size=2, max_size=6, max_id=14))
def test_terminating_conformance_hypothesis(ids):
    reference, total = _terminating_engine(ids, batched=False)
    assert total == terminating_kernel.pulse_bound(ids)
    for backend in FLEET_BACKENDS:
        assert _terminating_fleet(ids, backend, "lockstep") == (
            reference,
            total,
        )


@settings(max_examples=25, deadline=None)
@given(ring=flipped_rings(min_size=2, max_size=5, max_id=10))
def test_nonoriented_conformance_hypothesis(ring):
    ids, flips = ring
    reference, total = _nonoriented_engine(
        ids, flips, IdScheme.SUCCESSOR, batched=False
    )
    assert _nonoriented_engine(ids, flips, IdScheme.SUCCESSOR, batched=True) == (
        reference,
        total,
    )


@pytest.mark.parametrize("backend", FLEET_BACKENDS)
def test_terminating_lockstep_outputs_are_leader_states(backend):
    ids = [5, 9, 2, 7]
    result = run_terminating_fleet([ids], backend=backend, scheduler="lockstep")
    assert result.terminated[0] == [True] * len(ids)
    assert [state is LeaderState.LEADER for state in result.states[0]] == [
        node_id == max(ids) for node_id in ids
    ]


# -- the backend registry ----------------------------------------------------

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestBackendRegistry:
    def test_auto_matches_availability(self):
        assert resolve_backend("auto") == ("numpy" if HAVE_NUMPY else "python")

    def test_unknown_backend_lists_choices(self):
        assert BACKEND_CHOICES == ("auto", "numpy", "python")
        with pytest.raises(ConfigurationError, match="auto, numpy, python"):
            resolve_backend("gpu")

    def test_numpy_pin_without_numpy_names_perf_extra(self, monkeypatch):
        import repro.accel

        monkeypatch.setattr(repro.accel, "HAVE_NUMPY", False)
        with pytest.raises(ConfigurationError, match=r"\[perf\]"):
            resolve_backend("numpy")
        assert resolve_backend("auto") == "python"

    def test_auto_resolution_has_no_side_effects(self):
        """A fresh process running the ``auto`` fleet leaves the
        environment and the checkout alone: no ``NUMBA_CACHE_DIR`` is
        pinned and nothing appears under ``build/``."""
        build = REPO_ROOT / "build"
        before = sorted(build.rglob("*")) if build.exists() else None
        script = textwrap.dedent(
            """
            import os

            from repro.simulator.fleet import run_terminating_fleet

            result = run_terminating_fleet([[3, 1, 2]], backend="auto")
            assert result.leaders == [[0]], result.leaders
            print(os.environ.get("NUMBA_CACHE_DIR"))
            """
        )
        env = {k: v for k, v in os.environ.items() if k != "NUMBA_CACHE_DIR"}
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "None"
        after = sorted(build.rglob("*")) if build.exists() else None
        assert after == before
