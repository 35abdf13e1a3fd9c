"""Golden pins for the sampled checks: CLI bytes and farm shard payloads.

Each ``verify --statistical`` mode runs at a small size on the pure-Python
backend, and its stdout and exit code must match the pinned text byte for
byte.  The ``recovery``, ``ear`` and ``whp`` shard payloads are pinned by
the sha256 of their canonical JSON, so a store populated by an earlier
build keeps serving cache hits.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cli import main

#: mode -> (flags after ``verify --statistical --backend python``,
#: exit code, stdout).
GOLDEN = {
    "terminating": (
        "--samples 64 --n 6 --id-max 50 --block-size 16",
        0,
        """\
algorithm            : terminating
mode                 : statistical (sampled instances)
ring size n          : 6
id max               : 50
samples              : 64
backend / scheduler  : python / lockstep
seeds (ids, sched)   : 0, 0
invariant violations : 0
pass rate            : 1.000000 (99% CP interval [0.920548, 1.000000])
PASSED (sampled schedules)
""",
    ),
    "nonoriented": (
        "--algorithm nonoriented --samples 64 --n 6 --id-max 50 --block-size 16",
        0,
        """\
algorithm            : nonoriented
mode                 : statistical (sampled instances)
ring size n          : 6
id max               : 50
samples              : 64
backend / scheduler  : python / lockstep
seeds (ids, sched)   : 0, 0
invariant violations : 0
pass rate            : 1.000000 (99% CP interval [0.920548, 1.000000])
PASSED (sampled schedules)
""",
    ),
    "inject_drop": (
        "--samples 16 --n 8 --id-max 100 --block-size 8 --inject-drop 3,2,7",
        1,
        """\
algorithm            : terminating
mode                 : statistical (sampled instances)
ring size n          : 8
id max               : 100
samples              : 16
backend / scheduler  : python / lockstep
seeds (ids, sched)   : 0, 0
injected fault       : drop 1 cw pulse at round 3 toward node 2 in instance 7
invariant violations : 1
pass rate            : 0.937500 (99% CP interval [0.618641, 0.999687])
counterexample       : instance 7, round 3: CW conservation violated: sum(sigma)=115 != sum(rho)+sum(pend)+sum(flight)=114
  replay             : repro verify --statistical --backend python --n 8 --id-max 100 --block-size 8 --inject-drop 3,2,7 --samples 8
  replay reproduces  : yes
FAILED
""",
    ),
    "recovery": (
        "--recovery --inject-drop-rate 0.02 --inject-seed 3 --samples 32 --n 6 --id-max 60 --block-size 16",
        0,
        """\
algorithm            : terminating
mode                 : recovery (faulted runs, stable end state)
ring size n          : 6
id max               : 60
samples              : 32
backend / scheduler  : python / lockstep
seeds (ids, sched)   : 0, 0
fault model          : FaultModel(drop_rate=0.02, duplicate_rate=0.0, spurious_rate=0.0, seed=3, burst=None, drops=(), crashes=(), corruptions=(), crash_rate=0.0, groups=())
fault events applied : {'dropped': 37}
classification       : recovered=7 wrong_stable=0 stuck=25
recovery rate        : 0.218750 (99% CP interval [0.068039, 0.454963])
counterexample       : [stuck] instance 1: quiesced with nodes [0, 1, 2, 3, 4, 5] unterminated; first violated invariant: check_columns_conservation
  first invariant    : check_columns_conservation
  replay             : instance 1, ids [3, 53, 11, 20, 21, 60], seed 0, sched-seed 0
  replay reproduces  : yes
counterexample       : [stuck] instance 5: quiesced with nodes [0, 1, 2, 3, 4, 5] unterminated; first violated invariant: check_columns_conservation
  first invariant    : check_columns_conservation
  replay             : instance 5, ids [25, 56, 17, 23, 35, 48], seed 0, sched-seed 0
  replay reproduces  : yes
counterexample       : [stuck] instance 6: quiesced with nodes [0, 1, 2, 3, 4, 5] unterminated
  replay             : instance 6, ids [54, 4, 59, 40, 45, 34], seed 0, sched-seed 0
  replay reproduces  : yes
counterexample       : [stuck] instance 7: quiesced with nodes [0, 1, 2, 3, 4, 5] unterminated; first violated invariant: check_columns_conservation
  first invariant    : check_columns_conservation
  replay             : instance 7, ids [3, 54, 26, 36, 2, 8], seed 0, sched-seed 0
  replay reproduces  : yes
counterexample       : [stuck] instance 8: quiesced with nodes [0, 1, 2, 3, 4, 5] unterminated; first violated invariant: check_columns_conservation
  first invariant    : check_columns_conservation
  replay             : instance 8, ids [53, 39, 2, 29, 56, 52], seed 0, sched-seed 0
  replay reproduces  : yes
CLASSIFIED (every faulted run; counterexamples replayable)
""",
    ),
    "anonymous": (
        "--algorithm anonymous --n 5 --samples 8",
        0,
        """\
algorithm            : anonymous (Algorithm 4 -> Algorithm 3)
mode                 : Lemma 18 w.h.p. predicate
ring size n          : 5
sampler exponent c   : 2.0
attempts             : 8 (seeds 0..7)
backend              : python
success rate         : 7/8 = 0.875000 (99% CP interval [0.368483, 0.999374])
lemma 18 target      : 1 - n^-c = 0.960000
one-sided test       : CP upper bound 0.999374 >= target (holds: yes)
counterexample       : attempt seed 7: anonymous pipeline failed (no unique leader with consistent orientation)
  replay             : repro verify --statistical --algorithm anonymous --n 5 --c 2.0 --samples 1 --seed 7 --backend python
  replay reproduces  : yes
PASSED (Lemma 18 w.h.p. predicate)
""",
    ),
    "topology": (
        "--topology theta:0,1,2 --samples 24 --id-max 64 --block-size 8",
        0,
        """\
mode                 : statistical topology battery (ear election)
topology             : theta:0,1,2 (n=5, 6 edges)
virtual ring         : L=9 stride C=2
id max               : 64
samples              : 24
backend / scheduler  : python / lockstep
seeds (ids, sched)   : 0, 0
contract violations  : 0
pass rate            : 1.000000 (99% CP interval [0.801907, 1.000000])
PASSED (sampled topology battery)
""",
    ),
}


@pytest.mark.parametrize("mode", sorted(GOLDEN))
def test_cli_output_is_pinned(mode, capsys):
    flags, code, stdout = GOLDEN[mode]
    argv = ["verify", "--statistical", "--backend", "python", *flags.split()]
    assert main(argv) == code
    assert capsys.readouterr().out == stdout


def _recovery_params():
    from repro.farm.campaign import recovery_params
    from repro.faults.model import FaultModel

    return recovery_params(
        n=6, id_max=60, faults=FaultModel(drop_rate=0.02, seed=3)
    )


def _whp_params():
    from repro.farm.campaign import whp_params

    return whp_params(n=5, c=2.0, seed=0)


def _ear_params():
    from repro.farm.campaign import ear_params
    from repro.graphs.samples import theta_graph

    return ear_params(theta_graph(0, 1, 2), id_max=64)


#: workload -> (params factory, stop, sha256 of the canonical payload).
PAYLOADS = {
    "recovery": (
        _recovery_params,
        24,
        "0481ba5d093c3e1223215ddff8dc68487e5de1de4f568d7ea8ba0733a44b1d56",
    ),
    "whp": (
        _whp_params,
        16,
        "5fb81c8592c440f20912e0afb4321b9ecbac8082aab11c2bf0d4acac61eff402",
    ),
    "ear": (
        _ear_params,
        20,
        "90a9a7ead95b65fefb21bcd00b4582b0aa2b12c92e14a2060e7eb06d3d21d91c",
    ),
}


@pytest.mark.parametrize("workload", sorted(PAYLOADS))
def test_shard_payload_is_pinned(workload):
    from repro.farm.keys import canonical_json
    from repro.farm.workloads import run_shard

    params, stop, pinned = PAYLOADS[workload]
    payload = run_shard(workload, params(), 0, stop, backend="python", block_size=8)
    assert hashlib.sha256(canonical_json(payload).encode()).hexdigest() == pinned
