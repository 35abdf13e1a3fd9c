"""Pinned fault outcomes of the fleet fault compiler.

The differential tests compare the NumPy twin against the pure-Python
twin, so a slip both twins share goes unnoticed there.  This module pins
the sha256 of the canonical pure-Python :class:`FleetResult` for every
clause kind, on all three fleet runners and both schedulers, at a
non-zero ``instance_offset``; the NumPy backend must reproduce the same
digest.  A refactor of the compiler that changes any fault outcome —
which pulse a clause removes, which node restarts, which event is
counted — changes a digest here.

Pinned fields: ``leaders``, ``total_pulses``, the ``rho``/``sigma``
columns, ``unfinished`` and ``fault_events``.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.model import (
    FaultBurst,
    FaultGroup,
    FaultModel,
    GroupDrop,
    NodeCrash,
    PulseDrop,
    StateCorruption,
    corruptible_fields,
)
from repro.simulator.fleet import (
    HAVE_NUMPY,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
)

POOL = [[5, 9, 2, 7], [3, 1, 4, 2], [4, 3, 2, 6]]
FLIPS = [[True, False, False, True], [False, True, True, False],
         [False, False, True, True]]
OFFSET = 5
ALGORITHMS = ["warmup", "terminating", "nonoriented"]
SCHEDULERS = ["lockstep", "seeded"]
#: Travel directions each algorithm runs (the direction a PulseDrop may
#: name); Algorithm 1 is CW-only.
DIRECTIONS = {
    "warmup": ("cw",),
    "terminating": ("cw", "ccw"),
    "nonoriented": ("cw", "ccw"),
}


def _group_members(algorithm):
    return dict(
        crash=True,
        restart_after=2,
        drops=tuple(
            GroupDrop(offset=offset, node_offset=node_offset,
                      direction=direction, count=2)
            for direction in DIRECTIONS[algorithm]
            for offset, node_offset in ((0, 2), (2, 3))
        ),
        burst=FaultBurst(start=1, length=4),
    )


def _models(algorithm):
    """``{clause kind: FaultModel}`` covering every clause kind once."""
    models = {
        "rates_burst": FaultModel(
            drop_rate=0.2, duplicate_rate=0.1, spurious_rate=0.05, seed=11,
            burst=FaultBurst(start=2, length=6),
        ),
        "crash_permanent": FaultModel(crashes=(NodeCrash(node=1, at_round=2),)),
        "crash_restart": FaultModel(
            crashes=(NodeCrash(node=2, at_round=2, restart_after=3),)
        ),
        "crash_rate": FaultModel(crash_rate=0.3, seed=4),
        "group_at_round": FaultModel(
            drop_rate=0.3, seed=7,
            groups=(FaultGroup(anchor=1, at_round=2,
                               **_group_members(algorithm)),),
        ),
        "group_threshold": FaultModel(
            drop_rate=0.3, seed=7,
            groups=(FaultGroup(anchor=0, trigger_field="rho",
                               trigger_threshold=2,
                               **_group_members(algorithm)),),
        ),
        "instance_targeted": FaultModel(
            drops=(PulseDrop(round_index=2, node=0, instance=OFFSET + 1,
                             count=2),),
            crashes=(NodeCrash(node=3, at_round=3, restart_after=2,
                               instance=OFFSET + 2),),
            corruptions=(StateCorruption(node=1, at_round=2, value=1,
                                         instance=OFFSET),),
        ),
    }
    for direction in DIRECTIONS[algorithm]:
        models[f"drop_{direction}"] = FaultModel(
            drops=(
                PulseDrop(round_index=3, node=1, direction=direction, count=2),
                PulseDrop(round_index=4, node=1, direction=direction, count=2),
            )
        )
    for field in corruptible_fields(algorithm):
        models[f"corrupt_{field}"] = FaultModel(
            corruptions=(StateCorruption(node=1, at_round=2, field=field,
                                         value=3),)
        )
    return models


CASES = [
    (algorithm, scheduler, kind)
    for algorithm in ALGORITHMS
    for scheduler in SCHEDULERS
    for kind in sorted(_models(algorithm))
]


def _run(algorithm, scheduler, kind, backend):
    model = _models(algorithm)[kind]
    knobs = dict(backend=backend, scheduler=scheduler, seed=3,
                 instance_offset=OFFSET)
    if algorithm == "warmup":
        return run_warmup_fleet(POOL, faults=model, **knobs)
    if algorithm == "terminating":
        return run_terminating_fleet(POOL, faults=model, **knobs)
    return run_nonoriented_fleet(POOL, flip_lists=FLIPS, faults=model,
                                 **knobs)


def _canonical(result):
    return json.dumps(
        {
            "leaders": result.leaders,
            "total_pulses": result.total_pulses,
            "rho_cw": result.rho_cw,
            "rho_ccw": result.rho_ccw,
            "sigma_cw": result.sigma_cw,
            "sigma_ccw": result.sigma_ccw,
            "unfinished": result.unfinished,
            "fault_events": result.fault_events,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


def _digest(result):
    return hashlib.sha256(_canonical(result).encode()).hexdigest()


#: sha256 of the canonical pure-Python result, per matrix cell.
PINS = {
    "warmup/lockstep/corrupt_rho_cw":
        "6977cc7253c15a0774e0f23196952c604923271ad4094e04aed96ddaf8de135b",
    "warmup/lockstep/corrupt_sigma_cw":
        "3f7246d155095eca4c139b5daab6ab20f1129d575b21be75cc87a90a20924ed1",
    "warmup/lockstep/crash_permanent":
        "857c7045c85ebcff692c42888d72eb274d38d8773bdd9c89cfa09dfb255ea927",
    "warmup/lockstep/crash_rate":
        "11f4a935c32fcf31372a3108c29f89c8cab2d98484fd24898a5b052c6135dca1",
    "warmup/lockstep/crash_restart":
        "49fb531dce4f21080da6cd3468036fa1d7ea0fda45c18501c4f31d80ae4cd041",
    "warmup/lockstep/drop_cw":
        "7fbdfcc3661179ee819997bda932e93855c6f6265dee8c5566df80dc55f9a61c",
    "warmup/lockstep/group_at_round":
        "73306a313e25258199489613df1b25ae44957eff5eed96633a0aa44a34221fbc",
    "warmup/lockstep/group_threshold":
        "42fc3ba112e444210ebe24a3c6bc90d91de0d3a29daa804a0cb3f7cade124fb7",
    "warmup/lockstep/instance_targeted":
        "aa5de9659c7b510b5523a4212e5067a73cf73aefa1b0e4d875872f3286f80864",
    "warmup/lockstep/rates_burst":
        "ec1e6282f34d8b3aec11b7b0e1d8361394c2f0412c917d7e9aa338b4e5413591",
    "warmup/seeded/corrupt_rho_cw":
        "f3ecd6e6d90802239ade082d53f043cf5c28b465c077fd3b9286573f2e477a26",
    "warmup/seeded/corrupt_sigma_cw":
        "65d8237cdb66df15a084325bae1b94293927eedf2d5e718b087ac756d78406af",
    "warmup/seeded/crash_permanent":
        "ac99937e16b08ec4322a1058a6c8c16a59064932cdf3ded2ee58a5df560a853d",
    "warmup/seeded/crash_rate":
        "11f4a935c32fcf31372a3108c29f89c8cab2d98484fd24898a5b052c6135dca1",
    "warmup/seeded/crash_restart":
        "e7c232f04a7ce4a9809afe13a1d1e2f963fbd89e24cdc6e0004efb7b9231d871",
    "warmup/seeded/drop_cw":
        "8ed82735494b78226f54c752b15860690a88363f6bd58f933c6432597df3064d",
    "warmup/seeded/group_at_round":
        "7ba5eac1b7e18f4f1f1c98d30104d60b03eb3455c8ede4c13d97f0655dac7ae3",
    "warmup/seeded/group_threshold":
        "e2c42e7f052879c674070a7c7204d8b6035952471d60d11d70a729681e16f92f",
    "warmup/seeded/instance_targeted":
        "5e52fe5eb4da58edc3827016adf52dbb854f9dc24313a91ef264645f359cffbd",
    "warmup/seeded/rates_burst":
        "0d25656f3b47585f9a77fce55b99c66be3ac2f2d87086e0e590b282c0700a9dd",
    "terminating/lockstep/corrupt_pending_ccw":
        "bbbbf64bdd2b66c6cb59d8a970430ace46bdae075a38cf66db8bd3a6f5a457a8",
    "terminating/lockstep/corrupt_pending_cw":
        "0548c0c5786c3b4247bb2f3b0a11e60277aac2f28f807a9f1aee1863a6c6ea5f",
    "terminating/lockstep/corrupt_rho_ccw":
        "a9cf741a8f9fa5ccf9100a6f156950fb3f679221398fc9ea3c7bc016b3444fc2",
    "terminating/lockstep/corrupt_rho_cw":
        "35b9a111fe7e5875d80a02b40bb4e9c65270820a49370177ea993d5e7f0553df",
    "terminating/lockstep/corrupt_sigma_ccw":
        "c7f3c8b3d7a490bf4ee399ee0453a4ff3f263009ab235f8705dc71c6639b82ba",
    "terminating/lockstep/corrupt_sigma_cw":
        "6d2beb41d44c8241ef6524632210b5f68f5191ca63f9fec578358dc232ef7f6f",
    "terminating/lockstep/crash_permanent":
        "930422d71f64ff26bc53a6cf8dd40d3b1a5ea6000dd97e4a04e17042bb0c19cb",
    "terminating/lockstep/crash_rate":
        "b6525d7bb5b7f0cac8ed4b96743bc6d5f1c0fc9a6b565679ddc0f4ab99307197",
    "terminating/lockstep/crash_restart":
        "b268671e12faff30b0e2bb315faed68e65ef0589996daa09a91732ccf01d7f47",
    "terminating/lockstep/drop_ccw":
        "b9ebbe1ab1f3c0005daaaa101098e2c528f1b7fb16d335f41579ce59bc79f700",
    "terminating/lockstep/drop_cw":
        "f841e8b7de3269cbae8db084e601499323f20c8b122c6fc48ad7df82f6e03a4c",
    "terminating/lockstep/group_at_round":
        "edce0fae1bb74bf67fdc086e24587febe45b1fb4eec502a6f67feda28dc3b4a3",
    "terminating/lockstep/group_threshold":
        "727edc2879d936ba8db4cf0e4d9bab1562a1c7de7391a25419e84f317272f672",
    "terminating/lockstep/instance_targeted":
        "7c9e43c10858a2dc7d1e28c77f179dbd5df8df20397d03916dd9584345c18234",
    "terminating/lockstep/rates_burst":
        "5d0ea0b441cc37bbe6535836d40ae705a9d8ed1d42fada26da6546bdcadd8e45",
    "terminating/seeded/corrupt_pending_ccw":
        "eb8c0b06013bf334d7316075ad2595f69b1e40760db6f75f48a9d341899cad6a",
    "terminating/seeded/corrupt_pending_cw":
        "08a77de45e93f2c5e631cb03088cd76f025a61ff6f12f728ca90f83ece6a8093",
    "terminating/seeded/corrupt_rho_ccw":
        "7de3b1fa7c4d3c6ff118874508bc0e2dc65918b1d1e8a9a1988f52dfd1d66db2",
    "terminating/seeded/corrupt_rho_cw":
        "befc4769492f51a6ab584eef642bd2a371ba01e1b7c62d4e2d664b32e79af096",
    "terminating/seeded/corrupt_sigma_ccw":
        "c7f3c8b3d7a490bf4ee399ee0453a4ff3f263009ab235f8705dc71c6639b82ba",
    "terminating/seeded/corrupt_sigma_cw":
        "ac49aa9ec96136ba761ebe94769bc78859121759f905eb1d094946047ce2acf8",
    "terminating/seeded/crash_permanent":
        "976108701b828603c3e1ac42504e15319037e06d60a675e61b1463e64c13f10b",
    "terminating/seeded/crash_rate":
        "b6525d7bb5b7f0cac8ed4b96743bc6d5f1c0fc9a6b565679ddc0f4ab99307197",
    "terminating/seeded/crash_restart":
        "9f4df287e3c029e32256b0493be6a553224cdb85e54baf14068f57dd8abcba2d",
    "terminating/seeded/drop_ccw":
        "8ab96c4b3a739b463dba3e18958efa442c31e6093ea718ecb2ebdcdb2119aeff",
    "terminating/seeded/drop_cw":
        "15abe0867049b41f996f05e65e68135b6d9ec390f3ff77a4ca3a3c0e99236ca5",
    "terminating/seeded/group_at_round":
        "e2228edecf42b2bcbb6f902a5bed1df0a797f719779f8ae9b8f05857a47aab4b",
    "terminating/seeded/group_threshold":
        "35f559834cd03cf50a50629347aa56cd7751de872b1b0a0ec6222cf0fb86fc83",
    "terminating/seeded/instance_targeted":
        "62b497b7a720b6323429803868e4d0cdb718924bfa2907521cd76184f1545079",
    "terminating/seeded/rates_burst":
        "747164fce48c9100b7bfd277019ee8809777c2b99f8130f491d5a64a0a72f465",
    "nonoriented/lockstep/corrupt_rho_ccw":
        "aa25182cd3bdc7e4f2468ab1dddee7262a7e5f7d214f12ea98b7b5ce35bac463",
    "nonoriented/lockstep/corrupt_rho_cw":
        "9687183d08cb1de887f818a36a6ea856a64f1ca3bfd796956decefe3c3fb9e38",
    "nonoriented/lockstep/corrupt_sigma_ccw":
        "361c2042b62647c6d9cd81c358b38fb2464e88e075b42c2e9790e933c1a67cde",
    "nonoriented/lockstep/corrupt_sigma_cw":
        "f87ab1b498145a7383e0d4d6cc016b51f8d3389f17e69ec8ab0a4141f10ad716",
    "nonoriented/lockstep/crash_permanent":
        "ce70633d6eee36432748b627b168625056f47f998cfcd98dad87de2a370c099a",
    "nonoriented/lockstep/crash_rate":
        "59f866d9f7669c7d286a031b8619db90caf5a0139f00de06fb85d4818abc298a",
    "nonoriented/lockstep/crash_restart":
        "1547ea8320d905fde280a6c7a82fe1489e0b9fb3e5edfbeed76b54d86d299a7a",
    "nonoriented/lockstep/drop_ccw":
        "acd5510cbe75c5cae5c31bc556538c8ac0a903d9dcd3696c6dbbf71a6454ca38",
    "nonoriented/lockstep/drop_cw":
        "ae117256b28de205caab4b521ce1c8e27bc5b20bef97456b175613b057d97948",
    "nonoriented/lockstep/group_at_round":
        "be85a1ad0b8dd9e1dc184a3bc865e72fca3771ce871b1a9e83d6b4d2abf5e87b",
    "nonoriented/lockstep/group_threshold":
        "fe6adf12dd3a8f93e367013fa61ae6be9f89ad6b30454807c2f003c7d96b7126",
    "nonoriented/lockstep/instance_targeted":
        "14eb4b6e649ff30951cfe590aa44b4d1dfa39b272b6e8d9c443643f66e2d9143",
    "nonoriented/lockstep/rates_burst":
        "3d27fa353703fccd736f020f29cc7c38f496fa9a37a58ce7d80f1c2112aa2e99",
    "nonoriented/seeded/corrupt_rho_ccw":
        "83076853ef2c18dea17ac2aebb794c97b53f8afa085c4191a4fe46d186e96236",
    "nonoriented/seeded/corrupt_rho_cw":
        "baacb9ec37fdd2ea11f1f30664408e9c8fd5176b88ab7ddfc84cf7cb6e42008d",
    "nonoriented/seeded/corrupt_sigma_ccw":
        "71dc334d829261ab41bfe1c94a370a8705307df07eb93eca028a2874b88126d4",
    "nonoriented/seeded/corrupt_sigma_cw":
        "97dcde9b335b75f31df571d70c7741f645b194e3ab57239acadf976d89478148",
    "nonoriented/seeded/crash_permanent":
        "095c0f0a090a0e616a15502c2f517f712e9736974c41212d442681f315230a94",
    "nonoriented/seeded/crash_rate":
        "59f866d9f7669c7d286a031b8619db90caf5a0139f00de06fb85d4818abc298a",
    "nonoriented/seeded/crash_restart":
        "3655883e77d12f3560023e7b41ab72dfb69529afef444bc2d70d92248906c4e9",
    "nonoriented/seeded/drop_ccw":
        "0485317e6a76712f67e5c70f5ee2e10fb4ee12272cbbdbec8230c65f345f8925",
    "nonoriented/seeded/drop_cw":
        "36d291dab324a421a1672f7e99a2c237722351c86b12368e684956590df43bee",
    "nonoriented/seeded/group_at_round":
        "f6906dd97dace67253174c4bb43f1511791c4b4b456ab5c552c053c6f7700933",
    "nonoriented/seeded/group_threshold":
        "33dbb1a676e4d3a42745dc127f5e151cf2393cd6fed51ba942db69926ced6fb9",
    "nonoriented/seeded/instance_targeted":
        "fd280b3cde9e5cac14bc79777f508cdbcc59db335cc8560fd98dc1478fce2b6c",
    "nonoriented/seeded/rates_burst":
        "99f072016a997f5384996d3d8fc94c2386d8e8996b97497301d28300860fa11a",
}


def test_matrix_covers_every_pin():
    assert sorted(PINS) == sorted(f"{a}/{s}/{k}" for a, s, k in CASES)


@pytest.mark.parametrize("algorithm,scheduler,kind", CASES)
def test_python_outcome_pinned(algorithm, scheduler, kind):
    result = _run(algorithm, scheduler, kind, "python")
    assert _digest(result) == PINS[f"{algorithm}/{scheduler}/{kind}"]


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
@pytest.mark.parametrize("algorithm,scheduler,kind", CASES)
def test_numpy_outcome_pinned(algorithm, scheduler, kind):
    result = _run(algorithm, scheduler, kind, "numpy")
    assert _digest(result) == PINS[f"{algorithm}/{scheduler}/{kind}"]
