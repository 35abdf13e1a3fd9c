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
        "c3de5e592ada686d487d9783029d05fc35c1b948ac7bd07c2578b1fe4ed1d8bd",
    "warmup/seeded/corrupt_sigma_cw":
        "65d8237cdb66df15a084325bae1b94293927eedf2d5e718b087ac756d78406af",
    "warmup/seeded/crash_permanent":
        "0e7552652fd69dc5220dd6a78770f3140c172cbb2dbc2a7630aeb6b43b007076",
    "warmup/seeded/crash_rate":
        "11f4a935c32fcf31372a3108c29f89c8cab2d98484fd24898a5b052c6135dca1",
    "warmup/seeded/crash_restart":
        "02027a5e3d85155ad652c306688573babb422f1367aaa3680a9af5e190b91a29",
    "warmup/seeded/drop_cw":
        "6f8b6520e90b8e2070fe999e8eb4a90962893202b3624afd25509f2f17a15e3a",
    "warmup/seeded/group_at_round":
        "25b5efc378406b85832bc87b06d732ce2b55a30c077fb110d39f64f41b2f2d98",
    "warmup/seeded/group_threshold":
        "bef4fd06d0bbfb36f10926a6dbc2eb26d26b0126bfa3b9e0546bc5fae26fc182",
    "warmup/seeded/instance_targeted":
        "6855f6cd2ddba8771b55a947ec4aedcf60c6024ddf3025f6f0d58765578ca93c",
    "warmup/seeded/rates_burst":
        "3afe6ad3e91f33e1765d6620b6ee93bba8aebeac2ae16462e8fb3bde8ff8f001",
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
        "ebfd433da48a68e2f19c33996a8496f860407819ab6d9d6539e6020580750ec6",
    "terminating/seeded/corrupt_pending_cw":
        "df3abc78c112bcce8cd824407bc383ad763bf1212aa925e687783ccc5054faab",
    "terminating/seeded/corrupt_rho_ccw":
        "dc6d71a235f16d23390f330bc69a7f3c6c00539e7c96a10acbbc301a2497868c",
    "terminating/seeded/corrupt_rho_cw":
        "2c535769009ca892de3ea6f31aa4b7ce2b51297ab1e927af0f29cd83dfc1f472",
    "terminating/seeded/corrupt_sigma_ccw":
        "021197e22cb120b241a5da001370553bf7b3dce8479e8a18913a5656a8059cd3",
    "terminating/seeded/corrupt_sigma_cw":
        "ac49aa9ec96136ba761ebe94769bc78859121759f905eb1d094946047ce2acf8",
    "terminating/seeded/crash_permanent":
        "b5ba41de510b86345edf0c04b00457b261f36e74287cd4a18c57f59789e97501",
    "terminating/seeded/crash_rate":
        "b6525d7bb5b7f0cac8ed4b96743bc6d5f1c0fc9a6b565679ddc0f4ab99307197",
    "terminating/seeded/crash_restart":
        "26ca18cedfb725c51c6534ee7b5a0e5ec2e911bd610cb47b1cd74a613567358c",
    "terminating/seeded/drop_ccw":
        "b9ebbe1ab1f3c0005daaaa101098e2c528f1b7fb16d335f41579ce59bc79f700",
    "terminating/seeded/drop_cw":
        "1b765fc6795cd190220e16e7ae7b716f98fc6202f27768b1e145e2700318afea",
    "terminating/seeded/group_at_round":
        "1a053fb7f7ef0f7f56b5e9114f01572575e719cf5a96f2150915ad74521d357e",
    "terminating/seeded/group_threshold":
        "8918096275be18835a5fe67fadd402225e14685ae3545cfea935c595a17dbb22",
    "terminating/seeded/instance_targeted":
        "81d4558561939b45335bd4788819bbf55eb671d383b8c66d1b7d63a71ca3fc69",
    "terminating/seeded/rates_burst":
        "207e62c2241edafd74be7e3280f7420b0eb666082ffdaa966c2d2a7d9fe8ba90",
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
        "b0f957fa733fae7a00466cfcdba9f40c6e1b94367041381b6aca204ea8a5adda",
    "nonoriented/seeded/corrupt_rho_cw":
        "89e818f85948cc54a3d5fbf56469ae756ea7ee7cd6c9a0fc7630dcc195692a12",
    "nonoriented/seeded/corrupt_sigma_ccw":
        "71dc334d829261ab41bfe1c94a370a8705307df07eb93eca028a2874b88126d4",
    "nonoriented/seeded/corrupt_sigma_cw":
        "97dcde9b335b75f31df571d70c7741f645b194e3ab57239acadf976d89478148",
    "nonoriented/seeded/crash_permanent":
        "c5a08dc95445c0b59c61af01e5ab03c3a13b66d3c8765360ff9f7f6ab5705187",
    "nonoriented/seeded/crash_rate":
        "59f866d9f7669c7d286a031b8619db90caf5a0139f00de06fb85d4818abc298a",
    "nonoriented/seeded/crash_restart":
        "621334889ba8af0aeecde513beac37cf09880644d5800de9a530de2b1b1d307b",
    "nonoriented/seeded/drop_ccw":
        "acd5510cbe75c5cae5c31bc556538c8ac0a903d9dcd3696c6dbbf71a6454ca38",
    "nonoriented/seeded/drop_cw":
        "673b33819cd1efad4f57f357988f186fc26a4a3431d7efd12bb73cccb8ee0fe3",
    "nonoriented/seeded/group_at_round":
        "b476ac185040d9c016de1c6b3d520064038932574f40605b36593fcab8b58b9f",
    "nonoriented/seeded/group_threshold":
        "912ae461b8401cd8c2939c72a306ed5afdcca0e08d99f56080eaeb4e6c487dda",
    "nonoriented/seeded/instance_targeted":
        "66be9297efd46f3a62e76eaa91ccef0225aa1dc11cb079948b38210033d4043a",
    "nonoriented/seeded/rates_burst":
        "7ecaed969bfedce48988250eefab64ef18d6f61f525b4563fb399184be69a258",
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
