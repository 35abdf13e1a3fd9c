"""Pinned fault-free outcomes of the fleet runners, per backend.

The differential tests compare the NumPy twin against the pure-Python
twin on the schedule-invariant fields only, and the fault pins
(``test_fleet_fault_pins.py``) leave out the batching diagnostics and
have no fault-free cell.  This module pins the sha256 of two things per
cell:

* the full canonical :class:`FleetResult` — every dataclass field,
  including ``rounds``, ``lap_skips``, ``ignored_deliveries``,
  ``states``, ``terminated``, ``term_pulse_sent``, ``cw_port_labels``
  and ``orientation_consistent``;
* the observer stream — every :class:`FleetRoundView` field of every
  view, columns converted to lists, in call order.

``rounds`` and ``lap_skips`` count the same block-wide steps on both
backends (``test_fleet_differential.py`` compares them), but the
``backend`` field differs, and the observer sees one instance per view
on pure Python and the whole block on NumPy, so each backend has its
own pins.  The lockstep
pool has IDs up to 10^4 on ``n = 8`` rings, so whole-lap skips and
Algorithm 2's hop-skips fire; the seeded scheduler never skips and runs
``O(IDmax)`` rounds, so its pool keeps the IDs small.  Warmup and
nonoriented cells add a duplicate-ID row (Lemma 16; the Theorem 3
pipeline's ``require_unique_ids=False``).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.graphs.samples import theta_graph
from repro.simulator.fleet import (
    HAVE_NUMPY,
    run_anonymous_fleet,
    run_ear_fleet,
    run_nonoriented_fleet,
    run_terminating_fleet,
    run_warmup_fleet,
)

LOCKSTEP_POOL = [
    [2202, 9326, 1034, 4180, 1932, 8118, 7365, 7738],
    [6220, 3440, 1538, 7994, 465, 6387, 7091, 9953],
    [35, 7298, 4364, 3749, 9686, 1675, 5201, 502],
]
SEEDED_POOL = [
    [22, 53, 10, 41, 19, 48, 36, 7],
    [31, 4, 15, 59, 46, 28, 11, 38],
]
#: Appended for the runners that accept duplicate IDs.
DUPLICATE_ROW = {
    "lockstep": [4180, 9326, 1034, 9326, 77, 4180, 2, 9326],
    "seeded": [41, 53, 10, 53, 7, 41, 2, 53],
}
FLIPS = [True, False, False, True, True, False, True, False]
ALGORITHMS = ["warmup", "terminating", "nonoriented"]
SCHEDULERS = ["lockstep", "seeded"]
BACKENDS = ["python", "numpy"]
OFFSETS = [0, 5]

CELLS = [
    (algorithm, scheduler, backend, offset)
    for algorithm in ALGORITHMS
    for scheduler in SCHEDULERS
    for backend in BACKENDS
    for offset in OFFSETS
]


def _needs_numpy(backend):
    return pytest.mark.skipif(
        backend == "numpy" and not HAVE_NUMPY, reason="numpy not installed"
    )


def _params(cells):
    return [
        pytest.param(*cell, id="/".join(map(str, cell)), marks=_needs_numpy(cell[2]))
        for cell in cells
    ]


def _plain(value):
    """JSON-ready copy: arrays become lists, enums their names."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    return value


def _sha(payload):
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(result):
    """Every dataclass field of a fleet result, recursively."""
    return {
        field.name: (
            _canonical(getattr(result, field.name))
            if dataclasses.is_dataclass(getattr(result, field.name))
            else _plain(getattr(result, field.name))
        )
        for field in dataclasses.fields(result)
    }


class _StreamDigest:
    """Observer hashing every view as it arrives (the NumPy twin hands
    out live columns that later rounds overwrite)."""

    def __init__(self):
        self.sha = hashlib.sha256()
        self.views = 0

    def __call__(self, view):
        self.views += 1
        self.sha.update(_sha(_canonical(view)).encode())

    def hexdigest(self):
        return self.sha.hexdigest()


def _run(algorithm, scheduler, backend, offset, observer):
    pool = LOCKSTEP_POOL if scheduler == "lockstep" else SEEDED_POOL
    knobs = dict(
        backend=backend, scheduler=scheduler, seed=3, observer=observer,
        instance_offset=offset,
    )
    if algorithm == "terminating":
        return run_terminating_fleet(pool, **knobs)
    pool = pool + [DUPLICATE_ROW[scheduler]]
    if algorithm == "warmup":
        return run_warmup_fleet(pool, **knobs)
    flips = [FLIPS[b:] + FLIPS[:b] for b in range(len(pool))]
    return run_nonoriented_fleet(
        pool, flip_lists=flips, require_unique_ids=False, **knobs
    )


def _digests(algorithm, scheduler, backend, offset):
    stream = _StreamDigest()
    result = _run(algorithm, scheduler, backend, offset, stream)
    assert stream.views > 0
    return _sha(_canonical(result)), stream.hexdigest()


def _ear_digests(backend):
    graph = theta_graph()
    ids = [
        [11, 4, 9, 1, 7, 3, 12, 5],
        [2, 8, 6, 10, 1, 12, 3, 9],
        [9600, 8, 4100, 27, 355, 7250, 6, 1302],
    ]
    stream = _StreamDigest()
    result = run_ear_fleet(graph, ids, backend=backend, observer=stream,
                           instance_offset=2)
    payload = {
        "virtual": _canonical(result.virtual),
        "leaders": result.leaders,
        "port_rho": result.port_rho,
        "port_sigma": result.port_sigma,
    }
    return _sha(payload), stream.hexdigest()


def _anonymous_digest(backend):
    result = run_anonymous_fleet(8, seeds=list(range(6)), c=1.5, backend=backend)
    return _sha(_canonical(result))


#: (result sha256, observer-stream sha256) per cell.
PINS = {
    "warmup/lockstep/python/0": (
        "f4d53c6a241a7790a82f54fcf4863e8af4475ac210566fe64cd2a42a4118b3f5",
        "60c669bcae606491d8a7b955768ac06fab019dab3f0be83c34a05d02ce8b720d",
    ),
    "warmup/lockstep/python/5": (
        "f4d53c6a241a7790a82f54fcf4863e8af4475ac210566fe64cd2a42a4118b3f5",
        "74516d52aaf84385209d9a3ec922c8bdef11d729ac2601d5ae3595c4c5dd01b7",
    ),
    "warmup/lockstep/numpy/0": (
        "264083984cb0267a5001af99b85e124c1098dded5ae05ab234ec410c5eec8c4b",
        "b11aede53d0f92db7cb23a13c5a6732a8b8255e8cce981e0610d3eca8cc671cd",
    ),
    "warmup/lockstep/numpy/5": (
        "264083984cb0267a5001af99b85e124c1098dded5ae05ab234ec410c5eec8c4b",
        "eaafe8241ba63980968fcfe6edf8a8284d9e1b59b77c35656e30617891bb48d7",
    ),
    "warmup/seeded/python/0": (
        "62d334b9ba59c836debfbeca12653b8190a01031b9f3540199e6f09fea1d376f",
        "cefc0e0f31f58ded6a38b148f0d89552064f20629f05136d4dab345e8a7e83bb",
    ),
    "warmup/seeded/python/5": (
        "6c9cd6942775c028ac622bd1f1737a8431f27e3e221040186c125c3f377dc17d",
        "ecf023a989be748c9a5c6dd284aa1289e30e229b9baa0bc93a82472519d8c076",
    ),
    "warmup/seeded/numpy/0": (
        "f146c2f5553ea4581f7bd052c31fccae086abf0fa4aebdd40344333a1deff7a8",
        "3a632c7d9415fde09b179f03d4c26b2b7b34136d642f235f6335318a59805671",
    ),
    "warmup/seeded/numpy/5": (
        "f1574e10339e9a62493412da1b02fd4b0910bcf1b7294e5be5d0c948258f7082",
        "d7e96d8c6033a5ec1d664987ea86df4201f2d8ee81500978f8154e48a2b6b791",
    ),
    "terminating/lockstep/python/0": (
        "1f2da6516f2ee0c3fa8d6ac55041b2eccbfc2cff08105fbc85b324c02323c632",
        "55ea30cbf22b9347e3135b467001a499eeba1069a218e9663ac7b8ec27f69448",
    ),
    "terminating/lockstep/python/5": (
        "1f2da6516f2ee0c3fa8d6ac55041b2eccbfc2cff08105fbc85b324c02323c632",
        "fcb71a2e939d8ee8f0d02e9a9447d13ee3abcaafd6b6c941ddd85507800d1cc2",
    ),
    "terminating/lockstep/numpy/0": (
        "ed6d3faf313a082f1596c2821e24473bb536622ee470e817d05b3c54e743cd1a",
        "eeba283bb7a5e343f6ab397901449d383464bebfbbac63e9fe89e61e7ad98c18",
    ),
    "terminating/lockstep/numpy/5": (
        "ed6d3faf313a082f1596c2821e24473bb536622ee470e817d05b3c54e743cd1a",
        "93fad2b8c84229643f719dfb2da37d4f979e6079dba249ccc3e47acc3f22186b",
    ),
    "terminating/seeded/python/0": (
        "35a0a0c8b722403fdbcaffd905584ac4baf885c429f42afecbea8e0683b56f89",
        "cd82621c940d0c03a0d1c2b57069f770c8801985cddd228d9cee192a0d0284bb",
    ),
    "terminating/seeded/python/5": (
        "14db4c02c715513987ee0d700e75ec37db4a70757eccec7e909bc65340da11da",
        "689471cd744b4365c71a8b06d364278efa300cd206d7aacff779f7eed530efc6",
    ),
    "terminating/seeded/numpy/0": (
        "e3eda46a1719b0e5e07c97f093ce13bf5612b0f4ea61c38440bd75c239b1aa3a",
        "dffa6eb86caad0bf17b036aadc592d42d6764c32dadebf7a1ba9e1c189836796",
    ),
    "terminating/seeded/numpy/5": (
        "45d6fad972efdf73bf66052deae7697323b89f13828c8bb193c85932733a3131",
        "eb2599d80b21d169da8597eff65c0bac25f4504e5c6b4d1c40cd756cd0823d27",
    ),
    "nonoriented/lockstep/python/0": (
        "e1e069739bb1e2313fdbe8f77a5ccb9904bb0baf38ed2bb66a7157e8d21b8131",
        "b0cdae2a41377fd1af3a732ec9954ed462ade4a0d15ab78bf460fb281337a56e",
    ),
    "nonoriented/lockstep/python/5": (
        "e1e069739bb1e2313fdbe8f77a5ccb9904bb0baf38ed2bb66a7157e8d21b8131",
        "5c56da54291fa5af6a254e25b4fbdbdaec5faeb0d0f31cc6163659648ee9679c",
    ),
    "nonoriented/lockstep/numpy/0": (
        "ddd80d670cee44e5d846460cdc1d2afec74ffb08822d90af0545fdeae702a9c1",
        "e56f47acc44f4126aa22dd481931c229eb8389568caf9da3618ee34f6c1a4965",
    ),
    "nonoriented/lockstep/numpy/5": (
        "ddd80d670cee44e5d846460cdc1d2afec74ffb08822d90af0545fdeae702a9c1",
        "c764e2f5bc098961fb27f45ac168f5318882a07ca0b71e1b61a371196ef21d17",
    ),
    "nonoriented/seeded/python/0": (
        "6653adf8ba4cc995811bea929ced98a4476afd8aedbcecba7a49fd27f15fe0cf",
        "4f2ec17be9b55a08d1e3439d3ae6fa4129e19a817c6c5c1c820ec6dd456e98a0",
    ),
    "nonoriented/seeded/python/5": (
        "ec83bbd9daa8ebf732232194ce2ee55064028fd9eb0799ca52aac118d2c4bfd9",
        "37a78d9113e772cce1675ed00f5a580bddbf9a7601d43be9ec0c8f3439876b0e",
    ),
    "nonoriented/seeded/numpy/0": (
        "b1f763bcf85f594cf1ae2f03d75081c67182ce70f924b8ceb79185d8b2aac1aa",
        "3131345529e2abcbf46d870af44fc826debb5e3fd3f9af275cc99475c6ea3e38",
    ),
    "nonoriented/seeded/numpy/5": (
        "7db125e429d6611166c55db59c111a18b1fbe1533eb4bd5e9e884bdb43ead631",
        "5620cd75a43092d1394c6eb28c2b4ecf2bd5450328937cb805fdb5d676cdf594",
    ),
}

#: The same pair for one theta-graph ``run_ear_fleet`` per backend.
EAR_PINS = {
    "python": (
        "efc99170be011978c85ccc01977e5140f2f80d712d7d70792095be8c670b3e96",
        "0d7ab1a7c645a3869b3e62ebfb1d7250d42ecb34072897f8392043b8d5108e6a",
    ),
    "numpy": (
        "ddf6b577e1cf35f638a1e382bd84394b04a24e6e6b699755cda421231b018677",
        "343eb6152edfc4d8aa61ca47b76c0d51e513b607c5f7ea59451386b4a8423b1a",
    ),
}

#: Result sha256 of one ``run_anonymous_fleet`` per backend.
ANONYMOUS_PINS = {
    "python": "14dfac3ca676b34fa3eaf7d8e82e504774ec095356b758d3e1d3ef7c3dee1906",
    "numpy": "be8140f76549fff21e473a6ee397ba6d800c422f9fcb8232e438e6dffa54dc2a",
}


def test_matrix_covers_every_pin():
    assert sorted(PINS) == sorted("/".join(map(str, cell)) for cell in CELLS)
    assert sorted(EAR_PINS) == sorted(ANONYMOUS_PINS) == sorted(BACKENDS)


@pytest.mark.parametrize("algorithm,scheduler,backend,offset", _params(CELLS))
def test_fleet_pinned(algorithm, scheduler, backend, offset):
    key = f"{algorithm}/{scheduler}/{backend}/{offset}"
    assert _digests(algorithm, scheduler, backend, offset) == PINS[key]


@pytest.mark.parametrize(
    "backend", [pytest.param(b, marks=_needs_numpy(b)) for b in BACKENDS]
)
def test_ear_fleet_pinned(backend):
    assert _ear_digests(backend) == EAR_PINS[backend]


@pytest.mark.parametrize(
    "backend", [pytest.param(b, marks=_needs_numpy(b)) for b in BACKENDS]
)
def test_anonymous_fleet_pinned(backend):
    assert _anonymous_digest(backend) == ANONYMOUS_PINS[backend]


@pytest.mark.parametrize(
    "backend", [pytest.param(b, marks=_needs_numpy(b)) for b in BACKENDS]
)
def test_lockstep_pool_exercises_the_skips(backend):
    """The lockstep cells are only worth pinning if the skip paths run."""
    warmup = _run("warmup", "lockstep", backend, 0, None)
    terminating = _run("terminating", "lockstep", backend, 0, None)
    assert warmup.lap_skips > 0
    assert terminating.lap_skips > 0
