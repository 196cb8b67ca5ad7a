"""Suites pinned byte for byte, and the search effort behind them.

Each digest is the SHA-256 of ``io.suite_to_csv`` output.  A refactor of the
formulation, the solver or the decoder must leave every one unchanged; a
change that means to alter suites updates them and says why.  The same holds
for the node totals of the step and cover searches on the pinned instances:
a refactor can keep every suite and still change how hard the searches work.
"""

import hashlib

import numpy as np
import pytest

from paircover import bench, greedy, io
from paircover.core import ConstraintSet, PartialAssignment
from paircover.greedy import greedy_suite
from paircover.interactions import InteractionUniverse
from paircover.pipeline import PipelineConfig, run_pipeline

PIPELINE_DIGESTS = {
    ("bbu-5g", True): "1a2708cd10e3a572f08177f00a2dcdf4f8391639d5667407e10d718e5d946960",
    ("ca-3^3", True): "350f8ad58f093800326a7ceee80612f24a51704894e0e90c272df3a1564a8a73",
    ("ca-3^4", True): "518e4b6d1617a767edb3f898dd9dd86d12e1503f9b29ba3937f6d51de9a41ff3",
    ("rand-11", True): "5e800a3cf5de58aaea5fa78d890cfd0f61bac6eb9081c37ce1d8626011faf0a6",
    ("rand-14", True): "fbddd516574f2346bb2556be0de5e5e1da2e30b05df26e91fcab4d9052a502b5",
    ("rand-23", True): "c6a787163cb995696c0103676e6eacacaba47839f7a7bd3eabcb54e21642bb4a",
    ("bbu-5g", False): "1a2708cd10e3a572f08177f00a2dcdf4f8391639d5667407e10d718e5d946960",
    ("ca-3^3", False): "350f8ad58f093800326a7ceee80612f24a51704894e0e90c272df3a1564a8a73",
    ("ca-3^4", False): "518e4b6d1617a767edb3f898dd9dd86d12e1503f9b29ba3937f6d51de9a41ff3",
    ("rand-11", False): "5e800a3cf5de58aaea5fa78d890cfd0f61bac6eb9081c37ce1d8626011faf0a6",
    ("rand-14", False): "7859537afe720d57a6cf7481e6aaffb4bad94612c54d59d2c2662da16acb141e",
    ("rand-23", False): "c6a787163cb995696c0103676e6eacacaba47839f7a7bd3eabcb54e21642bb4a",
}

GREEDY_DIGESTS = [
    "9602eb284735ab31ca42479d0d2baf2ed3f63f54076266c84f03854a424751fd",
    "5ed750fa08aa5beed47474d71bd42954f3e1b2eaf4c24ad309ef83e642efff7c",
    "992c932e57c21f13392781ded79bbe77e76b9c8ba323489fb8ee3948ab631cf2",
    "0a642477a51a0b8636603eecade676dfc8e2ffbdb65f389302dd930d9f3ec271",
    "25b4d0b5d33cd3be1c733ff09f981b60661f2042e824ed5a80fed95f1dcaa7a9",
    "192bbf80c08c345b9b923460708e4597292c83d5b0cbc80019dc7bc3263aca43",
    "5d4be9b5ad56f2a9298d9b33503a0dd003656cb24ed80ee4ba9d55054940f909",
    "bd6a2d217acf92cc4aaf62b8c190128e2a7938b9cad3aa33bcdf7fd74dde4634",
    "126b913e13ebcc2edee056e580c5841846596d488f6d3efad9c2b55bcb73d778",
    "239825f150650093c0cd66d7c27e594dd997b5bfcd7c7c05f9dee037bd711538",
    "bdbf4d461bb2997d2ec7a4bad870b6c77f6dd4023ac81a77c2368e0b36bba865",
    "a881bee53cd6a97145f4bd66cf220d19faf7e2b89323cfa961420cd41de880c9",
    "a21b55c3592a8806e893d7bcbcf368234ca68d6ffb47c12358a0b0ccde064655",
    "1330004a95340ff93f430212d65b42423402fdfd71e7b28954a171e95689a9a6",
    "3f8f33cc444f1705fee7f2e15d2f839ef8ea14e4b66bdd3f2b96c8c9527c4da3",
    "bfc0c56e0b21676e1e5bcf024e1efd1d2ce17d053df3a1d2c85d18cf8d4717fb",
    "403ed939ce0e85b21b0b0fe6a56ce6bae6c5df493757c42211ae8f8a58b01799",
    "5a13feb33a34ceb6f9de04138dd0f9d67c039d7dd9bdebc6ba8aa83ddb33bf4e",
    "aa3cefd29416830ac817ceeb5f682c36bc51ae890e804a1bbc72beede653c9bc",
    "3cdeb75230e0548a7800ea9a6261415e1787ce706e67686430e07618fa43d611",
    "baddef80a5695f72e9079c739022a086427e0dfd10acb39c01e5861ee3aa252e",
    "b1b1b9649ee619d0d8beeb5ad4d07e44a505901b1698d21f225cdde4a26e4fc7",
    "762427929cbbbc1c01cebfe01818292f77315e29d683ed11b6062a28fa325f75",
    "74bf2f2f147703de1011488dbc8645328d8d991642c6eaccb72ab834a5f0486a",
    "9037b79a0caa0e3fd2d4f9149d23bafbc18a2af151fefe4b945b4c91741c90e6",
    # _wide_instance(s) for s in WIDE_SEEDS
    "50360761e7fa4c4a63e1c3e9ef01211237f638b11bb2475dfb3445f6482c7c8b",
    "f3b96113b9a53aa80af4fabb37b725b87b487cdeee8a036cd6ac30abf1f6e1b9",
    "f87c4a099ee6cc3ca878a18751ff467b57c91fedd9f2daa443327a262995b1ad",
]
# greedy_suite(*_wide_instance(s), seed=k): tie rotations other than seed 0's
WIDE_ROTATION_DIGESTS = {
    (4, 1): "a88072f7b68cabd2b217d8ac2a78c08da541ce692b27773aae67f2769bb5b456",
    (10, 1): "d5acca2a627229211259171222b9e0788d50e74f36f2ef71440312f935e2e9ef",
    (13, 1): "1de8580ccd85bd6f404df7688cad22a19198962a956e7787a529cd4769b77b30",
    (4, 2): "2ed35e132080b581a3ea4e652e18a1e67075dc3eb973b28c5f1faafb6f496671",
    (10, 2): "41053374f51f333864d2fdc47fef22833f276a91d20796a557a6f9542110aa2f",
    (13, 2): "29cabe06110cedb61ec58b75e3f7ff0a52d13a34586424926a94f3fec0009309",
}
# Over classic_instances() plus random_instance seeds 0-24, run_pipeline
# with its defaults: step nodes summed over report.steps, cover nodes from
# report.cover.
PINNED_STEP_NODES = 73_003
PINNED_COVER_NODES = 821
# Over classic_instances(), random_instance seeds 0-24 and WIDE_SEEDS,
# greedy_suite at seed 0 on a prebuilt universe: ConstraintSet.completes_avoid
# calls, the forward checks' included (78,284 before the walk skipped dead
# subtrees).
PINNED_GREEDY_AVOID_CHECKS = 29_720

# Wide models on which the greedy walk falls back to ``_progress_case``,
# which no random_instance seed reaches.
WIDE_SEEDS = (4, 10, 13)


def _digest(suite):
    return hashlib.sha256(io.suite_to_csv(suite).encode()).hexdigest()


def _instance(name):
    if name.startswith("rand-"):
        return bench.random_instance(int(name[len("rand-") :]))
    return bench.classic_instances()[name]


def _wide_instance(seed):
    """12-16 factors, dense two-pick avoids, and a dead level: F0=v2 is
    avoided with both levels of F3."""
    rng = np.random.default_rng(seed)
    n = 12 + seed % 5
    cards = [3, 3, 3, 2] + [int(c) for c in rng.integers(2, 5, size=n - 4)]
    system = bench.make_system(cards)
    trap = (PartialAssignment(((0, 2), (3, 0))), PartialAssignment(((0, 2), (3, 1))))
    return system, ConstraintSet(avoid=bench.random_avoids(system, rng, 5 * n // 2) + trap)


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
def test_pipeline_suites(weighted):
    got = {}
    for (name, w) in PIPELINE_DIGESTS:
        if w == weighted:
            system, cs = _instance(name)
            suite, _ = run_pipeline(system, cs, config=PipelineConfig(weighted=weighted))
            got[(name, w)] = _digest(suite)
    assert got == {k: v for k, v in PIPELINE_DIGESTS.items() if k[1] == weighted}


def test_greedy_suites(monkeypatch):
    instances = [bench.random_instance(s) for s in range(25)]
    instances += [_wide_instance(s) for s in WIDE_SEEDS]
    progress = greedy._progress_case
    calls = []

    def counted(*args):
        calls.append(len(got))  # the index of the instance being built
        return progress(*args)

    monkeypatch.setattr(greedy, "_progress_case", counted)
    got = []
    for system, cs in instances:
        got.append(_digest(greedy_suite(system, cs, seed=0)))
    assert got == GREEDY_DIGESTS
    assert set(range(25, len(instances))) <= set(calls)


def test_greedy_rotation_seeds():
    got = {(s, k): _digest(greedy_suite(*_wide_instance(s), seed=k)) for s, k in WIDE_ROTATION_DIGESTS}
    assert got == WIDE_ROTATION_DIGESTS


def test_pinned_search_effort():
    instances = list(bench.classic_instances().values())
    instances += [bench.random_instance(s) for s in range(25)]
    step = cover = 0
    for system, cs in instances:
        _, report = run_pipeline(system, cs)
        step += sum(st["nodes"] for st in report.steps)
        cover += report.cover["nodes"]
    assert (step, cover) == (PINNED_STEP_NODES, PINNED_COVER_NODES)


def _avoid_checks(monkeypatch, system, cs, seed=0):
    """How many avoid checks ``greedy_suite`` makes, its universe prebuilt."""
    universe = InteractionUniverse(system, cs)
    check = ConstraintSet.completes_avoid
    calls = []

    def counted(self, *args):
        calls.append(None)
        return check(self, *args)

    with monkeypatch.context() as m:
        m.setattr(ConstraintSet, "completes_avoid", counted)
        greedy_suite(system, cs, universe=universe, seed=seed)
    return len(calls)


def test_pinned_greedy_effort(monkeypatch):
    instances = list(bench.classic_instances().values())
    instances += [bench.random_instance(s) for s in range(25)]
    instances += [_wide_instance(s) for s in WIDE_SEEDS]
    total = sum(_avoid_checks(monkeypatch, *model) for model in instances)
    assert total == PINNED_GREEDY_AVOID_CHECKS


def test_greedy_walk_skips_a_dead_level(monkeypatch):
    # greedy-wide's trap shape: F0=v2 is avoided with both levels of F8,
    # seven three-level factors later.  A walk that enters F0=v2 and backs
    # out only at F8 makes 2,779-2,791 avoid checks at seeds 0 and 4; one
    # that never tries the dead level makes 216-245 at each seed 0-4
    system = bench.make_system([3] * 8 + [2, 2, 3, 4])
    trap = (PartialAssignment(((0, 2), (8, 0))), PartialAssignment(((0, 2), (8, 1))))
    for seed in range(5):
        assert _avoid_checks(monkeypatch, system, ConstraintSet(avoid=trap), seed) <= 300
