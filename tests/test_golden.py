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

from paircover import bench, greedy, interactions, io
from paircover.core import ConstraintSet, PartialAssignment, TestSuite
from paircover.greedy import greedy_suite
from paircover.interactions import CoverageState, InteractionUniverse, verify_suite
from paircover.pipeline import PipelineConfig, minimize_suite, run_pipeline

from conftest import uniform_weights

# (instance, weighted): the False entries run with every pair weighing 1
# (``uniform_weights``)
PIPELINE_DIGESTS = {
    ("bbu-5g", True): "1a2708cd10e3a572f08177f00a2dcdf4f8391639d5667407e10d718e5d946960",
    ("ca-3^3", True): "350f8ad58f093800326a7ceee80612f24a51704894e0e90c272df3a1564a8a73",
    ("ca-3^4", True): "518e4b6d1617a767edb3f898dd9dd86d12e1503f9b29ba3937f6d51de9a41ff3",
    ("rand-11", True): "5e800a3cf5de58aaea5fa78d890cfd0f61bac6eb9081c37ce1d8626011faf0a6",
    ("rand-14", True): "fbddd516574f2346bb2556be0de5e5e1da2e30b05df26e91fcab4d9052a502b5",
    ("rand-23", True): "c6a787163cb995696c0103676e6eacacaba47839f7a7bd3eabcb54e21642bb4a",
    ("mca-5.3^8.2^2", True): "76b8192e48c1d394d3c315867d6496161a648e9eabe180ed3d6fb34212ac3ebe",
    ("mca-6.4^2.3^3.2^2", True): "9b6d80128eeb246fdcb72ec478d446e2e98cfb5b6ccb9ff0f4a2d91bbeaed356",
    ("mca-10..2", True): "db9226599688c7dd03546809b00ab52fff4cc263db377965279457f91cd08fe7",
    ("rand-0", True): "7d23e43714db507bb1bc7c4ed80993d2278d447afbf6c467658d09cd34d3665f",
    ("rand-1", True): "ddd14abe7650e2ee5ce5272efb8680af5caead3b77c607c3e33dcffb050f4a8e",
    ("rand-2", True): "eb426c738d105032d65a2fcb558d809199858d164df4e7e66a8a6c13a07df622",
    ("rand-3", True): "6a2465990a81e582e51b9e9fb8db708ed02da079ccef4bcd2b03bbc0f3e1af9d",
    ("rand-4", True): "a5e440a63fb6658e79310dc473a9ecd23d13130aed37def29453bc9c1f991883",
    ("rand-5", True): "77776aa681140c6cab261d3ea2e8b0a76944dd7ea13a19b6f0146ef0134c6e46",
    ("rand-6", True): "567a0f033844ce0cba2ddaf3c3e9c479066dc91f49512b4bca3c20926fd9edfc",
    ("rand-7", True): "fd035e55c49df05d9ec4a0c547c249a74cca4aa7a77e4ea3e642fba898d01bde",
    ("rand-8", True): "31bf79870b7f391f677999f5a2e73223c15d266146e8c11ba33bb681130dfdc2",
    ("rand-9", True): "984c8810165c6ce6ba2236801f6f4b7b18f902de474c578ec9393955c14e520b",
    ("rand-10", True): "311d910448f59738df73df8ad2d0390a73ce450ff10c0280a23a8f49b44379f4",
    ("rand-12", True): "8b70a2342222e622fa8979c4c5a0bdb2ece8fcab05767ef8c5edd1111e2840bf",
    ("rand-13", True): "feac638889cbebe5e1c666ee87bc489419d04dda234d79c887a11d326ad93054",
    ("rand-15", True): "f745d6199849c4f4d4fee0b723668565c53dae4a924512e30a6556f46adc19c9",
    ("rand-16", True): "1f9a9549e2547592f5653ee0b82183e6962865680731c0ddee00d4a2e04bc9d5",
    ("rand-17", True): "58de7e84b33cba21b8c74e6eaf14589d81b4711e9afd806266e28b9bc26f4f16",
    ("rand-18", True): "7b915faee5dd05ff8f9f1b0a0009b03860f49c2432e4853be960789c993ea2fb",
    ("rand-19", True): "589905a49c51278963c476d8627c1204dcd8d38fede51eda1d72c1d4f0f63e88",
    ("rand-20", True): "e6264e7e5b5e0952a2c5466e845712e978a8ca0d6f2384dda1e7ac5ba245c966",
    ("rand-21", True): "922df22bb26361a0ac83f19cb57d52e81eb104548b62e9901fa64e1bfe38b3e3",
    ("rand-22", True): "ebbfaa71082fd1f52ae78af7d2323647ecbbfc4b1aa0efd935230453ea0043e3",
    ("rand-24", True): "9a65016be9e1d10ae06fc9e56118ac53cf0af2d19b35651826691ce9c1e4f114",
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
# greedy_suite(InteractionUniverse(*_wide_instance(s)), seed=k): tie rotations other than seed 0's
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
# report.cover (821 before the cover search kept the sole carriers and
# reduced the cover first).
PINNED_STEP_NODES = 73_003
PINNED_COVER_NODES = 31
# Over the same runs' 790 steps: last_improved_node and root_bound summed,
# so a search that visits the same nodes but reports other incumbents or
# bounds shows.
PINNED_STEP_LAST_IMPROVED = 56_455
PINNED_STEP_ROOT_BOUNDS = 188_122
# run_pipeline at step_time_limit=0.0 on zero_limit_model(): 73 of its 106
# steps stop at 1,024 nodes holding a case worth nothing and fall back to
# the first uncovered pair's witness; the cover keeps 98 cases.
ZERO_LIMIT_SIZE = 98
ZERO_LIMIT_DIGEST = "b5b3140c22dc57500f62e7012ed0b7419df72559759c000ee44d99aecf894ca8"
# Over random_instance seeds 0-24, minimize_suite on greedy_suite at seed 0
# joined with greedy_suite at seed 1: cover nodes summed, and the SHA-256 of
# the minimized suites' CSVs in seed order (1,244 rows in, 607 kept).  The
# reductions settle nearly every pipeline cover, so this is where the cover
# search does its work.
PINNED_JOINED_COVER_NODES = 49_953
JOINED_MINIMIZED_DIGEST = "076ed07108ac6ecee1595ea43995f192a78fc8658c02c28790345a67a5c0fd81"
# Over classic_instances(), random_instance seeds 0-24 and WIDE_SEEDS,
# greedy_suite at seed 0 on a prebuilt universe: ConstraintSet.completes_avoid
# calls, the forward checks' included (78,284 before the walk skipped dead
# subtrees).
PINNED_GREEDY_AVOID_CHECKS = 29_720

# Over classic_instances(), random_instance seeds 0-24 and WIDE_SEEDS,
# InteractionUniverse(system, cs): find_extension calls (580 before the
# build marked a sampled batch of valid cases first).
PINNED_BUILD_SEARCHES = 105

# Wide models on which the greedy walk falls back to ``CoverageState.witness``,
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


def zero_limit_model():
    """4^12 with six three-pick avoids, on which a step at a zero time
    limit often holds a case that covers nothing new."""
    system = bench.make_system([4] * 12)
    return system, ConstraintSet(avoid=bench.random_avoids(system, np.random.default_rng(3), 6, size=3))


@pytest.mark.parametrize("weighted", [True, False], ids=["weighted", "unweighted"])
def test_pipeline_suites(weighted):
    got = {}
    for (name, w) in PIPELINE_DIGESTS:
        if w == weighted:
            universe = InteractionUniverse(*_instance(name))
            if not weighted:
                uniform_weights(universe)
            suite, _ = run_pipeline(universe)
            got[(name, w)] = _digest(suite)
    assert got == {k: v for k, v in PIPELINE_DIGESTS.items() if k[1] == weighted}


def test_scaled_weights_change_no_suite():
    # a step ranks cases by their summed weights, which a common factor
    # cannot reorder; so where every cardinality is equal, uniform weights
    # give the suite of the default ones
    for (name, weighted), digest in PIPELINE_DIGESTS.items():
        if weighted:
            universe = InteractionUniverse(*_instance(name))
            universe.weights = universe.weights * 7
            suite, _ = run_pipeline(universe)
            assert _digest(suite) == digest, name


def test_greedy_suites(monkeypatch):
    instances = [bench.random_instance(s) for s in range(25)]
    instances += [_wide_instance(s) for s in WIDE_SEEDS]
    progress = CoverageState.witness
    calls = []

    def counted(*args):
        calls.append(len(got))  # the index of the instance being built
        return progress(*args)

    monkeypatch.setattr(CoverageState, "witness", counted)
    got = []
    for system, cs in instances:
        got.append(_digest(greedy_suite(InteractionUniverse(system, cs), seed=0)))
    assert got == GREEDY_DIGESTS
    assert set(range(25, len(instances))) <= set(calls)


def test_greedy_backtrack_cap_falls_back(monkeypatch):
    # _wide_instance(13)'s walk backtracks thousands of times in some cases;
    # capped at 50, more cases end in the witness fallback, and the suite
    # still covers every pair
    progress = CoverageState.witness
    calls = []

    def counted(*args):
        calls.append(None)
        return progress(*args)

    monkeypatch.setattr(CoverageState, "witness", counted)
    universe = InteractionUniverse(*_wide_instance(13))
    greedy_suite(universe, seed=0)
    uncapped = len(calls)
    calls.clear()
    monkeypatch.setattr(greedy, "MAX_BACKTRACKS_PER_CASE", 50)
    suite = greedy_suite(universe, seed=0)
    assert len(calls) > uncapped
    ok, problems = verify_suite(suite, universe.constraints, universe)
    assert ok, problems


def test_greedy_rotation_seeds():
    got = {
        (s, k): _digest(greedy_suite(InteractionUniverse(*_wide_instance(s)), seed=k))
        for s, k in WIDE_ROTATION_DIGESTS
    }
    assert got == WIDE_ROTATION_DIGESTS


def test_pinned_search_effort():
    instances = list(bench.classic_instances().values())
    instances += [bench.random_instance(s) for s in range(25)]
    step = cover = 0
    for system, cs in instances:
        _, report = run_pipeline(InteractionUniverse(system, cs))
        step += sum(st["nodes"] for st in report.steps)
        cover += report.cover["nodes"]
    assert (step, cover) == (PINNED_STEP_NODES, PINNED_COVER_NODES)


def test_pinned_step_stats():
    instances = list(bench.classic_instances().values())
    instances += [bench.random_instance(s) for s in range(25)]
    steps = []
    for system, cs in instances:
        steps += run_pipeline(InteractionUniverse(system, cs))[1].steps
    assert len(steps) == 790
    assert sum(st["last_improved_node"] for st in steps) == PINNED_STEP_LAST_IMPROVED
    assert sum(st["root_bound"] for st in steps) == PINNED_STEP_ROOT_BOUNDS


def test_pinned_joined_cover_effort():
    digest, nodes, sizes = hashlib.sha256(), 0, [0, 0]
    for s in range(25):
        system, cs = bench.random_instance(s)
        universe = InteractionUniverse(system, cs)
        joined = [*greedy_suite(universe, seed=0), *greedy_suite(universe, seed=1)]
        out, stats = minimize_suite(TestSuite(system, joined), cs)
        assert stats["status"] == "optimal"
        nodes += stats["nodes"]
        sizes[0] += len(joined)
        sizes[1] += len(out)
        digest.update(io.suite_to_csv(out).encode())
    assert sizes == [1_244, 607]
    assert (nodes, digest.hexdigest()) == (PINNED_JOINED_COVER_NODES, JOINED_MINIMIZED_DIGEST)


def test_pinned_build_effort(monkeypatch):
    instances = list(bench.classic_instances().values())
    instances += [bench.random_instance(s) for s in range(25)]
    instances += [_wide_instance(s) for s in WIDE_SEEDS]
    calls = []
    search = interactions.find_extension
    monkeypatch.setattr(
        interactions, "find_extension", lambda *args: calls.append(None) or search(*args)
    )
    for system, cs in instances:
        InteractionUniverse(system, cs)
    assert len(calls) == PINNED_BUILD_SEARCHES


def test_suite_seeded_builds_draw_no_sample(monkeypatch):
    # verify marks its suite's rows, which hold nearly every pair, so a
    # random batch would only add cost; minimize builds no universe
    system, cs = _wide_instance(4)
    suite = greedy_suite(InteractionUniverse(system, cs), seed=0)

    def refused(*args):
        raise AssertionError("sampled_cases called")

    monkeypatch.setattr(interactions, "sampled_cases", refused)
    assert verify_suite(suite, cs) == (True, [])
    reduced, _ = minimize_suite(suite, cs)
    assert 0 < len(reduced) <= len(suite)


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
        greedy_suite(universe, seed=seed)
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


def test_a_zero_step_limit_degrades_the_run():
    system, cs = zero_limit_model()
    suite, report = run_pipeline(InteractionUniverse(system, cs), config=PipelineConfig(step_time_limit=0.0))
    assert report.degraded
    assert verify_suite(suite, cs) == (True, [])
    assert (len(suite), _digest(suite)) == (ZERO_LIMIT_SIZE, ZERO_LIMIT_DIGEST)


def test_a_zero_step_limit_gives_sound_suites():
    # _wide_instance(4) and (13) hold steps whose best case at 1,024 nodes
    # covers nothing new; each such step falls back to the witness case
    instances = list(bench.classic_instances().values())
    instances += [bench.random_instance(s) for s in range(25)]
    instances += [_wide_instance(s) for s in WIDE_SEEDS]
    for system, cs in instances:
        universe = InteractionUniverse(system, cs)
        suite, _ = run_pipeline(universe, config=PipelineConfig(step_time_limit=0.0))
        assert verify_suite(suite, cs, universe) == (True, [])
