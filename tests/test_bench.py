from pathlib import Path

import pytest

from paircover.bench import (
    BenchRecord,
    classic_instances,
    competition_ranks,
    make_bbu,
    make_system,
    performance_profile,
    random_instance,
    records_to_csv,
    run_methods,
    tail_fraction,
    profile_to_csv,
)
from paircover import interactions
from paircover.core import ConstraintSet
from paircover.interactions import InteractionUniverse
from paircover.io import load_model

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


class TestTailFraction:
    def test_even_curve(self):
        assert tail_fraction([0.25, 0.5, 0.75, 1.0]) == 0.25

    def test_linear_hundred(self):
        curve = [(k + 1) / 100 for k in range(100)]
        assert tail_fraction(curve) == pytest.approx(0.11)

    def test_instant_coverage(self):
        assert tail_fraction([0.95, 1.0]) == 1.0

    def test_never_reached(self):
        assert tail_fraction([0.1, 0.2]) == 0.0


class TestPerformanceProfile:
    def records(self):
        return [
            BenchRecord("i1", "a", 10, 0.1, False, 1.0),
            BenchRecord("i1", "b", 12, 0.1, False, 1.0),
            BenchRecord("i2", "a", 10, 0.1, False, 1.0),
            BenchRecord("i2", "b", 10, 0.1, False, 1.0),
        ]

    def test_fractions(self):
        profile = performance_profile(self.records(), [1.0, 1.2, 1.3])
        assert profile["a"] == [1.0, 1.0, 1.0]
        assert profile["b"] == [0.5, 1.0, 1.0]

    def test_csv(self):
        profile = performance_profile(self.records(), [1.0, 1.2])
        text = profile_to_csv(profile, [1.0, 1.2])
        lines = text.strip().split("\n")
        assert lines[0] == "tau,a,b"
        assert lines[1] == "1.000,1.0000,0.5000"


class TestCompetitionRanks:
    def test_ties_share_best_rank(self):
        records = [
            BenchRecord("i1", "a", 10, 0.1, False, 1.0),
            BenchRecord("i1", "b", 12, 0.1, False, 1.0),
            BenchRecord("i2", "a", 10, 0.1, False, 1.0),
            BenchRecord("i2", "b", 10, 0.1, False, 1.0),
        ]
        ranks = competition_ranks(records)
        assert ranks["a"] == 1.0
        assert ranks["b"] == 1.5

    def test_three_way(self):
        records = [
            BenchRecord("i1", "a", 5, 0.1, False, 1.0),
            BenchRecord("i1", "b", 7, 0.1, False, 1.0),
            BenchRecord("i1", "c", 7, 0.1, False, 1.0),
        ]
        ranks = competition_ranks(records)
        assert ranks == {"a": 1.0, "b": 2.0, "c": 2.0}


class TestInstances:
    def test_classic_names(self):
        inst = classic_instances()
        assert "bbu-5g" in inst and "ca-3^4" in inst
        system, cs = inst["bbu-5g"]
        assert len(InteractionUniverse(system, cs)) == 95

    def test_bbu_shape(self):
        system, cs = make_bbu()
        assert system.cardinalities == (4, 4, 4, 4)
        assert len(cs.avoid) == 1 and len(cs.must) == 1

    def test_bbu_matches_model_file(self):
        assert load_model(MODELS_DIR / "bbu_5g.model") == make_bbu()

    def test_random_instance_deterministic(self):
        a_sys, a_cs = random_instance(7)
        b_sys, b_cs = random_instance(7)
        assert a_sys == b_sys and a_cs == b_cs

    def test_random_instance_bounds(self):
        for seed in range(5):
            system, cs = random_instance(seed)
            assert 4 <= system.n_factors <= 8
            assert all(2 <= c <= 5 for c in system.cardinalities)
            assert len(cs.avoid) <= 3


def test_run_methods_builds_one_universe_per_instance(monkeypatch):
    # one universe serves every method and curve of an instance
    builds = []
    init = interactions.InteractionUniverse.__init__

    def counting_init(self, *args, **kwargs):
        builds.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(interactions.InteractionUniverse, "__init__", counting_init)
    instances = {"tiny": (make_system([2, 2, 2]), ConstraintSet()), "bbu": make_bbu()}
    records = run_methods(instances, ["sequential", "greedy"])
    assert len(records) == 4
    assert builds == list(instances.values())


def test_run_methods_records():
    instances = {
        "tiny": (make_system([2, 2, 2]), ConstraintSet()),
        "bbu": make_bbu(),
    }
    records = run_methods(instances, ["sequential", "greedy"], seed=1)
    assert len(records) == 4
    by_key = {(r.instance, r.method): r for r in records}
    assert by_key[("bbu", "sequential")].size <= by_key[("bbu", "greedy")].size
    for r in records:
        assert r.size > 0 and r.wall_s >= 0
        assert 0.0 <= r.tail <= 1.0
    text = records_to_csv(records)
    assert text.startswith("instance,method,size,wall_s,degraded,tail\n")
    assert len(text.strip().split("\n")) == 5
