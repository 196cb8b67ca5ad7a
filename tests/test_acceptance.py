"""The eight release gates, one test each.

Every test prints one summary line (visible with ``pytest -s`` or ``-rA``)
and asserts the gate's tolerances directly.  Budgets are generous compared
to observed runtimes; they exist to catch pathological regressions, not to
benchmark.
"""

import time
from pathlib import Path

import numpy as np

from paircover import cli
from paircover.bench import make_bbu, make_system, random_avoids, tail_fraction
from paircover.core import ConstraintSet
from paircover.gcp import partition_musts
from paircover.greedy import greedy_suite
from paircover.interactions import (
    InteractionUniverse,
    coverage_curve,
    find_extension,
    verify_suite,
)
from paircover.milp import MilpModel, SolveStatus
from paircover.monolithic import minimal_suite
from paircover.pipeline import PipelineConfig, minimize_suite, run_pipeline

from conftest import (
    brute_force_milp,
    oracle_min_suite_size,
    random_constraints,
    satisfied_musts,
    uniform_weights,
)
from reference_kernel import solve_reference

MODELS_DIR = Path(__file__).resolve().parent.parent / "models"


def report_line(n, label, ok, detail):
    print(f"criterion {n} [{label}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} [{label}] failed: {detail}"


def test_criterion_1_radio_case_study(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "suite.csv"
    rc = cli.main(
        ["generate", "--model", str(MODELS_DIR / "bbu_5g.model"), "--out", str(out)]
    )
    wall = time.perf_counter() - t0
    system, cs = make_bbu()
    from paircover.io import read_suite_csv

    suite = read_suite_csv(out, system)
    universe = InteractionUniverse(system, cs)
    ok_suite, problems = verify_suite(suite, cs, universe)
    no_blocked_row = all(
        not (tc.levels[0] == 0 and tc.levels[1] == 3) for tc in suite
    )
    must_present = all(satisfied_musts(suite, cs))
    ok = (
        rc == 0
        and len(suite) <= 21
        and len(universe) == 95
        and ok_suite
        and must_present
        and no_blocked_row
        and wall < 60.0
    )
    report_line(
        1,
        "radio case study",
        ok,
        f"size={len(suite)} (<=21), universe={len(universe)}, "
        f"verified={ok_suite}, must={must_present}, "
        f"blocked-free={no_blocked_row}, wall={wall:.1f}s",
    )


def test_criterion_2_desk_scale_sizes():
    t0 = time.perf_counter()
    sizes = {}
    degraded = []
    for name, cards, gate in (
        ("3^4", [3] * 4, 9),
        ("3^3", [3] * 3, 10),
        ("5.3^8.2^2", [5] + [3] * 8 + [2] * 2, 21),
    ):
        suite, report = run_pipeline(InteractionUniverse(make_system(cards), ConstraintSet()))
        sizes[name] = (len(suite), gate)
        if report.degraded:
            degraded.append(name)
    wall = time.perf_counter() - t0
    exact = sizes["3^4"][0] == 9
    bounded = all(size <= gate for size, gate in sizes.values())
    ok = exact and bounded and not degraded and wall < 600.0
    detail = ", ".join(f"{k}={v[0]} (gate {v[1]})" for k, v in sizes.items())
    report_line(2, "desk scale sizes", ok, f"{detail}, degraded={degraded}, wall={wall:.1f}s")


def test_criterion_3_weight_ablation():
    cards = [6, 4, 4, 3, 3, 3, 2, 2]
    weighted_sizes = []
    unweighted_sizes = []
    for k in range(5):
        system = make_system(cards)
        cs = ConstraintSet(
            avoid=random_avoids(system, np.random.default_rng(1000 + k), 2)
        )
        for flag, bucket in ((True, weighted_sizes), (False, unweighted_sizes)):
            universe = InteractionUniverse(system, cs)
            if not flag:
                uniform_weights(universe)
            suite, _ = run_pipeline(universe)
            bucket.append(len(suite))
    mean_w = sum(weighted_sizes) / len(weighted_sizes)
    mean_u = sum(unweighted_sizes) / len(unweighted_sizes)
    ok = mean_w <= mean_u
    report_line(
        3,
        "weight ablation",
        ok,
        f"weighted mean {mean_w:.1f} {weighted_sizes} vs "
        f"unweighted mean {mean_u:.1f} {unweighted_sizes}",
    )


def _tiny_instance(seed):
    """n <= 3 factors, cardinalities <= 3, at most 2 constraints, all of
    them satisfiable."""
    sub = 0
    while True:
        rng = np.random.default_rng((seed, sub))
        cards = [int(rng.integers(2, 4)) for _ in range(int(rng.integers(2, 4)))]
        system = make_system(cards)
        total = int(rng.integers(0, 3))
        n_must = int(rng.integers(0, total + 1))
        cs = random_constraints(system, rng, n_avoid=total - n_must, n_must=n_must)
        try:
            want = oracle_min_suite_size(system, cs)
            return system, cs, want
        except ValueError:
            sub += 1


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for seed in range(20):
        system, cs, want = _tiny_instance(seed)
        exact, _ = minimal_suite(InteractionUniverse(system, cs))
        assert len(exact) == want, (
            f"seed {seed}: minimal_suite={len(exact)} oracle={want}"
        )
        final, _ = run_pipeline(InteractionUniverse(system, cs))
        assert want <= len(final) <= want + 1, (
            f"seed {seed}: pipeline={len(final)} oracle={want}"
        )
        checked += 1
    wall = time.perf_counter() - t0
    ok = checked == 20 and wall < 300.0
    report_line(
        4,
        "oracle equivalence",
        ok,
        f"{checked}/20 instances exact, pipeline within +1, wall={wall:.1f}s",
    )


def test_criterion_5_reference_solver_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(777)
    rels = ("<=", ">=", "==")
    checked = 0
    for _ in range(200):
        nv = int(rng.integers(1, 21))
        model = MilpModel(sense="max" if rng.integers(2) else "min")
        for _ in range(nv):
            model.add_var(obj=int(rng.integers(-5, 6)))
        for _ in range(int(rng.integers(0, 5))):
            k = int(rng.integers(1, min(nv, 6) + 1))
            vids = rng.choice(nv, size=k, replace=False)
            coefs = [(int(v), int(rng.integers(-4, 5)) or 1) for v in vids]
            rel = rels[int(rng.integers(3))]
            rhs = int(rng.integers(-3, 6))
            model.add_constraint(coefs, rel, rhs)
        feasible, best = brute_force_milp(model)
        sol = solve_reference(model)
        if feasible:
            assert sol.status is SolveStatus.OPTIMAL, f"model {checked}: {sol.status}"
            assert sol.objective == best, (
                f"model {checked}: got {sol.objective}, want {best}"
            )
        else:
            assert sol.status is SolveStatus.INFEASIBLE, f"model {checked}"
        checked += 1
    wall = time.perf_counter() - t0
    ok = checked == 200 and wall < 60.0
    report_line(
        5,
        "reference solver oracle",
        ok,
        f"{checked}/200 models match enumeration, wall={wall:.1f}s",
    )


def test_criterion_6_soundness_suite():
    instances = {
        "radio": make_bbu(),
        "3^3": (make_system([3] * 3), ConstraintSet()),
        "4.3.2": (make_system([4, 3, 2]), ConstraintSet()),
    }
    rng = np.random.default_rng(2000)
    system = make_system([3, 3, 2, 2])
    instances["mixed"] = (
        system,
        random_constraints(system, rng, n_avoid=2, n_must=1),
    )

    runs = 0
    for name, (system, cs) in instances.items():
        if cs.must:
            part = partition_musts(system, cs, list(cs.must))
            for merged in part.merged:
                assert find_extension(merged, system, cs) is not None, (
                    f"{name}: must group not jointly extendable"
                )
        for weighted in (True, False):
            for do_min in (True, False):
                cfg = PipelineConfig(minimize=do_min)
                universe = InteractionUniverse(system, cs)
                if not weighted:
                    uniform_weights(universe)
                suite, report = run_pipeline(universe, config=cfg)
                ok, problems = verify_suite(suite, cs)
                assert ok, f"{name} {cfg}: {problems[:2]}"
                assert report.final_size <= report.raw_size, f"{name} {cfg}"
                curve = coverage_curve(suite, InteractionUniverse(system, cs))
                assert curve == sorted(curve), f"{name} {cfg}: curve not monotone"
                smaller, _ = minimize_suite(suite, cs)
                assert len(smaller) <= len(suite), f"{name} {cfg}"
                runs += 1
    report_line(
        6,
        "soundness suite",
        True,
        f"{runs} pipeline runs verified clean across all configurations",
    )


def test_criterion_7_warm_start_contract():
    held = []
    for k in range(10):
        rng = np.random.default_rng(500 + k)
        cards = [int(rng.integers(2, 5)) for _ in range(int(rng.integers(4, 6)))]
        system = make_system(cards)
        cs = ConstraintSet(
            avoid=random_avoids(system, rng, int(rng.integers(0, 3)))
        )
        warm = greedy_suite(InteractionUniverse(system, cs), seed=500 + k)
        _, hot = run_pipeline(
            InteractionUniverse(system, cs), warm_start=warm, config=PipelineConfig(alpha=0.9)
        )
        _, cold = run_pipeline(
            InteractionUniverse(system, cs), warm_start=warm, config=PipelineConfig(alpha=0.0)
        )
        held.append(
            hot.phase2_cases <= cold.phase2_cases and hot.final_size <= len(warm)
        )
    ok = all(held)
    report_line(
        7,
        "warm start contract",
        ok,
        f"phase-2 steps and final size bounded on {sum(held)}/10 instances",
    )


def test_criterion_8_coverage_tail():
    tails = []
    for k in range(10):
        rng = np.random.default_rng(900 + k)
        cards = [int(c) for c in rng.permutation(np.arange(2, 11))]
        system = make_system(cards)
        cs = ConstraintSet()
        suite = greedy_suite(InteractionUniverse(system, cs), seed=900 + k)
        universe = InteractionUniverse(system, cs)
        tails.append(tail_fraction(coverage_curve(suite, universe)))
    fat = sum(1 for t in tails if t > 0.10)
    ok = fat >= 8
    report_line(
        8,
        "coverage tail",
        ok,
        f"tail fraction > 0.10 on {fat}/10 instances "
        f"(min {min(tails):.3f}, max {max(tails):.3f})",
    )
