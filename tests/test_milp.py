import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paircover.core import StructureError
from paircover.milp import (
    MilpModel,
    SolveStatus,
    objective_value,
    solve_highs,
    verify_solution,
)

from conftest import brute_force_milp
from reference_kernel import solve_reference


def _random_model(rng, max_vars=8, sense=None):
    nv = int(rng.integers(1, max_vars + 1))
    nc = int(rng.integers(0, 5))
    if sense is None:
        sense = "max" if rng.integers(2) else "min"
    model = MilpModel(sense=sense)
    for _ in range(nv):
        model.add_var(obj=int(rng.integers(-5, 6)))
    rels = ("<=", ">=", "==")
    for _ in range(nc):
        k = int(rng.integers(1, nv + 1))
        vids = rng.choice(nv, size=k, replace=False)
        coefs = [(int(v), int(rng.integers(-4, 5)) or 1) for v in vids]
        rel = rels[int(rng.integers(3))]
        rhs = int(rng.integers(-3, 6)) if rel != "==" else int(rng.integers(-1, 4))
        model.add_constraint(coefs, rel, rhs)
    return model


class TestModelConstruction:
    def test_bad_sense(self):
        with pytest.raises(StructureError):
            MilpModel(sense="maximize")

    def test_var_ids_sequential(self):
        m = MilpModel()
        assert m.add_var() == 0
        assert m.add_var(obj=3) == 1
        assert m.objective == (0, 3)

    def test_fractional_coefficients_rejected(self):
        m = MilpModel()
        m.add_var()
        with pytest.raises(StructureError):
            m.add_var(obj=0.5)
        with pytest.raises(StructureError):
            m.add_constraint({0: 1.3}, "<=", 1)
        # integral floats are fine
        m.add_constraint({0: 2.0}, "<=", 1.0)

    def test_constraint_errors(self):
        m = MilpModel()
        v = m.add_var()
        with pytest.raises(StructureError):
            m.add_constraint({v: 1}, "<", 1)
        with pytest.raises(StructureError):
            m.add_constraint({v + 1: 1}, "<=", 1)
        with pytest.raises(StructureError):
            m.add_constraint([(v, 1), (v, 2)], "<=", 1)
        with pytest.raises(StructureError):
            m.add_constraint([], "<=", 1)

    def test_counts_and_arrays(self):
        m = MilpModel(sense="min")
        a = m.add_var(obj=2)
        b = m.add_var(obj=-1)
        m.add_constraint({a: 1, b: 1}, "<=", 1)
        m.add_constraint({b: 3}, ">=", 1)
        m.add_constraint({a: 1, b: -2}, "==", 0)
        assert (m.nvars, m.ncons, m.nnz) == (2, 3, 5)
        arr = m.to_arrays()
        assert arr["obj"].tolist() == [2, -1]
        assert arr["indptr"].tolist() == [0, 2, 3, 5]
        assert arr["rel"].tolist() == [0, 1, 2]
        assert arr["rhs"].tolist() == [1, 1, 0]
        # cache invalidated on mutation
        m.add_var()
        assert m.to_arrays()["obj"].tolist() == [2, -1, 0]


class TestSolutionChecks:
    def test_objective_value(self):
        m = MilpModel()
        m.add_var(obj=4)
        m.add_var(obj=-2)
        assert objective_value(m, np.array([1, 1])) == 2

    def test_verify_solution(self):
        m = MilpModel()
        a = m.add_var()
        b = m.add_var()
        m.add_constraint({a: 1, b: 1}, "<=", 1)
        assert verify_solution(m, np.array([1, 0]))
        assert not verify_solution(m, np.array([1, 1]))
        assert not verify_solution(m, np.array([1, 0, 0]))  # wrong shape
        assert not verify_solution(m, np.array([0.4, 0]))  # not integral
        assert not verify_solution(m, np.array([2, 0]))  # not binary
        assert verify_solution(m, np.array([1.0 + 1e-9, 0.0]))  # rounding slack


class TestReferenceSolver:
    def test_empty_model(self):
        sol = solve_reference(MilpModel())
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 0 and len(sol.values) == 0

    def test_simple_max(self):
        m = MilpModel()
        a = m.add_var(obj=3)
        b = m.add_var(obj=2)
        c = m.add_var(obj=1)
        m.add_constraint({a: 1, b: 1, c: 1}, "<=", 2)
        sol = solve_reference(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == 5
        assert sol.values.tolist() == [1, 1, 0]

    def test_infeasible(self):
        m = MilpModel()
        a = m.add_var(obj=1)
        m.add_constraint({a: 1}, ">=", 1)
        m.add_constraint({a: 1}, "<=", 0)
        sol = solve_reference(m)
        assert sol.status is SolveStatus.INFEASIBLE
        assert sol.values is None and sol.objective is None

    def test_matches_brute_force(self, rng):
        for _ in range(120):
            m = _random_model(rng)
            feasible, best = brute_force_milp(m)
            sol = solve_reference(m)
            if feasible:
                assert sol.status is SolveStatus.OPTIMAL
                assert sol.objective == best
                assert verify_solution(m, sol.values)
            else:
                assert sol.status is SolveStatus.INFEASIBLE

    def test_resumes_across_slices(self, rng):
        for _ in range(20):
            m = _random_model(rng, max_vars=10)
            whole = solve_reference(m)
            sliced = solve_reference(m, slice_nodes=3)
            assert sliced.status is whole.status
            assert sliced.objective == whole.objective
        # a model big enough to need many slices
        m = MilpModel()
        for _ in range(16):
            m.add_var(obj=1)
        m.add_constraint({v: 1 for v in range(16)}, "<=", 8)
        sol = solve_reference(m, slice_nodes=50)
        assert sol.objective == 8
        assert sol.stats["slices"] > 1

    def test_deadline_with_incumbent(self):
        m = MilpModel()
        for _ in range(40):
            m.add_var(obj=1)
        m.add_constraint({v: 1 for v in range(40)}, "<=", 20)
        sol = solve_reference(m, time_limit=0.0, slice_nodes=64)
        assert sol.status is SolveStatus.FEASIBLE
        assert sol.objective == 20
        assert verify_solution(m, sol.values)

    def test_deadline_without_incumbent(self):
        # branching x0=1 makes the two rows force x1 opposite ways, so the
        # first dive ends in a conflict and the solver pauses with no
        # incumbent found yet
        m = MilpModel()
        a = m.add_var(obj=1)
        b = m.add_var(obj=0)
        m.add_constraint({a: 1, b: -1}, "<=", 0)
        m.add_constraint({a: 1, b: 1}, "<=", 1)
        sol = solve_reference(m, time_limit=0.0, slice_nodes=1)
        assert sol.status is SolveStatus.TIMED_OUT
        assert sol.values is None

    def test_stats_present(self):
        m = MilpModel()
        m.add_var(obj=1)
        sol = solve_reference(m)
        assert sol.stats["nodes"] >= 1
        assert sol.stats["wall_s"] >= 0.0


class TestBackends:
    def test_scipy_agrees_with_reference(self, rng):
        for _ in range(40):
            m = _random_model(rng, max_vars=10)
            ref = solve_reference(m)
            sci = solve_highs(m)
            assert sci.status is ref.status
            if ref.status is SolveStatus.OPTIMAL:
                assert sci.objective == ref.objective
                assert verify_solution(m, sci.values)

    def test_scipy_unconstrained(self):
        m = MilpModel(sense="min")
        m.add_var(obj=-3)
        m.add_var(obj=2)
        sol = solve_highs(m)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == -3
        assert sol.values.tolist() == [1, 0]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_reference_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = _random_model(rng, max_vars=7)
    feasible, best = brute_force_milp(m)
    sol = solve_reference(m)
    if feasible:
        assert sol.status is SolveStatus.OPTIMAL and sol.objective == best
    else:
        assert sol.status is SolveStatus.INFEASIBLE
