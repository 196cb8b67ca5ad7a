"""Exact branch and bound for binary integer programs: the tests' oracle.

No command runs this kernel: the per-case step and the set cover have
structured searches of their own (``sequential.solve``, ``pipeline.solve``),
and the tests check them against it.

Depth-first branch and bound over the binary variables with unit
propagation on the rows and an optimistic objective bound.  Everything is
exact int64 arithmetic; there is no LP relaxation, no cuts and no symmetry
handling.  Branching is deterministic: variables in model order (lowest id
first), the improving value first for variables with a nonzero objective
coefficient and 0 first otherwise, so results are reproducible across runs
and platforms.

The search loop lives in one self-contained kernel function over flat numpy
arrays.  It runs in node-budget slices so that the hot loop never reads the
clock: a slice returns with the whole search state parked in the arrays, the
Python wrapper checks the deadline, and the next call picks up exactly where
it stopped.  The slice size only bounds how far past its time limit a solve
can run.
"""

from __future__ import annotations

import time

import numpy as np

from paircover.core import PaircoverError
from paircover.milp.model import MilpModel, MilpSolution, SolveStatus, verify_solution

NEG_INF = -(2**62)

# nodes per kernel call between deadline checks
SLICE_NODES = 2_000

# st[] slots: 0 trail_n, 1 depth, 2 cur_obj, 3 pos_slack, 4 best_obj,
# 5 has_best, 6 mode (0 descend, 1 backtrack), 7 pmark, 8 rows_seeded,
# 9 nodes_total, 10 root_bound_set, 11 root_bound
_ST_SIZE = 12


def _bnb_run(
    obj,
    indptr,
    vidx,
    coef,
    rel,
    rhs,
    vptr,
    vrows,
    vcoef,
    val,
    minact,
    maxact,
    trail,
    fvar,
    fphase,
    fmark,
    best_val,
    qbuf,
    qflag,
    st,
    budget,
):
    nv = obj.shape[0]
    nc = rhs.shape[0]
    trail_n = st[0]
    depth = st[1]
    cur_obj = st[2]
    pos_slack = st[3]
    best_obj = st[4]
    has_best = st[5]
    mode = st[6]
    pmark = st[7]
    nodes = 0

    while True:
        if mode == 0:
            # ---- propagation to fixpoint, seeded by vars fixed since pmark
            qh = 0
            qt = 0
            if st[8] == 0:
                st[8] = 1
                for c in range(nc):
                    qbuf[qt] = c
                    qt += 1
                    qflag[c] = 1
            else:
                for t in range(pmark, trail_n):
                    v = trail[t]
                    for p in range(vptr[v], vptr[v + 1]):
                        c = vrows[p]
                        if qflag[c] == 0:
                            qflag[c] = 1
                            qbuf[qt] = c
                            qt += 1
            conflict = False
            while qh < qt:
                c = qbuf[qh]
                qh += 1
                qflag[c] = 0
                r = rhs[c]
                if minact[c] > r or (rel[c] == 1 and maxact[c] < r):
                    conflict = True
                    break
                lo = indptr[c]
                hi = indptr[c + 1]
                for p in range(lo, hi):
                    v2 = vidx[p]
                    if val[v2] >= 0:
                        continue
                    a = coef[p]
                    aneg = a if a < 0 else 0
                    apos = a if a > 0 else 0
                    min0 = minact[c] - aneg
                    max0 = maxact[c] - apos
                    min1 = min0 + a
                    max1 = max0 + a
                    if rel[c] == 1:
                        ok0 = min0 <= r and max0 >= r
                        ok1 = min1 <= r and max1 >= r
                    else:
                        ok0 = min0 <= r
                        ok1 = min1 <= r
                    if ok0 and ok1:
                        continue
                    if not (ok0 or ok1):
                        conflict = True
                        break
                    b = 1 if ok1 else 0
                    val[v2] = b
                    trail[trail_n] = v2
                    trail_n += 1
                    ov = obj[v2]
                    if ov > 0:
                        pos_slack -= ov
                    if b == 1:
                        cur_obj += ov
                    for p2 in range(vptr[v2], vptr[v2 + 1]):
                        c2 = vrows[p2]
                        a2 = vcoef[p2]
                        a2neg = a2 if a2 < 0 else 0
                        a2pos = a2 if a2 > 0 else 0
                        if b == 1:
                            minact[c2] += a2 - a2neg
                            maxact[c2] += a2 - a2pos
                        else:
                            minact[c2] -= a2neg
                            maxact[c2] -= a2pos
                        if qflag[c2] == 0:
                            qflag[c2] = 1
                            qbuf[qt] = c2
                            qt += 1
                if conflict:
                    break
            if conflict:
                while qh < qt:
                    qflag[qbuf[qh]] = 0
                    qh += 1
                pmark = trail_n
                mode = 1
                continue
            pmark = trail_n

            # ---- bound, leaf, or branch
            bnd = cur_obj + pos_slack
            if depth == 0 and st[10] == 0:
                st[10] = 1
                st[11] = bnd
            if bnd <= best_obj:
                mode = 1
                continue
            # vars below this frame's own branch var stay fixed for both of
            # its values, so the scan can start just past it
            scan = fvar[depth] + 1 if depth > 0 else 0
            while scan < nv and val[scan] >= 0:
                scan += 1
            if scan == nv:
                best_obj = cur_obj
                has_best = 1
                for v3 in range(nv):
                    best_val[v3] = val[v3]
                if st[10] == 1 and best_obj >= st[11]:
                    st[0] = trail_n
                    st[1] = depth
                    st[2] = cur_obj
                    st[3] = pos_slack
                    st[4] = best_obj
                    st[5] = has_best
                    st[6] = 1
                    st[7] = pmark
                    st[9] += nodes
                    return 0
                mode = 1
                continue
            depth += 1
            fvar[depth] = scan
            fphase[depth] = 0
            fmark[depth] = trail_n
            b = 1 if obj[scan] > 0 else 0
            val[scan] = b
            trail[trail_n] = scan
            trail_n += 1
            ov = obj[scan]
            if ov > 0:
                pos_slack -= ov
            if b == 1:
                cur_obj += ov
            for p2 in range(vptr[scan], vptr[scan + 1]):
                c2 = vrows[p2]
                a2 = vcoef[p2]
                a2neg = a2 if a2 < 0 else 0
                a2pos = a2 if a2 > 0 else 0
                if b == 1:
                    minact[c2] += a2 - a2neg
                    maxact[c2] += a2 - a2pos
                else:
                    minact[c2] -= a2neg
                    maxact[c2] -= a2pos
            nodes += 1
            continue

        # ---- mode 1: backtrack
        if depth == 0:
            st[0] = trail_n
            st[1] = depth
            st[2] = cur_obj
            st[3] = pos_slack
            st[4] = best_obj
            st[5] = has_best
            st[6] = mode
            st[7] = pmark
            st[9] += nodes
            return 0
        if nodes >= budget:
            break
        mark = fmark[depth]
        while trail_n > mark:
            trail_n -= 1
            v3 = trail[trail_n]
            b = val[v3]
            val[v3] = -1
            ov = obj[v3]
            if ov > 0:
                pos_slack += ov
            if b == 1:
                cur_obj -= ov
            for p2 in range(vptr[v3], vptr[v3 + 1]):
                c2 = vrows[p2]
                a2 = vcoef[p2]
                a2neg = a2 if a2 < 0 else 0
                a2pos = a2 if a2 > 0 else 0
                if b == 1:
                    minact[c2] -= a2 - a2neg
                    maxact[c2] -= a2 - a2pos
                else:
                    minact[c2] += a2neg
                    maxact[c2] += a2pos
        pmark = trail_n
        if fphase[depth] == 0:
            fphase[depth] = 1
            v3 = fvar[depth]
            b0 = 1 if obj[v3] > 0 else 0
            b = 1 - b0
            val[v3] = b
            trail[trail_n] = v3
            trail_n += 1
            ov = obj[v3]
            if ov > 0:
                pos_slack -= ov
            if b == 1:
                cur_obj += ov
            for p2 in range(vptr[v3], vptr[v3 + 1]):
                c2 = vrows[p2]
                a2 = vcoef[p2]
                a2neg = a2 if a2 < 0 else 0
                a2pos = a2 if a2 > 0 else 0
                if b == 1:
                    minact[c2] += a2 - a2neg
                    maxact[c2] += a2 - a2pos
                else:
                    minact[c2] -= a2neg
                    maxact[c2] -= a2pos
            nodes += 1
            mode = 0
        else:
            depth -= 1

    # ---- node budget exhausted: park state for the next slice
    st[0] = trail_n
    st[1] = depth
    st[2] = cur_obj
    st[3] = pos_slack
    st[4] = best_obj
    st[5] = has_best
    st[6] = mode
    st[7] = pmark
    st[9] += nodes
    return 1


def _normalized_arrays(model: MilpModel) -> dict:
    """Kernel view of the model: maximize sense, rows as <= or ==."""
    arr = model.to_arrays()
    cached = getattr(model, "_ref_arrays", None)
    if cached is not None and cached[0] is arr:
        return cached[1]
    nv, nc = model.nvars, model.ncons
    obj = arr["obj"].copy() if model.sense == "max" else -arr["obj"]
    indptr = arr["indptr"]
    vidx = arr["vidx"]
    coef = arr["coef"].copy()
    rhs = arr["rhs"].copy()
    krel = np.zeros(nc, dtype=np.int8)
    for c in range(nc):
        code = arr["rel"][c]
        if code == 1:  # >=  ->  <= after negation
            coef[indptr[c] : indptr[c + 1]] *= -1
            rhs[c] = -rhs[c]
        elif code == 2:
            krel[c] = 1

    order = np.argsort(vidx, kind="stable")
    vrows = np.empty(len(vidx), dtype=np.int32)
    for c in range(nc):
        vrows[indptr[c] : indptr[c + 1]] = c
    vrows = vrows[order]
    vcoef = coef[order]
    counts = np.bincount(vidx, minlength=nv)
    vptr = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(counts, out=vptr[1:])

    pack = {
        "obj": obj.astype(np.int64),
        "indptr": indptr.astype(np.int64),
        "vidx": vidx.astype(np.int32),
        "coef": coef.astype(np.int64),
        "rel": krel,
        "rhs": rhs.astype(np.int64),
        "vptr": vptr,
        "vrows": vrows,
        "vcoef": vcoef.astype(np.int64),
        "minact0": np.add.reduceat(np.minimum(coef, 0), indptr[:-1])
        if nc
        else np.zeros(0, dtype=np.int64),
        "maxact0": np.add.reduceat(np.maximum(coef, 0), indptr[:-1])
        if nc
        else np.zeros(0, dtype=np.int64),
    }
    model._ref_arrays = (arr, pack)
    return pack


def solve_reference(
    model: MilpModel,
    time_limit: float | None = None,
    slice_nodes: int = SLICE_NODES,
) -> MilpSolution:
    """Solve exactly, or return the best incumbent at the deadline.

    The deadline is checked between slices of ``slice_nodes`` nodes; the
    search resumes exactly where a slice stopped, so the slice size only
    decides how far past the time limit a solve can run.
    """
    t0 = time.perf_counter()
    nv, nc = model.nvars, model.ncons
    if nv == 0:
        return MilpSolution(SolveStatus.OPTIMAL, 0, np.zeros(0, dtype=np.int8))
    pack = _normalized_arrays(model)

    val = np.full(nv, -1, dtype=np.int8)
    minact = pack["minact0"].astype(np.int64).copy()
    maxact = pack["maxact0"].astype(np.int64).copy()
    trail = np.zeros(nv, dtype=np.int32)
    fvar = np.zeros(nv + 2, dtype=np.int32)
    fphase = np.zeros(nv + 2, dtype=np.int8)
    fmark = np.zeros(nv + 2, dtype=np.int32)
    best_val = np.zeros(nv, dtype=np.int8)
    qbuf = np.zeros(model.nnz + nc + 8, dtype=np.int32)
    qflag = np.zeros(max(nc, 1), dtype=np.uint8)
    st = np.zeros(_ST_SIZE, dtype=np.int64)

    st[3] = int(np.maximum(pack["obj"], 0).sum())  # optimistic slack over unfixed vars
    st[4] = NEG_INF

    deadline = None if time_limit is None else t0 + float(time_limit)
    budget = np.int64(slice_nodes)
    timed_out = False
    slices = 0
    while True:
        rc = _bnb_run(
            pack["obj"],
            pack["indptr"],
            pack["vidx"],
            pack["coef"],
            pack["rel"],
            pack["rhs"],
            pack["vptr"],
            pack["vrows"],
            pack["vcoef"],
            val,
            minact,
            maxact,
            trail,
            fvar,
            fphase,
            fmark,
            best_val,
            qbuf,
            qflag,
            st,
            budget,
        )
        slices += 1
        if rc == 0:
            break
        if deadline is not None and time.perf_counter() >= deadline:
            timed_out = True
            break

    wall = time.perf_counter() - t0
    has_best = bool(st[5])
    stats = {"nodes": int(st[9]), "wall_s": wall, "slices": slices}
    if has_best:
        internal_obj = int(st[4])
        objective = internal_obj if model.sense == "max" else -internal_obj
        values = best_val.copy()
        if not verify_solution(model, values):
            raise PaircoverError("reference solver produced an invalid solution")
        status = SolveStatus.FEASIBLE if timed_out else SolveStatus.OPTIMAL
        return MilpSolution(status, objective, values, stats)
    status = SolveStatus.TIMED_OUT if timed_out else SolveStatus.INFEASIBLE
    return MilpSolution(status, None, None, stats)
