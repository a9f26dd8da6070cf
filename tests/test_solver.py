from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgmda import solver
from hgmda.objective import (
    ObjectiveContext,
    ObjectiveWeights,
    marginals,
    total_objective,
    uniform_matching,
)
from hgmda.solver import (
    GRADIENT_SCALE,
    RESIDUAL_CHECK_EVERY,
    RESIDUAL_TOL,
    _sinkhorn_lmo,
    admm_lp,
    cg_solve,
)

from oracles import permutation_minimum as oracle_perm_min
from oracles import projected_gradient, reference_admm_lp, reference_sinkhorn_lmo


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
        assert state.primal_residual < RESIDUAL_TOL
        assert state.dual_residual < RESIDUAL_TOL
        assert np.abs(C.sum(axis=1) - a).max() <= 1e-3
        assert np.abs(C.sum(axis=0) - b).max() <= 1e-3
        assert float(np.vdot(G, C)) == pytest.approx(oracle_perm_min(G), abs=1e-3)

    def test_zero_sweeps_rejected(self):
        G = np.eye(2)
        a, b = marginals(2, 2)
        with pytest.raises(ValueError, match="at least 1 sweep"):
            admm_lp(G, a, b, iters=0)

    def test_capped_run_reports_its_last_sweep(self):
        # 7 sweeps is no residual check; the residuals still come from sweep 7
        rng = np.random.default_rng(5)
        G = rng.normal(size=(5, 8))
        a, b = marginals(5, 8)
        _, state = admm_lp(G, a, b, iters=7)
        assert state.iterations == 7
        assert RESIDUAL_TOL < state.primal_residual < np.inf
        assert 0.0 < state.dual_residual < np.inf

    def test_rectangular_marginals(self):
        rng = np.random.default_rng(8)
        G = rng.normal(size=(6, 3))
        a, b = marginals(6, 3)
        C, _ = admm_lp(G, a, b, iters=300)
        assert np.abs(C.sum(axis=1) - a).max() <= 1e-3
        assert np.abs(C.sum(axis=0) - b).max() <= 1e-3
        assert C.min() >= -1e-4

    @pytest.mark.parametrize("magnitude", [GRADIENT_SCALE, 1.0])
    @pytest.mark.parametrize("shape, stops", [
        ((4, 4), True), ((6, 3), True), ((20, 60), False), ((40, 100), False),
    ])
    def test_matches_three_block_reference(self, shape, stops, magnitude):
        # a gradient and a perturbed one against the textbook scaled-form
        # sweep on the raw gradient; the small instances meet the residual
        # stop within the cap, so both stop tests must fire at the same sweep
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        G = magnitude * rng.normal(size=shape)
        a, b = marginals(*shape)
        for grad in (G, G + 0.05 * magnitude * rng.normal(size=shape)):
            C, state = admm_lp(grad, a, b, iters=1000)
            C_ref, ref = reference_admm_lp(grad, a, b, iters=1000)
            assert np.abs(C - C_ref).max() <= 1e-9
            assert state.iterations == ref.iterations
            # admm_lp averages the blocks without their duals, which is the
            # textbook average only while the duals sum to zero
            assert np.abs(sum(ref.U)).max() <= 1e-12
            assert (state.iterations < 1000) == stops

    @pytest.mark.parametrize("iters", [1, 7, RESIDUAL_CHECK_EVERY])
    def test_residuals_of_last_sweep(self, iters):
        # the recorded residuals are those of the last sweep, whether or not
        # it is a residual check: how far that sweep moved the reference's
        # duals (primal) and its Z (dual)
        rng = np.random.default_rng(5)
        G = rng.normal(size=(5, 8))
        a, b = marginals(5, 8)
        _, state = admm_lp(G, a, b, iters=iters)
        _, before = reference_admm_lp(G, a, b, iters=iters - 1)
        _, after = reference_admm_lp(G, a, b, iters=iters)
        primal = max(np.abs(u - u0).max() for u, u0 in zip(after.U, before.U))
        dual = np.abs(after.Z - before.Z).max()
        assert state.primal_residual == pytest.approx(primal, abs=1e-12)
        assert state.dual_residual == pytest.approx(dual, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="marginal"):
            admm_lp(np.zeros((2, 2)), np.ones(3), np.ones(2))

    def test_cold_state_is_feasible(self):
        # on a zero gradient one sweep moves a feasible start nowhere, so
        # both residuals vanish and the output keeps the marginals
        a, b = marginals(4, 6)
        C, state = admm_lp(np.zeros((4, 6)), a, b, iters=1)
        assert np.allclose(C.sum(axis=1), a)
        assert np.allclose(C.sum(axis=0), b)
        assert state.primal_residual <= 1e-15
        assert state.dual_residual <= 1e-15

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


class TestSinkhornLmo:
    @settings(max_examples=60, deadline=None)
    @given(
        ns=st.integers(min_value=2, max_value=40),
        nt=st.integers(min_value=2, max_value=100),
        gamma=st.floats(min_value=1e-3, max_value=1.0),
        max_iters=st.integers(min_value=1, max_value=2000),
        warm=st.booleans(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_output_is_feasible_and_bound_is_below_it(self, ns, nt, gamma, max_iters, warm, seed):
        # whatever the shape, step, cap or warm start, the rounded plan lies
        # in the polytope and the certified bound lies below its value
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(ns, nt)) * 10.0 ** rng.uniform(-3, 3)
        a, b = marginals(ns, nt)
        g = rng.normal(size=nt) * np.abs(G).max() if warm else None
        C_d, g_out, bound, iterations, error, _ = _sinkhorn_lmo(G, a, b, gamma, g, max_iters)
        assert np.abs(C_d.sum(axis=1) - a).max() <= 1e-12
        assert np.abs(C_d.sum(axis=0) - b).max() <= 1e-12
        assert C_d.min() >= 0.0
        assert bound <= float(np.vdot(G, C_d)) + 1e-12 * np.abs(G).sum()
        assert 1 <= iterations <= max_iters
        assert np.isfinite(error) and np.all(np.isfinite(g_out))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=6),
        gamma=st.floats(min_value=1e-3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_bound_brackets_permutation_minimum(self, n, gamma, seed):
        # with unit marginals the LP minimum is the permutation minimum
        rng = np.random.default_rng(seed)
        G = rng.normal(size=(n, n))
        a, b = marginals(n, n)
        C_d, _, bound, _, _, _ = _sinkhorn_lmo(G, a, b, gamma, None, 300)
        exact = oracle_perm_min(G)
        assert bound <= exact + 1e-12
        assert exact <= float(np.vdot(G, C_d)) + 1e-12

    @pytest.mark.parametrize("shape", [(4, 4), (6, 3), (20, 60), (40, 100)])
    @pytest.mark.parametrize("gamma", [2.0 / 3.0, 2.0 / 22.0])
    def test_continuous_in_the_gradient(self, shape, gamma):
        # a 1e-12 change of G moves the plan by no more than 1e-9: the
        # output does not hinge on rounding
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        G = rng.normal(size=shape)
        a, b = marginals(*shape)
        C_d = _sinkhorn_lmo(G, a, b, gamma, None, 2000)[0]
        moved = _sinkhorn_lmo(G + 1e-12 * rng.normal(size=shape), a, b, gamma, None, 2000)[0]
        assert np.abs(moved - C_d).max() <= 1e-9

    def test_zero_gradient_returns_feasible(self):
        a, b = marginals(3, 5)
        C_d, _, bound, _, _, _ = _sinkhorn_lmo(np.zeros((3, 5)), a, b, 0.5, None, 300)
        assert np.abs(C_d.sum(axis=1) - a).max() <= 1e-15
        assert np.abs(C_d.sum(axis=0) - b).max() <= 1e-15
        assert bound == 0.0


def offset_gradient(seed, ns, nt, offset):
    """A normal gradient plus row and column offsets of scale offset, which
    the Sinkhorn scalings must absorb."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(ns, nt)) + offset * rng.normal(size=(ns, 1))
            + offset * rng.normal(size=(1, nt)))


class TestSinkhornBlocks:
    """_sinkhorn_lmo tests the scaling range once per block of iterations;
    its outputs must be those of the loop that tested every iteration."""

    @staticmethod
    def check_against_reference(G, a, b, gamma, g, max_iters):
        # counts the log-domain starts, the first one and every restart
        starts, log_potentials = [], solver._log_potentials

        def counted(*args):
            starts.append(args)
            return log_potentials(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(solver, "_log_potentials", counted)
            out = _sinkhorn_lmo(G, a, b, gamma, g, max_iters)
        ref = reference_sinkhorn_lmo(G, a, b, gamma, g, max_iters)
        for got, want in zip(out[:5], ref):
            assert np.array_equal(got, want)
        assert out[5] == len(starts) - 1
        return out

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_per_iteration_reference(self, seed):
        # shapes up to 40 x 100, offsets and steps down to 1e-5 that push the
        # scalings out of range, warm starts far from the solution, and caps
        # at any position in a block; drawn from the seed so that they spread
        # evenly (about a third of the calls restart)
        rng = np.random.default_rng(seed)
        ns, nt = int(rng.integers(2, 41)), int(rng.integers(2, 101))
        G = offset_gradient(seed, ns, nt, float(rng.choice([0.0, 10.0, 1e3])))
        a, b = marginals(ns, nt)
        gamma = 10.0 ** rng.uniform(-5.0, 0.0)
        warm = rng.choice([0.0, 1.0, 1e6])
        g = warm * np.abs(G).max() * rng.normal(size=nt) if warm else None
        max_iters = int(rng.integers(1, 301))
        self.check_against_reference(G, a, b, gamma, g, max_iters)

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("gamma", [2 / 3, 2 / 22], ids=["step-1", "step-20"])
    @pytest.mark.parametrize("ns, nt, max_iters", [(40, 100, 8000), (20, 60, 16000)])
    def test_benchmark_shapes(self, ns, nt, max_iters, gamma, warm):
        # the shapes and caps of the benchmark's calls, at the first and the
        # last step of a 20-step run: 20-1,270 iterations, some restarting.
        # A warm call starts from the column potential of a call at a nearby
        # gradient, as cg_solve's calls do
        a, b = marginals(ns, nt)
        G = offset_gradient(1, ns, nt, 0.0)
        g = None
        if warm:
            g = _sinkhorn_lmo(G, a, b, gamma, None, max_iters)[1]
            G = G + 0.05 * offset_gradient(2, ns, nt, 0.0)
        out = self.check_against_reference(G, a, b, gamma, g, max_iters)
        assert 10 < out[3] < max_iters

    @pytest.mark.parametrize("gamma", [1e-5, 1e-4])
    @pytest.mark.parametrize("seed, restart_at", [(0, 71), (5, 57)])
    def test_restart_on_the_last_allowed_iteration(self, gamma, seed, restart_at):
        # with the cap at restart_at the last allowed iteration restarts:
        # iteration 71 is also the first of its block, 57 lies inside one
        G = offset_gradient(seed, 6, 15, 10.0)
        a, b = marginals(6, 15)
        before = self.check_against_reference(G, a, b, gamma, None, restart_at - 1)
        at = self.check_against_reference(G, a, b, gamma, None, restart_at)
        assert before[3] == restart_at - 1 and at[3] == restart_at
        assert at[5] == before[5] + 1

    @pytest.mark.parametrize("max_iters", [60, 65, 300])
    def test_out_of_range_inside_a_block(self, max_iters):
        # the scalings leave the range at iteration 57, so the rest of the
        # block 51-60 runs unchecked and is dropped; any warning from those
        # dropped iterates would fail the test
        G = offset_gradient(5, 6, 15, 10.0)
        a, b = marginals(6, 15)
        out = self.check_against_reference(G, a, b, 1e-5, None, max_iters)
        assert out[5] >= 1

    def test_stops_on_schedule_after_a_restart(self):
        # a restart inside a block moves no stopping test: the run still
        # stops at a multiple of LMO_CHECK_EVERY, here 800
        G = offset_gradient(0, 6, 15, 0.0)
        a, b = marginals(6, 15)
        out = self.check_against_reference(G, a, b, 0.1, None, 2000)
        assert out[5] >= 1 and out[3] == 800


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
        C_d = _sinkhorn_lmo(G, a, b, 2.0 / 3.0, None, 200)[0]
        assert np.allclose(C, C0 + (2.0 / 3.0) * (C_d - C0))

    def test_objective_never_increases_from_start(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            ctx = convex_context(rng)
            w = ObjectiveWeights(lam2=float(rng.uniform(0.0, 0.5)))
            _, diag = cg_solve(ctx, w, cg_iters=30, admm_iters=200)
            assert diag.objective_trace[-1] <= diag.objective_trace[0] + 1e-8

    def test_feasibility_of_every_iterate(self):
        # matched point clouds whose graphs come from the data itself
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
            assert max(diag.row_residuals) <= 1e-3
            assert max(diag.col_residuals) <= 1e-3
            assert min(diag.min_entries) >= -1e-4

    @pytest.mark.parametrize("cap", [1, 150])
    def test_iterates_exactly_feasible_at_any_oracle_cap(self, cap):
        # every oracle plan is rounded onto the polytope, so the iterates
        # stay feasible to rounding even when the oracle stops after one
        # Sinkhorn iteration
        rng = np.random.default_rng(99)
        for _ in range(10):
            ctx = convex_context(rng)
            lam2 = float(rng.uniform(0.0, 0.5))
            _, diag = cg_solve(ctx, ObjectiveWeights(lam2=lam2), cg_iters=25, admm_iters=cap)
            assert max(diag.row_residuals) <= 1e-12
            assert max(diag.col_residuals) <= 1e-12
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
        C, diag = cg_solve(ctx, ObjectiveWeights(lam2=0.3), cg_iters=15, admm_iters=300)
        assert C.min() >= -1e-4
        assert C.max() <= 1.0 + 1e-3

    def test_diagnostics_shape_and_serialization(self):
        rng = np.random.default_rng(16)
        ctx = convex_context(rng, ns=3, nt=3)
        _, diag = cg_solve(ctx, ObjectiveWeights(), cg_iters=4, admm_iters=50)
        assert len(diag.objective_trace) == 5
        assert len(diag.gap_trace) == 5
        assert len(diag.row_residuals) == 5
        assert len(diag.lp_iterations) == 5
        assert len(diag.lp_restarts) == 5
        assert len(diag.lp_marginal_errors) == 5
        assert diag.final_gap == diag.gap_trace[-1]
        assert diag.wall_time > 0.0
        d = asdict(diag)
        assert set(d) == {
            "objective_trace", "gap_trace", "row_residuals", "col_residuals",
            "min_entries", "lp_iterations", "lp_restarts", "lp_marginal_errors",
            "final_gap", "wall_time",
        }

    @pytest.mark.parametrize("steps", [1, 4])
    def test_certifying_pass_is_the_next_step_prefix(self, steps):
        # the last pass of a run of T steps certifies the returned C without
        # moving it, so its record is the prefix of a run of T + 1 steps
        from hgmda.data import class_index_sets
        from hgmda.graphs import build_sparse_tensor

        rng = np.random.default_rng(18)
        base = convex_context(rng, ns=6, nt=8, d=3)
        ctx = ObjectiveContext(
            Xs=base.Xs, Xt=base.Xt, Ds=base.Ds, Dt=base.Dt,
            tensor=build_sparse_tensor(base.Xs, base.Xt, seed=3),
            class_groups=class_index_sets(1 + np.arange(6) % 2, 2),
        )
        w = ObjectiveWeights(lam2=0.1, lam3=0.05, lam_g=0.01)
        _, short = cg_solve(ctx, w, cg_iters=steps, admm_iters=300)
        _, longer = cg_solve(ctx, w, cg_iters=steps + 1, admm_iters=300)
        assert ctx.tensor.m > 0
        for name in (
            "objective_trace", "gap_trace", "lp_iterations", "lp_restarts",
            "lp_marginal_errors", "row_residuals", "col_residuals", "min_entries",
        ):
            assert getattr(short, name) == getattr(longer, name)[: steps + 1], name
        assert short.final_gap == longer.gap_trace[steps]

    def test_rejects_bad_iteration_counts(self):
        rng = np.random.default_rng(17)
        ctx = convex_context(rng, ns=3, nt=3)
        with pytest.raises(ValueError):
            cg_solve(ctx, ObjectiveWeights(), cg_iters=0, admm_iters=300)
