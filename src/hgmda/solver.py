"""Conditional-gradient (Frank-Wolfe) outer loop with consensus-ADMM inner
linear programs.

Each outer iteration linearizes the matching objective at the current C and
asks for the polytope point minimizing Tr(G^T C). That LP is split into
three blocks, one per constraint (row sums, column sums, non-negativity),
coupled through a consensus variable Z; every block update is closed form.
The penalty is fixed at rho = 1; since scaling rho is equivalent to scaling
G, the gradient is normalized internally to a fixed working magnitude
instead, which keeps the sweep budget equally effective across gradient
scales. The budget is a cap: every RESIDUAL_CHECK_EVERY sweeps the primal
consensus residual max |Ci - Z| and the dual residual max |Z - Z_prev| are
checked, and the run stops once both fall below RESIDUAL_TOL (the stopping
rule of Boyd et al. 2011, Distributed Optimization and Statistical Learning
via ADMM, section 3.3), measured in the normalized working units.

The working magnitude trades value resolution against feasibility progress
per sweep: the marginal residual after k sweeps grows with the magnitude
while the value error shrinks with it. A standalone call has to resolve the
LP vertex within its own budget, so it defaults to a strong tilt. Inside the
outer loop the LP only has to supply a descent direction (value errors are
amortized by the 2/(t+2) averaging, a standard property of Frank-Wolfe with
approximate oracles) while any feasibility error propagates to every iterate
through the convex combination, so cg_solve runs its subproblems at a gentle
tilt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .objective import marginals, total_objective, uniform_matching

# max-abs gradient magnitudes the LP is solved at (see module docstring);
# standalone solves are value-limited and rectangular in-loop solves are
# feasibility-limited, and no single magnitude serves both
GRADIENT_SCALE = 8.0
CG_GRADIENT_SCALE = 1.0

# absolute primal/dual residual bound that ends an ADMM run early, checked
# every RESIDUAL_CHECK_EVERY sweeps (see module docstring)
RESIDUAL_TOL = 1e-6
RESIDUAL_CHECK_EVERY = 25


@dataclass
class AdmmState:
    """Consensus variable and duals of the LP splitting (the primal blocks
    are recomputed from them each sweep).

    Because every call renormalizes G to the same working magnitude, carried
    duals keep a consistent scale across warm starts.
    """

    Z: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    Y3: np.ndarray
    rho: float = 1.0
    iterations: int = 0  # sweeps actually run, summed over warm starts

    @classmethod
    def cold(cls, a, b, Gw=None):
        """Fresh state: uniform feasible Z; duals pre-loaded against the tilt
        (at consensus the marginal blocks see Y1 = Y2 = -G/2 up to constant
        shifts, and the duals must sum to zero), which spares the sweeps that
        would otherwise just grow the duals to that magnitude."""
        ns, nt = len(a), len(b)
        Z = np.tile((np.asarray(a, dtype=float) / nt)[:, None], (1, nt))
        if Gw is None:
            Y1, Y2, Y3 = (np.zeros((ns, nt)) for _ in range(3))
        else:
            Y1 = -Gw / 2.0
            Y2 = -Gw / 2.0
            Y3 = Gw.copy()
        return cls(Z=Z, Y1=Y1, Y2=Y2, Y3=Y3)


def admm_lp(G, a, b, iters=300, state=None, gradient_scale=None):
    """Approximately minimize Tr(G^T C) over
    {C >= 0, C 1 = a, C^T 1 = b} by three-block consensus ADMM.

    Runs at most iters (>= 1) sweeps, stopping early once the primal
    residual max |Ci - Z| and the dual residual max |Z - Z_prev| are both
    below RESIDUAL_TOL at a check made every RESIDUAL_CHECK_EVERY sweeps.
    Returns (C, state): C is the final consensus variable with small ADMM
    negatives clamped to zero, state can be passed back in to warm-start the
    next call and counts the sweeps run in state.iterations. gradient_scale
    overrides the standalone working magnitude; calls that share a state
    must use the same value, or the carried duals land at the wrong scale.
    """
    ns, nt = G.shape
    if len(a) != ns or len(b) != nt:
        raise ValueError("marginal lengths do not match the gradient shape")
    if iters < 1:
        raise ValueError("admm_lp needs at least 1 sweep")
    if gradient_scale is None:
        gradient_scale = GRADIENT_SCALE
    scale = np.abs(G).max()
    Gw = G * (gradient_scale / scale) if scale > 0.0 else np.zeros_like(G)
    if state is None:
        state = AdmmState.cold(a, b, Gw)
    Z, Y1, Y2, Y3 = state.Z, state.Y1, state.Y2, state.Y3
    half = Gw / 2.0
    for sweeps in range(1, iters + 1):
        Z_prev = Z
        W = Z - half
        V1 = W - Y1
        C1 = V1 - ((V1.sum(axis=1) - a) / nt)[:, None]
        V2 = W - Y2
        C2 = V2 - ((V2.sum(axis=0) - b) / ns)[None, :]
        C3 = np.maximum(Z - Y3, 0.0)
        Z = (C1 + C2 + C3) / 3.0
        R1, R2, R3 = C1 - Z, C2 - Z, C3 - Z
        Y1 += R1
        Y2 += R2
        Y3 += R3
        if sweeps % RESIDUAL_CHECK_EVERY == 0:
            primal = max(np.abs(R1).max(), np.abs(R2).max(), np.abs(R3).max())
            if primal < RESIDUAL_TOL and np.abs(Z - Z_prev).max() < RESIDUAL_TOL:
                break
    state.Z, state.Y1, state.Y2, state.Y3 = Z, Y1, Y2, Y3
    state.iterations += sweeps
    return np.maximum(Z, 0.0), state


def fw_gap(G, C, C_d):
    """Tr(G^T (C - C_d)); upper-bounds the suboptimality at C for convex
    objectives when C_d minimizes the linearization."""
    return float(np.vdot(G, C - C_d))


@dataclass
class CgDiagnostics:
    """Per-iteration record of a conditional-gradient run.

    row/col/min entries track the CG iterates; the lp_* residual lists track
    the raw LP outputs those iterates average, so the convex-combination
    closure (iterate residual never exceeds the worst LP residual seen) can
    be checked from the record alone. lp_sweeps holds the ADMM sweeps each LP
    call ran, the final gap LP included, which shows whether the residual
    stop cut the budget short.
    """

    objective_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    row_residuals: list = field(default_factory=list)
    col_residuals: list = field(default_factory=list)
    min_entries: list = field(default_factory=list)
    lp_row_residuals: list = field(default_factory=list)
    lp_col_residuals: list = field(default_factory=list)
    lp_min_entries: list = field(default_factory=list)
    lp_sweeps: list = field(default_factory=list)
    final_gap: float = np.nan
    wall_time: float = 0.0

    def record_feasibility(self, C, a, b, lp=False):
        rows = float(np.abs(C.sum(axis=1) - a).max())
        cols = float(np.abs(C.sum(axis=0) - b).max())
        low = float(C.min())
        if lp:
            self.lp_row_residuals.append(rows)
            self.lp_col_residuals.append(cols)
            self.lp_min_entries.append(low)
        else:
            self.row_residuals.append(rows)
            self.col_residuals.append(cols)
            self.min_entries.append(low)

    def as_dict(self):
        return {
            "objective_trace": list(self.objective_trace),
            "gap_trace": list(self.gap_trace),
            "row_residuals": list(self.row_residuals),
            "col_residuals": list(self.col_residuals),
            "min_entries": list(self.min_entries),
            "lp_row_residuals": list(self.lp_row_residuals),
            "lp_col_residuals": list(self.lp_col_residuals),
            "lp_min_entries": list(self.lp_min_entries),
            "lp_sweeps": list(self.lp_sweeps),
            "final_gap": self.final_gap,
            "wall_time": self.wall_time,
        }


def cg_solve(ctx, weights, C0=None, cg_iters=20, admm_iters=300, warm_start=True):
    """Frank-Wolfe with step 2/(t+2) over the matching polytope.

    Returns (C, CgDiagnostics). C0 defaults to the uniform feasible point.
    warm_start reuses the ADMM state across outer iterations (successive
    gradients are close, so the duals remain good guesses).
    """
    if cg_iters < 1 or admm_iters < 1:
        raise ValueError("iteration counts must be >= 1")
    a, b = marginals(ctx.ns, ctx.nt)
    C = uniform_matching(ctx.ns, ctx.nt) if C0 is None else np.array(C0, dtype=float)
    diag = CgDiagnostics()
    diag.record_feasibility(C, a, b)
    state = None

    def solve_lp(G):
        nonlocal state
        before = state.iterations if warm_start and state is not None else 0
        C_d, state = admm_lp(G, a, b, iters=admm_iters,
                             state=state if warm_start else None,
                             gradient_scale=CG_GRADIENT_SCALE)
        diag.lp_sweeps.append(state.iterations - before)
        return C_d

    start = time.perf_counter()
    for t_i in range(1, cg_iters + 1):
        value, G = total_objective(C, ctx, weights)
        if not np.isfinite(value):
            raise FloatingPointError("objective became non-finite")
        C_d = solve_lp(G)
        diag.objective_trace.append(value)
        diag.gap_trace.append(fw_gap(G, C, C_d))
        diag.record_feasibility(C_d, a, b, lp=True)
        alpha = 2.0 / (t_i + 2.0)
        C = C + alpha * (C_d - C)
        diag.record_feasibility(C, a, b)
    value, G = total_objective(C, ctx, weights)
    C_d = solve_lp(G)
    diag.objective_trace.append(value)
    diag.final_gap = fw_gap(G, C, C_d)
    diag.gap_trace.append(diag.final_gap)
    diag.wall_time = time.perf_counter() - start
    return C, diag
