"""Conditional-gradient (Frank-Wolfe) outer loop with consensus-ADMM inner
linear programs.

Each outer iteration linearizes the matching objective at the current C and
asks for the polytope point minimizing Tr(G^T C). That LP is split into
three blocks, one per constraint (row sums, column sums, non-negativity),
coupled through a consensus variable Z; every block update is closed form
(the three-block consensus form of Boyd et al. 2011, Distributed
Optimization and Statistical Learning via ADMM, section 7.1).
The penalty is fixed at rho = 1; since scaling rho is equivalent to scaling
G, the gradient is normalized internally to a fixed working magnitude
instead, which keeps the sweep budget equally effective across gradient
scales. The budget is a cap: every RESIDUAL_CHECK_EVERY sweeps the primal
consensus residual max |Ci - Z| and the dual residual max |Z - Z_prev| are
checked, and the run stops once both fall below RESIDUAL_TOL (the stopping
rule of Boyd et al. 2011, section 3.3), measured in the normalized working
units.

The sweep runs on Z and the non-negativity dual Y3 alone. The three block
residuals Ci - Z' sum to zero, so the duals keep Y1 + Y2 + Y3 = 0 from a
start that has it (AdmmState.cold does). With W = Z - Gw/2 and the block
multipliers r = (rowsum(W - Y1) - a)/nt and c = (colsum(W - Y2) - b)/ns,
the blocks then sum to C1 + C2 + C3 = 2W + max(Z, Y3) - r (+) c, and one
sweep reduces to

    M   = max(Z, Y3)
    Z'  = (2Z - Gw + M - r (+) c) / 3
    Y3' = M - Z'
    r'  = r + (2 rowsum(Z') - rowsum(Z) - a) / nt
    c'  = c + (2 colsum(Z') - colsum(Z) - b) / ns

where r (+) c is the outer sum r[:, None] + c[None, :]: eight elementwise
passes and two axis sums over the matrix, where the three-block form makes
twenty. The marginal duals follow from these, Y1' = W - r[:, None] - Z' and
Y2' = W - c[None, :] - Z', and are rebuilt only at residual checks and on
exit.

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
    """Consensus variable and duals of the LP splitting, as left by the last
    sweep of an admm_lp call.

    The duals always satisfy Y1 + Y2 + Y3 = 0, which the reduced sweep
    relies on: cold() starts there and every sweep keeps it. admm_lp carries
    only Z and Y3 from sweep to sweep and rebuilds Y1 and Y2 on exit, so a
    warm start sees the same duals the three-block sweep would have left.
    primal_residual and dual_residual are the residuals of the last sweep
    of the last call (max |Ci - Z| and max |Z - Z_prev|, in normalized
    working units). Because every call renormalizes G to the same working
    magnitude, carried duals keep a consistent scale across warm starts.
    """

    Z: np.ndarray
    Y1: np.ndarray
    Y2: np.ndarray
    Y3: np.ndarray
    rho: float = 1.0
    iterations: int = 0  # sweeps actually run, summed over warm starts
    primal_residual: float = np.nan
    dual_residual: float = np.nan

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


def _marginal_duals(half, Z, r, c, Z_next):
    """Y1 and Y2 after the sweep that took Z to Z_next with multipliers r, c."""
    D = Z - half - Z_next
    return D - r[:, None], D - c


def admm_lp(G, a, b, iters=300, state=None, gradient_scale=None):
    """Approximately minimize Tr(G^T C) over
    {C >= 0, C 1 = a, C^T 1 = b} by three-block consensus ADMM.

    Runs at most iters (>= 1) sweeps, stopping early once the primal
    residual max |Ci - Z| and the dual residual max |Z - Z_prev| are both
    below RESIDUAL_TOL at a check made every RESIDUAL_CHECK_EVERY sweeps.
    Returns (C, state): C is the final consensus variable with small ADMM
    negatives clamped to zero, state can be passed back in to warm-start the
    next call, counts the sweeps run in state.iterations and holds the
    residuals of the last sweep. gradient_scale overrides the standalone
    working magnitude; calls that share a state must use the same value, or
    the carried duals land at the wrong scale. Each sweep is the reduced
    recursion on Z and Y3 described in the module docstring.
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
    half = Gw / 2.0
    Z, Y1, Y2, Y3 = state.Z, state.Y1, state.Y2, state.Y3
    r = ((Z - half - Y1).sum(axis=1) - a) / nt
    c = ((Z - half - Y2).sum(axis=0) - b) / ns
    rows, cols = Z.sum(axis=1), Z.sum(axis=0)
    # Z' rotates through three buffers because a residual check needs the
    # Z two sweeps back to rebuild the duals that entered the sweep
    z_bufs = [np.empty_like(Z) for _ in range(3)]
    y_bufs = [np.empty_like(Z) for _ in range(2)]
    entering = None  # (Z, r, c) the previous sweep started from
    for sweeps in range(1, iters + 1):
        Z_next, Y3_next = z_bufs[sweeps % 3], y_bufs[sweeps % 2]
        np.maximum(Z, Y3, out=Y3_next)  # M until the last line of the sweep
        np.multiply(Z, 2.0, out=Z_next)
        Z_next -= Gw
        Z_next += Y3_next
        Z_next -= r[:, None]
        Z_next -= c
        Z_next /= 3.0
        Y3_next -= Z_next
        if sweeps % RESIDUAL_CHECK_EVERY == 0 or sweeps == iters:
            Y1_in, Y2_in = (Y1, Y2) if entering is None else _marginal_duals(half, *entering, Z)
            Y1, Y2 = _marginal_duals(half, Z, r, c, Z_next)
            primal = max(np.abs(Y1 - Y1_in).max(), np.abs(Y2 - Y2_in).max(),
                         np.abs(Y3_next - Y3).max())
            dual = np.abs(Z_next - Z).max()
            if sweeps == iters or (primal < RESIDUAL_TOL and dual < RESIDUAL_TOL):
                Z, Y3 = Z_next, Y3_next
                break
        entering = (Z, r, c)
        rows_next, cols_next = Z_next.sum(axis=1), Z_next.sum(axis=0)
        r = r + (2.0 * rows_next - rows - a) / nt
        c = c + (2.0 * cols_next - cols - b) / ns
        Z, Y3, rows, cols = Z_next, Y3_next, rows_next, cols_next
    state.Z, state.Y1, state.Y2, state.Y3 = Z, Y1, Y2, Y3
    state.primal_residual, state.dual_residual = float(primal), float(dual)
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
    stop cut the budget short; lp_primal_residuals and lp_dual_residuals
    hold the residuals of each call's last sweep in the same order, in the
    normalized working units the stop is tested in.
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
    lp_primal_residuals: list = field(default_factory=list)
    lp_dual_residuals: list = field(default_factory=list)
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
            "lp_primal_residuals": list(self.lp_primal_residuals),
            "lp_dual_residuals": list(self.lp_dual_residuals),
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
        diag.lp_primal_residuals.append(state.primal_residual)
        diag.lp_dual_residuals.append(state.dual_residual)
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
