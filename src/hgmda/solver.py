"""Conditional-gradient (Frank-Wolfe) outer loop with an entropic linear
minimization oracle, and the paper's consensus-ADMM linear program.

Each outer iteration t linearizes the matching objective at the current C
and asks for the polytope point minimizing Tr(G^T C). cg_solve answers with
an entropic transport plan (Cuturi 2013, Sinkhorn Distances) at temperature

    eps_t = LMO_EPS_FACTOR * gamma_t * max|G| / log(ns nt),

where gamma_t = 2/(t+2) is the step the plan enters with, so the oracle's
error shrinks with the step as an approximate-oracle Frank-Wolfe needs
(Jaggi 2013, Revisiting Frank-Wolfe, Thm 1). Sinkhorn runs as kernel
scaling with absorption into log potentials (Schmitzer 2019, Stabilized
sparse scaling algorithms): P = diag(u) K diag(v) with
K = exp((f (+) g - G)/eps), and each (re)start sets f and then g by one
exact log-domain row and column update, so no kernel row or column
underflows. The scalings are folded into f and g, and the kernel rebuilt,
whenever they leave [1/SCALING_BOUND, SCALING_BOUND]. Successive gradients
are close, so each call starts from the previous call's column potential
g. A call stops once the L1 row-marginal error is at most
LMO_TOL_FACTOR * gamma_t * ns, tested every LMO_CHECK_EVERY iterations, or
at its iteration cap. An iteration is two divisions and two matrix-vector
products, written into preallocated vectors through views and bound
methods made once per call: about 3.9 us at 40 x 100 on one core, of
which the four numpy calls take about 2.6 us; the rest is Python and
dispatch. So the scaling range is tested once per block of iterations
that ends at a stopping test or the cap, by one min and one max over a
buffer that holds the block's u and v; a test at every iteration, four
reductions and two fresh vectors, took about 8.8 us per iteration. The
outputs are those of a test at every iteration. The plan is then rounded exactly onto
the polytope by Algorithm 2 of Altschuler, Weed & Rigollet 2017
(Near-linear time approximation algorithms for optimal transport via
Sinkhorn iteration):
scale down the rows, then the columns, that exceed their marginal, and add
the rank-one outer product of the remaining deficits. Every oracle output is therefore feasible to rounding,
however few iterations ran, and so is every iterate.

The gap each pass records is certified by LP duality. The c-transforms
of the row potential f, v_j = min_i (G_ij - f_i) and then
u_i = min_j (G_ij - v_j), give a dual-feasible pair, so by weak duality
a.u + b.v bounds the LP minimum from below and <G, C> - (a.u + b.v) bounds
the exact Frank-Wolfe gap at C from above.

admm_lp is the paper's LP routine, used standalone (lp-check, the LP
acceptance criterion); cg_solve does not call it. It is three-block
consensus ADMM (Boyd et al. 2011, Distributed Optimization and Statistical
Learning via ADMM, sections 3.3 and 7.1), one closed-form block per
constraint. The penalty is fixed at rho = 1; since scaling rho is
equivalent to scaling G, the gradient Gw is G normalized to the working
magnitude GRADIENT_SCALE instead, which keeps the sweep budget equally
effective across gradient scales.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .objective import marginals, total_objective, uniform_matching

# max-abs gradient magnitude admm_lp solves at (see module docstring)
GRADIENT_SCALE = 8.0

# absolute primal/dual residual bound that ends an ADMM run early, checked
# every RESIDUAL_CHECK_EVERY sweeps
RESIDUAL_TOL = 1e-6
RESIDUAL_CHECK_EVERY = 25

# schedule of the Frank-Wolfe oracle (see module docstring): temperature and
# stopping tolerance per unit of the step gamma_t, how often the stop is
# tested, and the range the Sinkhorn scalings may reach before absorption
LMO_EPS_FACTOR = 0.1
LMO_TOL_FACTOR = 0.01
LMO_CHECK_EVERY = 10
SCALING_BOUND = 1e50
# exponents are floored here before exp: exp(-460) ~ 1e-200 keeps every
# kernel entry positive, so no scaling divides by zero, and keeps it and its
# products with scalings inside the bounds above clear of subnormal floats,
# whose arithmetic is up to 100x slower; such an entry adds at most 1e-100
# to the plan
LOG_FLOOR = -460.0


@dataclass
class AdmmState:
    """How an admm_lp call ended: the sweeps it ran, and the primal and dual
    residuals of its last sweep (max |Ci - Z| and max |Z - Z_prev|, in
    normalized working units)."""

    iterations: int
    primal_residual: float
    dual_residual: float


def admm_lp(G, a, b, iters=300):
    """Approximately minimize Tr(G^T C) over
    {C >= 0, C 1 = a, C^T 1 = b} by three-block consensus ADMM.

    Starts from the uniform feasible Z with the duals preloaded against the
    gradient (at consensus the marginal blocks see Y1 = Y2 = -Gw/2 up to
    constant shifts, and the duals sum to zero), which spares the sweeps
    that would otherwise just grow them to that magnitude. Runs at most
    iters (>= 1) sweeps, stopping early once the primal residual
    max |Ci - Z| and the dual residual max |Z - Z_prev| are both below
    RESIDUAL_TOL at a check made every RESIDUAL_CHECK_EVERY sweeps.
    Returns (C, AdmmState): C is the final consensus variable with small
    ADMM negatives clamped to zero.
    """
    ns, nt = G.shape
    if len(a) != ns or len(b) != nt:
        raise ValueError("marginal lengths do not match the gradient shape")
    if iters < 1:
        raise ValueError("admm_lp needs at least 1 sweep")
    scale = np.abs(G).max()
    Gw = G * (GRADIENT_SCALE / scale) if scale > 0.0 else np.zeros_like(G)
    half = Gw / 2.0
    Z = np.tile((np.asarray(a, dtype=float) / nt)[:, None], (1, nt))
    Y1, Y2, Y3 = -half, -half, Gw
    for sweeps in range(1, iters + 1):
        W = Z - half
        V1 = W - Y1
        C1 = V1 - ((V1.sum(axis=1) - a) / nt)[:, None]
        V2 = W - Y2
        C2 = V2 - (V2.sum(axis=0) - b) / ns
        C3 = np.maximum(Z - Y3, 0.0)
        Z_prev, Z = Z, (C1 + C2 + C3) / 3.0
        R1, R2, R3 = C1 - Z, C2 - Z, C3 - Z
        Y1, Y2, Y3 = Y1 + R1, Y2 + R2, Y3 + R3
        if sweeps % RESIDUAL_CHECK_EVERY == 0 or sweeps == iters:
            primal = max(np.abs(R1).max(), np.abs(R2).max(), np.abs(R3).max())
            dual = np.abs(Z - Z_prev).max()
            if primal < RESIDUAL_TOL and dual < RESIDUAL_TOL:
                break
    return np.maximum(Z, 0.0), AdmmState(sweeps, float(primal), float(dual))


def _floored_exp(X):
    """exp(X) in place, with X floored at LOG_FLOOR first."""
    np.maximum(X, LOG_FLOOR, out=X)
    return np.exp(X, out=X)


def _log_potentials(G, g, a, b, eps):
    """One exact log-domain row update of f against g, then a column update
    of g against the new f. Returns f, g and their kernel
    exp((f (+) g - G)/eps), whose column sums are b and whose row sums are
    those of a single Sinkhorn step."""
    R = (g - G) / eps
    m = R.max(axis=1, keepdims=True)
    R -= m
    f = eps * (np.log(a) - m[:, 0] - np.log(_floored_exp(R).sum(axis=1)))
    R = (f[:, None] - G) / eps
    m = R.max(axis=0, keepdims=True)
    R -= m
    g = eps * (np.log(b) - m[0] - np.log(_floored_exp(R).sum(axis=0)))
    R = (f[:, None] + g - G) / eps
    return f, g, _floored_exp(R)


def _round_to_polytope(P, a, b):
    """Algorithm 2 of Altschuler, Weed & Rigollet 2017: scale down the rows
    and then the columns above their marginal, and add the outer product of
    the remaining deficits. The deficits are clamped at zero, which they
    are up to rounding, so the result stays non-negative."""
    P = P * np.minimum(a / P.sum(axis=1), 1.0)[:, None]
    P *= np.minimum(b / P.sum(axis=0), 1.0)
    err_a = np.maximum(a - P.sum(axis=1), 0.0)
    err_b = np.maximum(b - P.sum(axis=0), 0.0)
    mass = err_b.sum()
    if mass > 0.0:
        P += np.outer(err_a, err_b / mass)
    return P


def _c_transform_bound(G, f, a, b):
    """a.u + b.v for the dual-feasible pair v = min_i (G - f), then
    u = min_j (G - v): a lower bound on the LP minimum by weak duality."""
    v = (G - f[:, None]).min(axis=0)
    u = (G - v).min(axis=1)
    return float(a @ u + b @ v)


def _sinkhorn_lmo(G, a, b, gamma, g, max_iters):
    """Entropic oracle for min Tr(G^T C) over {C >= 0, C 1 = a, C^T 1 = b}
    at the step gamma, warm-started from the column potential g (zeros when
    None), for at most max_iters (>= 1) Sinkhorn iterations.

    Returns (C_d, g, bound, iterations, marginal_error, restarts): C_d is
    the plan rounded onto the polytope, g the column potential to
    warm-start the next call, bound the certified lower bound on the LP
    minimum, marginal_error the L1 row plus column error of the plan before
    rounding, and restarts the absorptions after the first log-domain start.

    The scaling range is tested once per block of iterations, at the next
    stopping test or the cap. A block that leaves it keeps the iterates
    before the first out-of-range one and counts that one, as a test at
    every iteration would.
    """
    ns, nt = G.shape
    if g is None:
        g = np.zeros(nt)
    scale = np.abs(G).max()
    if scale == 0.0:
        return np.outer(a, b) / b.sum(), g, 0.0, 0, 0.0, 0
    eps = LMO_EPS_FACTOR * gamma * scale / np.log(max(ns * nt, 2))
    tol = LMO_TOL_FACTOR * gamma * ns
    low, high = 1.0 / SCALING_BOUND, SCALING_BOUND
    f, g, K = _log_potentials(G, g, a, b, eps)
    u, v = np.ones(ns), np.ones(nt)
    Kv, uK = K.sum(axis=1), np.empty(nt)
    # row i of UV holds the u and then the v of a block's i-th iteration, so
    # a block is range-tested by one min and one max; each iteration takes
    # its views and its bound u.dot from steps, made once per call
    UV = np.empty((LMO_CHECK_EVERY, ns + nt))
    steps = [(row[:ns], row[ns:], row[:ns].dot) for row in UV]
    divide, K_dot = np.divide, K.dot
    iterations = restarts = 0
    while iterations < max_iters:
        size = min(LMO_CHECK_EVERY - iterations % LMO_CHECK_EVERY, max_iters - iterations)
        block = UV[:size]
        # iterates past an out-of-range one are dropped, so their overflow
        # or division by zero is harmless
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            # outputs by position, which numpy parses faster than out=
            for u_next, v_next, u_dot in steps[:size]:
                divide(a, Kv, u_next)
                u_dot(K, uK)
                divide(b, uK, v_next)
                K_dot(v_next, Kv)
        if low <= block.min() and block.max() <= high:
            iterations += size
            last = block[-1].copy()
            u, v = last[:ns], last[ns:]
            if iterations % LMO_CHECK_EVERY == 0 and np.abs(u * Kv - a).sum() <= tol:
                break
            continue
        # NaN compares false, so it counts as out of range
        in_range = (low <= block.min(axis=1)) & (block.max(axis=1) <= high)
        accepted = int(np.argmin(in_range))
        if accepted:
            v = steps[accepted - 1][1]
        iterations += accepted + 1
        # fold the last accepted column scaling into g and restart from
        # exact updates, which recompute f (and so absorb u) from g
        f, g, K = _log_potentials(G, g + eps * np.log(v), a, b, eps)
        u, v = np.ones(ns), np.ones(nt)
        Kv, K_dot = K.sum(axis=1), K.dot
        restarts += 1
    P = u[:, None] * K * v
    marginal_error = float(np.abs(P.sum(axis=1) - a).sum() + np.abs(P.sum(axis=0) - b).sum())
    bound = _c_transform_bound(G, f + eps * np.log(u), a, b)
    return (_round_to_polytope(P, a, b), g + eps * np.log(v), bound, iterations,
            marginal_error, restarts)


@dataclass
class CgDiagnostics:
    """Per-pass record of a conditional-gradient run.

    objective_trace and gap_trace hold the objective and the certified
    Frank-Wolfe gap at each pass's C, lp_iterations the Sinkhorn iterations
    of its oracle call, lp_restarts the absorptions that call made after its
    first log-domain start and lp_marginal_errors the L1 marginal error of
    its plan before rounding, the certifying last pass included in all five.
    row/col/min entries track the iterates, the start included. final_gap
    is the gap at the returned C.
    """

    objective_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    row_residuals: list = field(default_factory=list)
    col_residuals: list = field(default_factory=list)
    min_entries: list = field(default_factory=list)
    lp_iterations: list = field(default_factory=list)
    lp_restarts: list = field(default_factory=list)
    lp_marginal_errors: list = field(default_factory=list)
    final_gap: float = np.nan
    wall_time: float = 0.0

    def record_feasibility(self, C, a, b):
        self.row_residuals.append(float(np.abs(C.sum(axis=1) - a).max()))
        self.col_residuals.append(float(np.abs(C.sum(axis=0) - b).max()))
        self.min_entries.append(float(C.min()))


def cg_solve(ctx, weights, cg_iters, admm_iters):
    """Frank-Wolfe with step 2/(t+2) over the matching polytope, from the
    uniform feasible point. Runs cg_iters steps, then one more pass that
    certifies the gap at the returned C and takes no step.

    Returns (C, CgDiagnostics). Each oracle call runs at most admm_iters
    Sinkhorn iterations (the name predates the Sinkhorn oracle).
    """
    if cg_iters < 1 or admm_iters < 1:
        raise ValueError("iteration counts must be >= 1")
    a, b = marginals(ctx.ns, ctx.nt)
    C = uniform_matching(ctx.ns, ctx.nt)
    diag = CgDiagnostics()
    diag.record_feasibility(C, a, b)
    g = None
    start = time.perf_counter()
    for t in range(1, cg_iters + 2):
        value, G = total_objective(C, ctx, weights)
        if not np.isfinite(value):
            raise FloatingPointError("objective became non-finite")
        gamma = 2.0 / (t + 2.0)
        C_d, g, bound, iterations, error, restarts = _sinkhorn_lmo(
            G, a, b, gamma, g, admm_iters)
        diag.objective_trace.append(value)
        diag.gap_trace.append(float(np.vdot(G, C)) - bound)
        diag.lp_iterations.append(iterations)
        diag.lp_restarts.append(restarts)
        diag.lp_marginal_errors.append(error)
        if t > cg_iters:
            break
        C = C + gamma * (C_d - C)
        diag.record_feasibility(C, a, b)
    diag.final_gap = diag.gap_trace[-1]
    diag.wall_time = time.perf_counter() - start
    return C, diag
