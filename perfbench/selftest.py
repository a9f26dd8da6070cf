"""Toy-size self-test of the harness: each output check must pass on a good
outcome and bite on a broken one, and span self times must add up.

    python3 perfbench/selftest.py

run.py calls run() before it measures anything.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

import numpy as np

import checks
import spans


class SelfTestError(RuntimeError):
    pass


def expect(condition, what):
    if not condition:
        raise SelfTestError(f"harness self-test: {what}")


def check_polytope():
    ns, nt = 3, 5
    good = np.full((ns, nt), 1.0 / nt)
    expect(not checks.polytope_failures(good), "a uniform matching must pass")
    row_off = good.copy()
    row_off[1, 0] += 2e-3
    expect(checks.polytope_failures(row_off), "a row off by 2e-3 must fail")
    col_off = good.copy()
    col_off[:, 2] += 2e-3 / ns  # every row sum moves by only 6.7e-4
    col_off[:, 3] -= 2e-3 / ns
    expect(checks.polytope_failures(col_off), "a column off by 2e-3 must fail")
    # a 2x2 cycle moves mass but keeps every row and column sum exact
    negative = good.copy()
    shift = good[0, 0] + 2e-4
    negative[[0, 1], [0, 1]] -= shift
    negative[[0, 1], [1, 0]] += shift
    expect(checks.polytope_failures(negative), "an entry of -2e-4 must fail")
    expect(checks.polytope_failures(good * np.nan), "a non-finite matching must fail")


def check_affine():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(12, 3))
    mapped = X @ rng.normal(size=(3, 3)) + rng.normal(size=3)
    expect(not checks.affine_failures(X, mapped), "an affine image must pass")
    bent = mapped.copy()
    bent[4, 1] += 1e-3
    expect(checks.affine_failures(X, bent), "a moved point must fail")
    expect(checks.affine_failures(X, np.where(np.eye(12, 3) > 0, np.inf, mapped)), "inf must fail")
    expect(checks.affine_failures(X, mapped[:-1]), "a dropped row must fail")


def check_accuracy():
    train_X = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    train_y = np.array([1, 2, 3])
    # (1, 1) is equidistant from all three: the lowest index wins
    test_X = np.array([[1.0, 1.0], [2.1, 0.0], [-1.0, 0.0]])
    expect(list(checks.nn_labels(train_X, train_y, test_X)) == [3, 2, 1], "1-NN labels")
    expect(checks.accuracy(train_X, train_y, test_X, [3, 2, 2]) == 2 / 3, "1-NN accuracy")
    expect(not checks.gain_failures(0.8, 0.7), "a gain must pass")
    expect(checks.gain_failures(0.7, 0.7), "no gain must fail")


def check_record():
    grid = [(0.01, 0.01, 1), (0.01, 0.01, 2)]
    own = {grid[0]: 0.8, grid[1]: 0.9}

    def record(**over):
        fields = dict(per_trial=[0.9], mean=0.9, na_per_trial=[0.7], na_mean=0.7,
                      best_lam2=0.01, best_lam3=0.01, best_n_outer=2)
        fields.update(over)
        return SimpleNamespace(**fields)

    expect(not checks.record_failures(record(), grid, own, 0.7, 40), "a consistent record")
    expect(checks.record_failures(record(mean=0.85), grid, own, 0.7, 40), "mean vs per-trial")
    expect(checks.record_failures(record(best_n_outer=3), grid, own, 0.7, 40), "combo outside grid")
    expect(checks.record_failures(record(per_trial=[0.8], mean=0.8, best_n_outer=1),
                                  grid, own, 0.7, 40), "a combo that is not the best")
    expect(checks.record_failures(record(), grid, own, 0.6, 40), "baseline mismatch")
    expect(not checks.record_failures(record(), grid, {**own, grid[1]: 0.9 + 1 / 40}, 0.7, 40),
           "one test point of slack")


def check_self_times():
    tracer = spans.Tracer()
    for name, parent, start, end in (
        ("op", None, 0.0, 10.0), ("solver.cg", 0, 1.0, 3.0), ("solver.cg", 0, 4.0, 6.0)
    ):
        sp = spans.Span(name, len(tracer.spans), parent, start)
        sp.end = end
        tracer.spans.append(sp)
    tracer.spans[0].paused = 1.0  # tracer work inside the op is not its time
    own = tracer.self_times(tracer.spans)
    expect(own == {"op": 5.0, "solver.cg": 4.0}, f"self times {own}")


def run():
    check_polytope()
    check_affine()
    check_accuracy()
    check_record()
    check_self_times()


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    run()
    print("harness self-test passed")
