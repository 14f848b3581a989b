"""Output checks for the benchmark workloads.

Every check is one that any correct implementation passes, whatever
random stream it draws from: Monte Carlo outputs are compared with exact
values from exhaustive enumeration (or with theorems that bound them)
using Bernstein confidence radii at failure probability `DELTA`, never
with digests of one RNG stream.  A check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import csv
import math

import numpy as np
from numpy.polynomial import chebyshev

# Per-check false-alarm probability.  A hundred benchmark runs make a
# few thousand checks, so a correct program fails one of them with
# probability well under 1e-5.
DELTA = 1e-9
_LOG_TERM = math.log(2.0 / DELTA)


def bernstein_radius(variance: float, span: float, trials: int) -> float:
    """Two-sided Bernstein radius for the mean of `trials` iid draws.

    The draws have the given variance and lie in an interval of length
    `span`; the sample mean is within the radius of the true mean with
    probability at least 1 - DELTA.
    """
    return math.sqrt(2.0 * max(variance, 0.0) * _LOG_TERM / trials) + 2.0 * span * _LOG_TERM / (
        3.0 * trials
    )


def read_rows(path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_histogram(path) -> np.ndarray:
    """Counts per failure count f from a `simulate` CSV."""
    header, rows = read_rows(path)
    if header != ["f", "count", "frequency"]:
        raise ValueError(f"unexpected histogram header {header}")
    return np.array([int(r[1]) for r in rows], dtype=np.int64)


def read_curve(path) -> tuple[np.ndarray, np.ndarray]:
    """(epsilon, r_hat) from a `resilience` CSV."""
    header, rows = read_rows(path)
    if header != ["epsilon", "r_hat", "stderr"]:
        raise ValueError(f"unexpected resilience header {header}")
    return (
        np.array([float(r[0]) for r in rows]),
        np.array([float(r[1]) for r in rows]),
    )


def read_beta(path) -> np.ndarray:
    """Per-product beta (index i-1 for product i) from a `beta` CSV."""
    header, rows = read_rows(path)
    if header != ["product", "beta", "rank"]:
        raise ValueError(f"unexpected beta header {header}")
    beta = np.full(len(rows), np.nan)
    for r in rows:
        beta[int(r[0]) - 1] = float(r[1])
    return beta


def auc_flat(eps: np.ndarray, r: np.ndarray) -> float:
    """Trapezoid AUC over [0, 1] with the end values extended flat."""
    xs = np.concatenate(([0.0], eps, [1.0]))
    ys = np.concatenate(([r[0]], r, [r[-1]]))
    return float(np.sum((xs[1:] - xs[:-1]) * (ys[1:] + ys[:-1]) / 2.0))


# -- histogram checks --------------------------------------------------------


def check_histogram(counts: np.ndarray, k: int, trials: int) -> list[str]:
    problems = []
    if len(counts) != k + 1:
        problems.append(f"histogram has {len(counts)} rows, expected K+1 = {k + 1}")
    if int(counts.sum()) != trials or np.any(counts < 0):
        problems.append(f"histogram counts sum to {int(counts.sum())}, expected {trials}")
    return problems


def check_against_exact(counts: np.ndarray, stats, trials: int) -> list[str]:
    """Mean F and Pr[S >= s] within Bernstein radii of the exact values.

    `stats` is an exact-statistics object with pmf, mean_f and var_f (as
    returned by the test oracles' exhaustive enumeration).
    """
    k = len(stats.pmf) - 1
    problems = check_histogram(counts, k, trials)
    if problems:
        return problems
    fs = np.arange(k + 1)
    mean_hat = float((counts * fs).sum()) / trials
    radius = bernstein_radius(stats.var_f, k, trials) + 1e-9
    if abs(mean_hat - stats.mean_f) > radius:
        problems.append(f"mean F {mean_hat:.5f} vs exact {stats.mean_f:.5f} (radius {radius:.5f})")
    for s in (math.ceil(k / 2), k):
        p = float(stats.pmf[: k - s + 1].sum())
        p_hat = float(counts[: k - s + 1].sum()) / trials
        radius = bernstein_radius(p * (1.0 - p), 1.0, trials) + 1e-9
        if abs(p_hat - p) > radius:
            problems.append(f"Pr[S >= {s}] {p_hat:.5f} vs exact {p:.5f} (radius {radius:.5f})")
    return problems


def check_large_batch(counts: np.ndarray, k: int, trials: int, q: float) -> list[str]:
    """Mean F at least the spontaneous-failure mean K q, less its radius.

    Every spontaneous product fails, and the spontaneous count over all
    trials is a sum of K * trials independent Bernoulli(q) draws.
    """
    problems = check_histogram(counts, k, trials)
    if problems:
        return problems
    mean_hat = float((counts * np.arange(k + 1)).sum()) / trials
    radius = k * bernstein_radius(q * (1.0 - q), 1.0, k * trials)
    if mean_hat < k * q - radius:
        problems.append(f"mean F {mean_hat:.2f} below the spontaneous mean {k * q:.2f} - {radius:.2f}")
    return problems


def closure_sizes(k: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(descendants, ancestors) of each product, itself included, by DFS."""
    succ = [[] for _ in range(k)]
    for j, i in edges:
        succ[j - 1].append(i - 1)
    descendants = np.zeros(k, dtype=np.int64)
    ancestors = np.zeros(k, dtype=np.int64)
    for v in range(k):
        seen, stack = {v}, [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        descendants[v] = len(seen)
        ancestors[list(seen)] += 1
    return descendants, ancestors


def check_node_batch(counts: np.ndarray, trials: int, q: float, descendants, ancestors) -> list[str]:
    """Mean F within a McDiarmid radius of its exact value under node percolation.

    Product i fails exactly when one of its ancestors (itself included)
    fails spontaneously, so E[F] = sum_i 1 - (1-q)^ancestors_i.  F is a
    function of the K independent spontaneous draws, and flipping draw j
    changes it by at most descendants_j, which bounds the deviation of
    the mean over `trials` trials.
    """
    k = len(descendants)
    problems = check_histogram(counts, k, trials)
    if problems:
        return problems
    mean_hat = float((counts * np.arange(k + 1)).sum()) / trials
    mean = float((1.0 - (1.0 - q) ** ancestors).sum())
    radius = math.sqrt(float((descendants.astype(float) ** 2).sum()) * _LOG_TERM / (2.0 * trials))
    if abs(mean_hat - mean) > radius:
        problems.append(f"mean F {mean_hat:.2f} vs exact {mean:.2f} (radius {radius:.2f})")
    return problems


# -- resilience checks -------------------------------------------------------


def check_curve_shape(eps: np.ndarray, r: np.ndarray, epsilon_grid) -> list[str]:
    problems = []
    if not np.allclose(eps, epsilon_grid):
        problems.append("resilience CSV epsilon column differs from the requested grid")
    if np.any(r < 0.0) or np.any(r > 1.0):
        problems.append("r_hat outside [0, 1]")
    if np.any(np.diff(r) < 0.0):
        problems.append("r_hat decreases in epsilon")
    return problems


class ExactSurvival:
    """Exact Pr[S >= s] under node percolation, for every x at once.

    Each failure pattern has probability q^j (1-q)^(K-j) with q = x^n, so
    every entry of the exact pmf is a polynomial of degree K in q.  It is
    interpolated from the test oracle's exhaustive pmf at K+1 Chebyshev
    points, which is exact up to rounding and makes each later
    evaluation cheap.
    """

    def __init__(self, net):
        from oracles import exact_cascade_stats

        k = net.node_count
        nodes = np.cos(np.pi * (np.arange(k + 1) + 0.5) / (k + 1))  # in (-1, 1), q = (1 + u) / 2
        pmfs = np.array([exact_cascade_stats(net, (1.0 + u) / 2.0, 1.0, 1).pmf for u in nodes])
        self.k = k
        self.coef = chebyshev.chebfit(nodes, pmfs, k)

    def survival(self, x: float, n: int, s: int) -> float:
        pmf = chebyshev.chebval(2.0 * x**n - 1.0, self.coef)
        return float(np.clip(pmf[: self.k - s + 1].sum(), 0.0, 1.0))


def resilience_band(exact: ExactSurvival, n: int, epsilon: float, trials: int, x_step: float):
    """Interval holding the estimated resilience with probability >= 1 - 2 DELTA.

    The estimate qualifies a level x when the share of trials with at
    least s(eps) survivors reaches 1 - 1/K, and shared draws make that
    share nonincreasing in x.  With p(x) the exact survival probability
    and r its Bernstein radius, a level where p - r clears the threshold
    qualifies, and a level where p + r misses it fails, each except with
    probability DELTA.  By monotonicity only the last level of each kind
    matters, so the estimate lies between them; the lower end also allows
    the estimator's x_step/16 search resolution.
    """
    from prodnet.estimator import _s_min

    k = exact.k
    theta = 1.0 - 1.0 / k
    s = _s_min(epsilon, k)

    def margin(x, sign):
        p = exact.survival(x, n, s)
        return p + sign * bernstein_radius(p * (1.0 - p), 1.0, trials) - theta

    def last_true(pred):
        # pred is true at x = 0 side and false beyond some point (monotone in x)
        if pred(1.0):
            return 1.0
        if not pred(0.0):
            return 0.0
        lo, hi = 0.0, 1.0
        for _ in range(48):
            mid = 0.5 * (lo + hi)
            if pred(mid):
                lo = mid
            else:
                hi = mid
        return lo

    lower = last_true(lambda x: margin(x, -1.0) >= 0.0)
    upper = last_true(lambda x: margin(x, +1.0) >= 0.0)
    return max(0.0, lower - x_step / 16.0 - 1e-12), min(1.0, upper + 1e-12)


def check_curve_band(eps: np.ndarray, r: np.ndarray, auc: float, bands) -> list[str]:
    """r_hat per epsilon, and the AUC, inside their exact Monte Carlo bands."""
    problems = []
    lo = np.array([b[0] for b in bands])
    hi = np.array([b[1] for b in bands])
    bad = np.flatnonzero((r < lo) | (r > hi))
    for i in bad[:3]:
        problems.append(f"r_hat({eps[i]:g}) = {r[i]:.6f} outside [{lo[i]:.6f}, {hi[i]:.6f}]")
    auc_lo, auc_hi = auc_flat(eps, lo), auc_flat(eps, hi)
    if not (auc_lo - 1e-12 <= auc <= auc_hi + 1e-12):
        problems.append(f"AUC {auc:.6f} outside [{auc_lo:.6f}, {auc_hi:.6f}]")
    return problems


def check_auc_baseline(auc: float, baseline: float, tolerance: float) -> list[str]:
    if abs(auc - baseline) > tolerance:
        return [f"AUC {auc:.5f} vs recorded baseline {baseline:.5f} (tolerance {tolerance:.5f})"]
    return []


# -- beta and intervention checks -------------------------------------------


def check_beta_agreement(betas: dict[str, np.ndarray], tol: float = 1e-9) -> list[str]:
    names = sorted(betas)
    ref = betas[names[0]]
    problems = []
    for name in names[1:]:
        other = betas[name]
        if other.shape != ref.shape or np.any(np.isnan(other)):
            problems.append(f"beta from {name} does not cover every product")
            continue
        worst = float(np.max(np.abs(other - ref)))
        if worst > tol:
            problems.append(f"beta {name} vs {names[0]} differ by {worst:.3e} > {tol:g}")
    return problems


def check_intervention_sweep(path, t_max: int) -> list[str]:
    header, rows = read_rows(path)
    if header != ["T", "T_frac", "objective", "resilience_lb"]:
        return [f"unexpected intervene header {header}"]
    budgets = [int(r[0]) for r in rows]
    objective = np.array([float(r[2]) for r in rows])
    lower = np.array([float(r[3]) for r in rows])
    problems = []
    if budgets != list(range(t_max + 1)):
        problems.append("intervene rows do not cover T = 0..t_max")
    if np.any(np.diff(objective) > 1e-12 * max(1.0, float(objective.max(initial=0.0)))):
        problems.append("intervene objective increases with T")
    if np.any(np.diff(lower) < -1e-12):
        problems.append("intervene resilience lower bound decreases with T")
    return problems
