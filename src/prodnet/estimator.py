"""Monte Carlo estimation of the resilience metric and its curve.

Resilience at tolerance eps is the largest shock level x at which at
least s_min = ceil((1-eps) K) products survive with probability at least
1 - 1/K.  All levels share trial randomness: trial t's draws depend only
on (seed, t), and with the failure thresholds theta of `percolation`
trial t keeps s_min survivors at x iff x <= u_t, its s_min-th largest
theta.  The survival estimate at x is the share of trials with u_t >= x,
so one sort of theta serves every level and the whole eps grid, and the
curve is exactly nonincreasing in x and nondecreasing in eps.  The
estimate is the exact supremum of the qualifying levels, read off one
order statistic of u, so no grid of x levels is searched.

theta comes block by block from `percolation._theta_blocks`, the one
generator that batches also reduce, and each block is ranked and reduced
to its u_t per s_min before the next is drawn.  A curve therefore holds
O(B K + E) memory for B trials to a block, plus O(trials |eps|) for the
u_t, and never a (trials, K) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, allocate, check_int, check_real, shown
from .network import ProductionNetwork
from .percolation import PercolationConfig, _theta_blocks, derive_subseed, run_batch

DEFAULT_EPSILON_GRID = tuple(round(0.05 * i, 2) for i in range(1, 20))
_CEIL_GUARD = 1e-9  # absorbs float fuzz in (1-eps)*K before the ceiling


def _s_min(epsilon: float, k: int) -> int:
    return int(math.ceil((1.0 - epsilon) * k - _CEIL_GUARD))


def _survival_levels(net: ProductionNetwork, n: int, trials: int, seed: int, s_mins) -> list:
    """Per s_min, the ascending levels u_t with S_t(x) >= s_min iff x <= u_t.

    Each block of trials is ranked, and only its u_t are kept.
    """
    blocks = _theta_blocks(net, n, 1.0, seed, trials)
    request = f"the survival levels of {trials} trials at {len(s_mins)} tolerances"
    levels = allocate(request, np.full, (len(s_mins), trials), np.inf)
    for start, ranked in blocks:
        ranked.sort(axis=1)
        for row, s in zip(levels, s_mins):
            if s > 0:
                row[start : start + len(ranked)] = ranked[:, -s]
        del ranked  # before the next block is drawn
    levels.sort(axis=1)
    return list(levels)


def _resilience(levels: np.ndarray, k: int) -> float:
    """Largest x in [0, 1] at which the survival estimate reaches 1 - 1/K.

    The estimate qualifies at x iff at least `need` trials have u_t >= x,
    i.e. iff x <= top, the need-th largest u_t; the supremum is top
    clamped to 1, and it is attained.
    """
    trials = len(levels)
    need = int(np.argmax(np.arange(trials + 1) / trials >= 1.0 - 1.0 / k))
    return min(float(levels[trials - need]), 1.0) if need else 1.0


def estimate_survival_prob(
    net: ProductionNetwork,
    x: float,
    n: int,
    epsilon: float,
    trials: int,
    seed: int = 0,
) -> tuple[float, float]:
    """Estimate Pr[S >= ceil((1-eps) K)] with its binomial standard error.

    p_hat is the share of a batch's trials at x with that many survivors:
    trial t has them iff x <= u_t, so it equals the curve's estimate.
    """
    check_real(x, "x")
    check_real(epsilon, "epsilon", "(0, 1)")
    n, trials = check_int(n, "n"), check_int(trials, "trials")
    survivors = run_batch(net, PercolationConfig(x, n=n, seed=seed), trials).S
    p_hat = float(np.count_nonzero(survivors >= _s_min(epsilon, net.node_count))) / trials
    return p_hat, math.sqrt(p_hat * (1.0 - p_hat) / trials)


def _curve_points(
    net: ProductionNetwork, epsilons: list[float], n: int, trials: int, seed: int
) -> list[tuple[float, float]]:
    """Per epsilon, (r_hat, survival estimate at r_hat) from one set of draws."""
    k = net.node_count
    all_levels = _survival_levels(net, n, trials, seed, [_s_min(e, k) for e in epsilons])
    r_hats = [_resilience(levels, k) for levels in all_levels]
    return [(r, float(trials - np.searchsorted(levels, r)) / trials) for r, levels in zip(r_hats, all_levels)]


def estimate_resilience(
    net: ProductionNetwork,
    epsilon: float,
    n: int = 1,
    trials: int = 1000,
    seed: int = 0,
) -> float:
    """Estimated resilience at a single tolerance eps."""
    check_real(epsilon, "epsilon", "(0, 1)")
    n, trials = check_int(n, "n"), check_int(trials, "trials")
    return _curve_points(net, [epsilon], n, trials, seed)[0][0]


@dataclass
class ResilienceCurve:
    """Estimated resilience over an eps grid plus its area under the curve."""

    epsilon_grid: np.ndarray
    r_hat: np.ndarray
    stderr: np.ndarray  # binomial SE of the survival estimate p_hat at r_hat, not an error bar on r_hat
    auc: float
    trials: int
    seed: int
    n: int


def _auc_flat_extension(eps: np.ndarray, r: np.ndarray) -> float:
    # extend the first/last estimates flat to the [0, 1] boundary
    xs = np.concatenate(([0.0], eps, [1.0]))
    ys = np.concatenate(([r[0]], r, [r[-1]]))
    return float(np.trapezoid(ys, xs))


def resilience_curve(
    net: ProductionNetwork,
    epsilon_grid=DEFAULT_EPSILON_GRID,
    n: int = 1,
    trials: int = 1000,
    seed: int = 0,
) -> ResilienceCurve:
    """Estimate resilience across an eps grid with shared trial draws.

    The shared draws make r_hat exactly nondecreasing in eps.  The AUC is
    the trapezoidal integral over [0, 1] with the boundary estimates
    extended flat.
    """
    try:
        eps = np.array([check_real(e, "epsilon", "(0, 1)") for e in epsilon_grid])
    except TypeError:  # not iterable
        raise ParameterError(f"epsilon_grid must be a sequence of reals, got {shown(epsilon_grid)}") from None
    if eps.size == 0:
        raise ParameterError("epsilon_grid must not be empty")
    if np.any(np.diff(eps) <= 0.0):
        raise ParameterError("epsilon_grid must be strictly increasing")
    n, trials = check_int(n, "n"), check_int(trials, "trials")
    results = _curve_points(net, eps.tolist(), n, trials, seed)
    r_hat = np.array([r for r, _ in results])
    p_at = np.array([p for _, p in results])
    stderr = np.sqrt(p_at * (1.0 - p_at) / trials)
    return ResilienceCurve(
        epsilon_grid=eps,
        r_hat=r_hat,
        stderr=stderr,
        auc=_auc_flat_extension(eps, r_hat),
        trials=int(trials),
        seed=int(seed),
        n=int(n),
    )


def estimate_resilience_ensemble(
    networks,
    epsilon: float,
    n: int = 1,
    trials: int = 1000,
    seed: int = 0,
) -> tuple[float, float, np.ndarray]:
    """Mean resilience over realized networks, with its standard error.

    Each realization is estimated on its own (K is known per network) with
    a derived per-network seed; the ensemble expectation in the metric's
    definition is reported as mean +/- stderr across realizations.
    """
    networks = list(networks)
    if not networks:
        raise ParameterError("the ensemble must hold at least one network")
    seeds = [derive_subseed(seed, i) for i in range(len(networks))]
    values = np.array(
        [estimate_resilience(g, epsilon, n, trials, s) for g, s in zip(networks, seeds)]
    )
    stderr = float(values.std(ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(values.mean()), stderr, values
