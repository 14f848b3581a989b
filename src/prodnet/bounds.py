"""Closed-form and numerically solved resilience bounds per architecture.

Asymptotic results are surfaced as the explicit pre-asymptotic expressions
their proofs actually establish, each labeled with the regime it covers.
Transcendental work happens in log space wherever quantities like
(p*w)**D or m**D threaten overflow, and a size or a supplier count n
beyond float range gives each formula's limit (`_times`, `_power`, `_root`).
Bound values are clamped into [0, 1]
and clamping is flagged (BoundResult fields, or a ClampWarning for the
operations that return a bare float).
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import ParameterError, UnsupportedRegimeError, check_count, check_int, check_real, shown
from .generators import BranchingDistribution

BISECTION_TOL = 1e-10
POPULATION_CAP = 10**9  # runs above this are treated as never going extinct
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class ClampWarning(UserWarning):
    """A bound value fell outside [0, 1] and was clamped."""


@dataclass
class BoundResult:
    """A lower/upper resilience bound pair with its regime label."""

    lower: Optional[float]
    upper: Optional[float]
    regime: str
    lower_clamped: bool = False
    upper_clamped: bool = False


def _clamp01(v: float) -> tuple[float, bool]:
    if v < 0.0:
        return 0.0, True
    if v > 1.0:
        return 1.0, True
    return v, False


def _bound_result(lower_raw: float, upper_raw: float, regime: str) -> BoundResult:
    """The bounds clamped into [0, 1], with a flag for each one clamped."""
    lower, lower_clamped = _clamp01(lower_raw)
    upper, upper_clamped = _clamp01(upper_raw)
    return BoundResult(lower, upper, regime, lower_clamped, upper_clamped)


def _times(count: int, value: float) -> float:
    """count * value for an exact integer count of any size.

    A count beyond float range is taken in log space, as `math.log`
    accepts any int; a product beyond float range is +-inf.
    """
    try:
        return count * value
    except OverflowError:  # count does not convert to a float
        return _exp_times(math.log(count), value)


def _exp_times(log_count: float, value: float) -> float:
    """e**log_count * value, taken in log space; +-inf beyond float range."""
    if value == 0.0:
        return 0.0
    log_size = log_count + math.log(abs(value))
    return math.copysign(math.exp(log_size) if log_size < _LOG_FLOAT_MAX else math.inf, value)


def _power(x: float, n: int) -> float:
    """x**n for x >= 0 and an exact integer n of any size.

    An n beyond float range gives the limit: 0 for x < 1, 1 at x = 1 and
    inf for x > 1.
    """
    try:
        return x**n
    except OverflowError:  # n does not convert to a float, or x**n exceeds it
        return 1.0 if x == 1.0 else 0.0 if x < 1.0 else math.inf


def _root(v: float, n: int) -> float:
    """v**(1/n) for v >= 0 and an exact integer n of any size.

    An n beyond float range gives the limit: 0 at v = 0, and 1 otherwise.
    """
    try:
        return v ** (1.0 / n)
    except OverflowError:  # 1/n does not convert to a float
        return 0.0 if v == 0.0 else 1.0


def _log_times(count: int, value: float) -> float:
    """log(count * value) for an exact integer count of any size and value > 0."""
    try:
        return math.log(count * value)
    except OverflowError:  # count does not convert to a float
        return math.log(count) + math.log(value)


# ---------------------------------------------------------------------------
# Random DAG: cascade-size power law and tail function
# ---------------------------------------------------------------------------


def powerlaw_pmf(f: int, K: int, p: float, x: float, n: int = 1) -> float:
    """Asymptotic cascade-size pmf x^n / (K (1 - (1-x^n)(1-p)^f)).

    Describes the single-seed cascade model on a random DAG: a uniformly
    chosen product fails spontaneously with probability x^n and drags down
    everything it reaches.  Limits p -> 0 (value 1/K), p -> 1 (x^n / K),
    and x -> 1 (1/K) all fall out of the formula; x = 0 gives 0.
    """
    K = check_int(K, "K")
    f = check_int(f, "f")
    if f > K:
        raise ParameterError(f"f must lie in 1..K, got f={shown(f)}, K={shown(K)}")
    check_real(p, "p")
    check_real(x, "x")
    n = check_int(n, "n")
    if x == 0.0:
        return 0.0
    xn = _power(x, n)
    denom = _times(K, 1.0 - (1.0 - xn) * (1.0 - p) ** _times(f, 1.0))
    return xn / denom


def powerlaw_tail_constant(K: int, p: float, x: float, n: int = 1) -> float:
    """The constant C(K, p, x, n) in the tail lower bound Pr[F >= f] >= C/f."""
    K = check_int(K, "K")
    check_real(p, "p")
    check_real(x, "x")
    n = check_int(n, "n")
    if x == 0.0:
        return 0.0
    xn = _power(x, n)
    if p == 1.0:
        return xn / _times(K, 1.0) if xn == 1.0 else 0.0
    return xn / _times(K, 1.0 + (1.0 - xn) * (-math.log1p(-p)))


def cascade_tail_g(x: float, K: int, p: float, epsilon: float, n: int = 1) -> float:
    """Fractional-cascade probability Pr[F >= eps*K] for the random DAG.

    Evaluates the displayed closed form exactly; requires p in (0, 1) so
    log(1/(1-p)) is finite and positive.
    """
    K = check_int(K, "K")
    check_real(p, "p", "(0, 1)")
    check_real(x, "x")
    check_real(epsilon, "epsilon", "(0, 1]")
    n = check_int(n, "n")
    if x == 0.0:
        return 0.0
    xn = _power(x, n)
    log_one_minus_p = math.log1p(-p)
    big_l = -log_one_minus_p
    a = 1.0 - (1.0 - xn) * math.exp(_times(K, log_one_minus_p))
    b = 1.0 - (1.0 - xn) * math.exp(_times(K, epsilon) * log_one_minus_p)
    return xn * (1.0 - epsilon + math.log(a / b) / _times(K, big_l))


def cascade_tail_g_envelope(x: float, K: int, p: float, epsilon: float, n: int = 1) -> float:
    """Analytic majorant of the tail function: x^n (1-eps) + 1/(K log(1/(1-p)))."""
    K = check_int(K, "K")
    check_real(p, "p", "(0, 1)")
    check_real(x, "x")
    check_real(epsilon, "epsilon", "(0, 1]")
    n = check_int(n, "n")
    return _power(x, n) * (1.0 - epsilon) + 1.0 / _times(K, -math.log1p(-p))


def rdag_lb_x(K: int, p: float, epsilon: float, n: int = 1) -> float:
    """Largest closed-form x keeping the tail majorant at O(1/K).

    Returns (1 / (K log(1/(1-p)) (1-eps)))^(1/n) clamped to [0, 1]; at this
    x the majorant equals 2 / (K log(1/(1-p))).
    """
    K = check_int(K, "K")
    check_real(p, "p", "(0, 1)")
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    big_l = -math.log1p(-p)
    value, clamped = _clamp01(_root(1.0 / (_times(K, big_l) * (1.0 - epsilon)), n))
    if clamped:
        warnings.warn("rdag_lb_x clamped to [0, 1]", ClampWarning, stacklevel=2)
    return value


# ---------------------------------------------------------------------------
# Parallel products
# ---------------------------------------------------------------------------


def parallel_bounds(
    K: int, m: int, d: int, epsilon: float, n: int = 1, scope: str = "complex-only"
) -> BoundResult:
    """Resilience bounds for K parallel products with m inputs, dependency d.

    scope selects the product set the bound speaks about: the complex
    products alone or raw materials included.
    """
    K = check_int(K, "K")
    if K < 3:
        raise ParameterError(f"K must be at least 3 for the log terms, got {K}")
    m = check_int(m, "m")
    d = check_int(d, "d")
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    twice_mk = _times(K, _times(m, 2.0))
    if scope == "complex-only":
        lower_raw = _root(epsilon / _times(d * m, 1.0) + math.sqrt(math.log(K) / twice_mk), n)
        upper_raw = _root(1.0 - _root((1.0 - epsilon) / 2.0, m), n)
    elif scope == "all-products":
        lower_raw = _root(
            epsilon / _times(m, _times(d + 1, 2.0)) + math.sqrt(_log_times(K, 0.5) / twice_mk), n
        )
        upper_raw = _root(1.0 - (1.0 - epsilon) / _times(m + 1, 2.0), n)
    else:
        raise ParameterError(f"scope must be 'complex-only' or 'all-products', got {shown(scope)}")
    return _bound_result(lower_raw, upper_raw, scope)


# ---------------------------------------------------------------------------
# Backward (m-ary) supply tree
# ---------------------------------------------------------------------------


def tree_node_count(m: int, D: int) -> int:
    """Products in the complete m-ary supply tree: sum of m^(d-1) over tiers."""
    m = check_int(m, "m")
    D = check_int(D, "D")
    return D if m == 1 else (m**D - 1) // (m - 1)


def _tree_count(m: int, D: int, leaves: bool = False) -> tuple[Callable[[float], float], float]:
    """(count * value as a function of value, log count) for the tree's K products, or its leaves.

    The count, K or the m^(D-1) leaves, is an exact int taken through
    `_times` while m^(D-1) is a float.  Beyond that only its log is formed,
    from D log m, since K = (m^D - 1)/(m - 1) is then m^(D-1)/(1 - 1/m) to
    far below a rounding; so the cost does not grow with D.
    """
    log_leaves = _times(D - 1, math.log(m))
    if log_leaves <= _LOG_FLOAT_MAX:
        count = m ** (D - 1) if leaves else tree_node_count(m, D)
        return partial(_times, count), math.log(count)
    log_count = log_leaves if leaves else log_leaves - math.log1p(-1 / m)
    return partial(_exp_times, log_count), log_count


def tree_bounds(m: int, D: int, epsilon: float, n: int = 1) -> BoundResult:
    """Resilience bounds for the backward m-ary tree of depth D.

    K enters as log K, or as a float that is inf beyond float range; once
    m^(D-1) leaves float range K is taken in log space (`_tree_count`), so
    a tree of any depth gets bounds.  `tree_node_count` gives K itself.
    """
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    m, D = check_int(m, "m"), check_int(D, "D")
    times_k, log_k = _tree_count(m, D)
    k = times_k(1.0)
    if D == 1:  # a lone product keeps its survivor at every x
        lower_raw = 1.0
    else:
        lower_raw = _root(-math.expm1(math.log1p(-1.0 / k) / ((1.0 - epsilon) * k)), n)
    if m == 1:
        regime = "chain"
        upper_raw = _root(2.0 / (k * (1.0 - epsilon)), n)
    else:
        regime = "fanout>=2"
        upper_raw = _root((1.0 - epsilon) * math.log(m) / log_k, n) if D > 1 else math.inf
    return _bound_result(lower_raw, upper_raw, regime)


def tree_tier_survival(m: int, D: int, x: float, n: int = 1) -> np.ndarray:
    """Per-tier production probabilities q_1..q_D at failure level x.

    Tier D holds the raw materials; q satisfies q_d = q_{d+1}^m (1 - x^n)
    with q_{D+1} = 1, so q_d = (1 - x^n)^e_d with e_D = 1 and
    e_d = m e_{d+1} + 1.  The exact exponents are walked up from the raw
    materials and stop at the first tier that underflows to 0.0: every
    tier above it has a larger exponent, so O(D) work in all.
    """
    m = check_int(m, "m")
    D = check_count(D, "D")  # one float per tier
    check_real(x, "x")
    n = check_int(n, "n")
    log_z = math.log1p(-_power(x, n)) if x < 1.0 else -math.inf
    if log_z == 0.0:  # x^n is 0: every tier produces
        return np.ones(D, dtype=np.float64)
    q = np.zeros(D, dtype=np.float64)
    expo = 0
    for d in range(D - 1, -1, -1):
        expo = m * expo + 1
        q[d] = math.exp(_times(expo, log_z))
        if q[d] == 0.0:
            break
    return q


def tree_catastrophe_prob(m: int, D: int, x: float, n: int = 1) -> tuple[float, float]:
    """Probability that at least one raw material malfunctions.

    Returns (exact, envelope): 1 - (1-x^n)^(m^(D-1)) and its lower envelope
    1 - exp(-x^n m^(D-1)), with m^(D-1) in log space beyond float range.
    """
    m = check_int(m, "m")
    D = check_int(D, "D")
    check_real(x, "x")
    n = check_int(n, "n")
    times_leaves = _tree_count(m, D, leaves=True)[0]
    xn = _power(x, n)
    if x >= 1.0:
        return 1.0, -math.expm1(times_leaves(-1.0))
    exact = -math.expm1(times_leaves(math.log1p(-xn)))
    envelope = -math.expm1(times_leaves(-xn))
    return exact, envelope


def tree_expected_survivors_envelope(m: int, D: int, x: float, n: int = 1) -> tuple[float, float]:
    """Proof envelopes (lower, upper) for the expected survivor count, m >= 2.

    These are the analytic devices K (1 - x^n (D-1)) and K x^n (D-1) / 2
    used to derive the resilience bounds; the upper one is an asymptotic
    instrument valid in the large-shock regime, not a uniform bound on
    E[S] (it dips below the truth for small x).
    """
    m = check_int(m, "m")
    if m < 2:
        raise ParameterError(
            "envelope is stated for m >= 2; for m = 1 sum tree_tier_survival instead"
        )
    D = check_int(D, "D")
    check_real(x, "x")
    n = check_int(n, "n")
    times_k = _tree_count(m, D)[0]
    xn = _power(x, n)
    lower, upper = times_k(1.0 - _times(D - 1, xn)), _times(D - 1, times_k(xn)) / 2.0
    if not (math.isfinite(lower) and math.isfinite(upper)):
        raise ParameterError(f"the survivor envelopes for m={shown(m)}, D={shown(D)} exceed float range")
    return lower, upper


# ---------------------------------------------------------------------------
# Forward (branching-process) network
# ---------------------------------------------------------------------------


def _bisect(pred, lo: float, hi: float) -> tuple[float, float]:
    """Halve [lo, hi] to BISECTION_TOL, keeping pred(lo) true and pred(hi) false."""
    while hi - lo > BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def gw_extinction(dist: BranchingDistribution) -> float:
    """Extinction probability: smallest fixed point of the pgf on [0, 1].

    Returns 1 exactly when the mean is <= 1, and 0 exactly when zero
    offspring is impossible.  Otherwise it bisects the survival
    probability s = 1 - eta, the root of `pgf_complement(s) = s` in
    (0, 1], to 1e-10: that form keeps its digits as eta -> 1, where
    eta - pgf(eta) cancels.  An absolute 1e-10 holds no digit of an eta
    near or below it.  So when the first pgf iterate from 0, the
    probability of no offspring, already lies within 1e-10 of eta, the
    iterates, which rise to eta, are followed until they stop rising:
    f' is small there, and they reach eta to relative accuracy in a few
    steps.
    """
    if dist.mean <= 1.0:
        return 1.0
    eta = dist.prob_zero()
    if eta == 0.0:
        return 0.0
    lo, hi = _bisect(lambda s: dist.pgf_complement(s) > s, 0.0, 1.0)
    bisected = 1.0 - 0.5 * (lo + hi)
    if bisected - eta > BISECTION_TOL:
        return bisected
    while (rise := dist.pgf(eta)) > eta:
        eta = rise
    return eta


def _log_expm1_abs(u: float) -> float:
    # log|exp(u) - 1|, stable across magnitudes
    if u > 0.01:
        return u + math.log1p(-math.exp(-u))
    if u > 0.0:
        return math.log(math.expm1(u))
    return math.log(-math.expm1(u))


def _log_geom_sum(r: float, tau: float) -> float:
    """log(sum_{i=0}^{tau-1} r^i) for r >= 0, with tau as a float (inf beyond float range)."""
    if tau == 1.0 or r == 0.0:
        return 0.0
    lr = math.log(r)
    if abs(lr) < 1e-14:
        return math.log(tau)
    return _log_expm1_abs(tau * lr) - _log_expm1_abs(lr)


def _gw_log_survivors(mu: float, tau: float, z: float) -> float:
    """log(z * gsum(mu z)), the log of the expected survivors at z = 1 - x^n; -inf at z = 0."""
    return math.log(z) + _log_geom_sum(mu * z, tau) if z > 0.0 else -math.inf


def _gw_x_interval_top(mu: float, n: int) -> float:
    return 1.0 if mu < 1.0 else _root(1.0 - 1.0 / mu, n)


def _gw_check_regime(mu: float, side: str, epsilon: float):
    check_real(mu, "mu", "(0, inf)")
    gap_top = math.e**2 if side == "upper" else math.e
    if 1.0 <= mu <= gap_top:
        raise UnsupportedRegimeError(
            f"mu={mu:g} lies in the uncovered gap [1, e{'^2' if side == 'upper' else ''}]"
            f" where the root-existence lemma gives no guarantee"
        )
    if mu > 1.0:
        if side == "upper" and (1.0 - epsilon) / 2.0 <= 1.0 / math.log(mu):
            raise UnsupportedRegimeError(
                f"root existence for the upper bound needs (1-epsilon)/2 > 1/log(mu); "
                f"epsilon={epsilon:g} is too large for mu={mu:g}"
            )
        if side == "lower" and epsilon >= (math.log(mu) - 1.0) / mu:
            raise UnsupportedRegimeError(
                f"root existence for the lower bound needs epsilon < (log(mu)-1)/mu; "
                f"epsilon={epsilon:g} is too large for mu={mu:g}"
            )


def gw_bound_upper(mu: float, tau: int, epsilon: float, n: int = 1) -> float:
    """Smallest x making expected survivors <= (1-eps)/2 of expected size.

    Solved by bisection (tolerance 1e-10) on the interval [0, 1] for mu < 1
    and [0, (1 - 1/mu)^(1/n)] for mu > e^2; other regimes are refused.
    """
    tau = check_int(tau, "tau")
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    _gw_check_regime(mu, "upper", epsilon)
    return _gw_upper(mu, tau, epsilon, n)


def gw_bound_lower(mu: float, tau: int, epsilon: float, n: int = 1) -> float:
    """Largest x keeping expected failures <= eps, by bisection to 1e-10."""
    tau = check_int(tau, "tau")
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    _gw_check_regime(mu, "lower", epsilon)
    return _gw_lower(mu, tau, epsilon, n)


def _gw_upper(mu: float, tau: int, epsilon: float, n: int) -> float:
    """gw_bound_upper on checked arguments."""
    t = _times(tau, 1.0)
    # expected-survivor condition: z * gsum(mu z) <= (1 - eps)/2 * gsum(mu)
    log_limit = math.log((1.0 - epsilon) / 2.0) + _log_geom_sum(mu, t)
    sat = lambda x: _gw_log_survivors(mu, t, 1.0 - _power(x, n)) <= log_limit
    hi = _gw_x_interval_top(mu, n)
    if sat(0.0):
        return 0.0
    if not sat(hi):
        raise UnsupportedRegimeError(
            f"no x in [0, {hi:g}] satisfies the survivor condition for "
            f"mu={mu:g}, tau={tau}, epsilon={epsilon:g}"
        )
    return _bisect(lambda x: not sat(x), 0.0, hi)[1]


def _gw_lower(mu: float, tau: int, epsilon: float, n: int) -> float:
    """gw_bound_lower on checked arguments."""
    t = _times(tau, 1.0)
    # expected-failure condition: gsum(mu) - z * gsum(mu z) <= eps, which x = 0 meets
    log_n, log_eps = _log_geom_sum(mu, t), math.log(epsilon)
    if log_n == math.inf:  # an expected size beyond float range (tau -> inf): only x = 0 meets it
        return 0.0

    def sat(x):
        diff = _gw_log_survivors(mu, t, 1.0 - _power(x, n)) - log_n
        return diff >= 0.0 or log_n + math.log(-math.expm1(diff)) <= log_eps

    hi = _gw_x_interval_top(mu, n)
    if sat(hi):
        return hi
    return _bisect(sat, 0.0, hi)[0]


def gw_bounds(mu: float, tau: int, epsilon: float, n: int = 1) -> tuple[float, float]:
    """(upper, lower) resilience bounds for a branching network of depth tau.

    With mu > 1 both tend to 0 as tau grows, and a tau past float range gives that limit.
    """
    return gw_bound_upper(mu, tau, epsilon, n), gw_bound_lower(mu, tau, epsilon, n)


def simulate_extinction_depths(
    dist: BranchingDistribution, max_tau: int = 1000, samples: int = 100_000, seed: int = 0
) -> np.ndarray:
    """Depths at which sampled branching populations die out.

    Returns one entry per sample: the deepest nonempty generation for runs
    that went extinct before max_tau, and 0 for runs still alive at the cap
    (including runs whose population exceeded an internal cap, which are
    certain never to die out up to error eta*^cap).
    """
    max_tau = check_int(max_tau, "max_tau")
    samples = check_count(samples, "samples")
    rng = np.random.default_rng(check_int(seed, "seed", minimum=0))
    z = np.ones(samples, dtype=np.int64)
    tau = np.zeros(samples, dtype=np.int64)
    alive = np.arange(samples)
    depth = 1
    while depth < max_tau and alive.size:
        z_next = dist.level_total(rng, z[alive])
        died = z_next == 0
        tau[alive[died]] = depth
        exploded = z_next > POPULATION_CAP
        keep = ~(died | exploded)
        z[alive] = z_next
        alive = alive[keep]
        depth += 1
    return tau


@dataclass
class GWExpectedBounds:
    """Extinction-time-averaged resilience bounds for a branching network."""

    upper: float
    lower: float
    extinct_fraction: float


def gw_expected_bounds(
    dist: BranchingDistribution, epsilon: float, n: int = 1, max_tau: int = 1000
) -> GWExpectedBounds:
    """Average the per-depth bounds over the exact law of the extinction depth.

    The extinction depth tau, the deepest nonempty generation, has
    Pr[tau <= t] = f_t(0), the t-fold iterate of the pgf (Athreya & Ney,
    Branching Processes, 1972, ch. I).  So depth t weighs s_{t-1} - s_t,
    where the survival probability s_t = 1 - f_t(0) is iterated in that
    complement form (`BranchingDistribution.pgf_complement`).  Depths run
    over 1..max_tau-1, as in `simulate_extinction_depths`; populations
    alive at max_tau - 1 contribute zero, and extinct_fraction is
    f_{max_tau-1}(0).  The sum ends once s stops falling, and a bound's
    bisection is skipped at a depth whose weight can no longer change its
    sum (the bounds lie in [0, 1]).  Neither shortcut changes the result.
    """
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    max_tau = check_int(max_tau, "max_tau")
    mu = dist.mean
    _gw_check_regime(mu, "upper", epsilon)
    _gw_check_regime(mu, "lower", epsilon)
    upper = lower = 0.0
    s, tau = 1.0, 1  # s = s_{tau-1}, the probability of surviving past depth tau - 1
    while tau < max_tau:
        s_next = dist.pgf_complement(s)
        if s_next >= s:  # s is at its fixed point: no later depth carries mass
            break
        weight = s - s_next
        if upper + weight != upper:
            upper += weight * _gw_upper(mu, tau, epsilon, n)
        if lower + weight != lower:
            lower += weight * _gw_lower(mu, tau, epsilon, n)
        s, tau = s_next, tau + 1
    return GWExpectedBounds(upper=upper, lower=lower, extinct_fraction=1.0 - s)


# ---------------------------------------------------------------------------
# Random width-w trellis
# ---------------------------------------------------------------------------


def trellis_bounds(w: int, D: int, p: float, epsilon: float, n: int = 1) -> BoundResult:
    """Regime-labeled resilience bounds for the random width-w trellis.

    Lower bounds equate the proof's expected-failure upper bounds to eps
    (the pw <= 1 constant is 1/(1-pw) for pw < 1 and 1 at pw = 1); upper
    bounds equate its expected-failure lower bounds to (1+eps)K/2.
    """
    w = check_int(w, "w")
    D = check_int(D, "D")
    check_real(p, "p")
    check_real(epsilon, "epsilon", "(0, 1]")
    n = check_int(n, "n")
    K = w * D
    pw = _times(w, p)
    # K = wD cancels to 1/D in the ratios; sizes beyond float range enter as inf
    d, d2 = _times(D, 1.0), _times(D * D, 1.0)
    if pw > 1.0:
        regime = "pw>1"
        log_pw = _log_times(w, p)
        log_gap = math.log(pw - 1.0) if pw < math.inf else log_pw  # log(pw - 1)
        log_lower_xn = math.log(epsilon) + math.log(w) + log_gap - math.log(K) - _times(D, log_pw)
        lower_raw = math.exp(log_lower_xn / _times(n, 1.0))
        upper_raw = _root((1.0 + epsilon) / d, n)
    elif pw == 1.0:
        regime = "pw=1"
        lower_raw = _root(epsilon / d2, n)
        upper_raw = _root(_times(w, 1.0 + epsilon) / d, n)
    else:
        regime = "pw<1"
        lower_raw = _root(epsilon * (1.0 - pw) / d2, n)
        upper_raw = _root(_times(w, 1.0 + epsilon) * (1.0 - pw) / 2.0, n)
    return _bound_result(lower_raw, upper_raw, regime)
