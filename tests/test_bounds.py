import math

import mpmath
import numpy as np
import pytest

from prodnet import (
    BranchingDistribution,
    ClampWarning,
    ParameterError,
    UnsupportedRegimeError,
    cascade_tail_g,
    cascade_tail_g_envelope,
    generate_backward_tree,
    gw_bound_lower,
    gw_bound_upper,
    gw_bounds,
    gw_expected_bounds,
    gw_extinction,
    parallel_bounds,
    powerlaw_pmf,
    powerlaw_tail_constant,
    rdag_lb_x,
    simulate_extinction_depths,
    tree_bounds,
    tree_catastrophe_prob,
    tree_expected_survivors_envelope,
    tree_node_count,
    tree_tier_survival,
    trellis_bounds,
)

from prodnet.bounds import _LOG_FLOAT_MAX, BISECTION_TOL, _times

from oracles import (
    brute_force_stats,
    grid_gw_lower,
    pgf_extinction_depth_pmf,
)


# -- power law and tail function ------------------------------------------


def test_powerlaw_pmf_x_one_uniform():
    for f in (1, 5, 50):
        assert powerlaw_pmf(f, 50, 0.3, 1.0, 2) == pytest.approx(1.0 / 50)


def test_powerlaw_pmf_large_f_limit():
    k = 10**6
    assert powerlaw_pmf(k, k, 0.05, 0.2, 1) == pytest.approx(0.2 / k, rel=1e-9)


def test_powerlaw_pmf_degenerate_p():
    assert powerlaw_pmf(3, 10, 0.0, 0.4, 1) == pytest.approx(1.0 / 10)
    assert powerlaw_pmf(3, 10, 1.0, 0.4, 1) == pytest.approx(0.4 / 10)
    assert powerlaw_pmf(3, 10, 0.3, 0.0, 1) == 0.0


def test_powerlaw_tail_constant_value():
    c = powerlaw_tail_constant(100, 0.05, 0.1, 1)
    expected = 0.1 / (100 * (1 + 0.9 * math.log(1 / 0.95)))
    assert c == pytest.approx(expected, rel=1e-12)


def test_powerlaw_tail_sum_dominates_harmonic():
    k, p, x = 200, 0.04, 0.15
    c = powerlaw_tail_constant(k, p, x, 1)
    pmf = np.array([powerlaw_pmf(f, k, p, x, 1) for f in range(1, k + 1)])
    for f0 in (1, 5, 20, 60):
        tail = pmf[f0 - 1 :].sum()
        harmonic = sum(1.0 / f for f in range(f0, k + 1))
        assert tail >= c * harmonic - 1e-12


def test_cascade_tail_g_large_k_limit():
    g = cascade_tail_g(0.3, 10**9, 0.2, 0.4, 1)
    assert g == pytest.approx(0.3 * (1 - 0.4), rel=1e-6)


def test_cascade_tail_g_zero_shock():
    assert cascade_tail_g(0.0, 100, 0.2, 0.4, 1) == 0.0


def test_cascade_tail_g_against_high_precision():
    # independent arbitrary-precision evaluation of the displayed expression
    x, k, p, eps, n = 0.2, 1000, 0.1, 0.3, 1
    with mpmath.workdps(60):
        xn = mpmath.mpf(x) ** n
        big_l = mpmath.log(1 / (1 - mpmath.mpf(p)))
        num = 1 - (1 - xn) * (1 - mpmath.mpf(p)) ** k
        den = 1 - (1 - xn) * (1 - mpmath.mpf(p)) ** (eps * k)
        expected = float(xn * (1 - eps + mpmath.log(num / den) / (k * big_l)))
    assert cascade_tail_g(x, k, p, eps, n) == pytest.approx(expected, rel=1e-12)


def test_cascade_tail_g_requires_interior_p():
    with pytest.raises(ParameterError):
        cascade_tail_g(0.2, 100, 0.0, 0.3, 1)
    with pytest.raises(ParameterError):
        cascade_tail_g(0.2, 100, 1.0, 0.3, 1)


def test_rdag_lb_x_closed_form():
    # log(1/(1-p)) = 1 at p = 1 - 1/e
    p = 1 - math.exp(-1)
    assert rdag_lb_x(100, p, 0.5, 1) == pytest.approx(0.02, rel=1e-12)


def test_rdag_lb_x_large_n_tends_to_one():
    assert rdag_lb_x(100, 0.3, 0.5, 10**6) == pytest.approx(1.0, abs=1e-4)


def test_rdag_lb_x_clamp_warns():
    # K log(1/(1-p)) (1-eps) < 1 puts the root above 1
    with pytest.warns(ClampWarning, match="clamped"):
        assert rdag_lb_x(1, 0.1, 0.5) == 1.0


def test_rdag_lb_x_plugback_envelope():
    for (k, p, eps) in [(100, 0.3, 0.5), (1000, 0.05, 0.2), (50, 0.6, 0.8)]:
        x_star = rdag_lb_x(k, p, eps, 1)
        cap = 2.0 / (k * math.log(1.0 / (1.0 - p)))
        assert cascade_tail_g_envelope(x_star, k, p, eps, 1) <= cap + 1e-12
        # the true tail value is below its envelope
        assert cascade_tail_g(x_star, k, p, eps, 1) <= cap + 1e-12


# -- parallel products -------------------------------------------------------


def test_parallel_upper_m1():
    r = parallel_bounds(10, 1, 2, 0.5, 1, scope="complex-only")
    assert r.upper == pytest.approx(0.75)
    r2 = parallel_bounds(10, 1, 2, 0.5, 2, scope="complex-only")
    assert r2.upper == pytest.approx(0.75**0.5)


def test_parallel_lower_limits():
    big = parallel_bounds(10**12, 2, 3, 0.3, 1, scope="complex-only")
    assert big.lower == pytest.approx(0.3 / 6, rel=1e-4)
    tiny_eps = parallel_bounds(1000, 2, 3, 1e-12, 1, scope="complex-only")
    assert tiny_eps.lower == pytest.approx(math.sqrt(math.log(1000) / 4000), rel=1e-6)


def test_parallel_all_products_formulas():
    k, m, d, eps = 100, 3, 4, 0.4
    r = parallel_bounds(k, m, d, eps, 1, scope="all-products")
    assert r.lower == pytest.approx(
        eps / (2 * (d + 1) * m) + math.sqrt(math.log(k / 2) / (2 * m * k))
    )
    assert r.upper == pytest.approx(1 - (1 - eps) / (2 * (m + 1)))


def test_parallel_requires_k3():
    with pytest.raises(ParameterError):
        parallel_bounds(2, 1, 1, 0.5, 1)


# -- backward tree -----------------------------------------------------------


def test_tree_node_count_matches_generator():
    for m, d in [(1, 5), (2, 4), (3, 3)]:
        assert tree_node_count(m, d) == generate_backward_tree(m, d).node_count


def test_tree_tier_survival_chain():
    q = tree_tier_survival(1, 3, 0.1, 1)
    assert q[2] == pytest.approx(0.9)  # tier D: exponent 1
    assert q[0] == pytest.approx(0.9**3)


def test_tree_tier_survival_vs_brute_force():
    net = generate_backward_tree(2, 2)
    stats = brute_force_stats(net, 0.2, 1.0, 1)
    q = tree_tier_survival(2, 2, 0.2, 1)
    assert q[0] == pytest.approx(0.8**3)
    assert 1.0 - stats.node_fail[0] == pytest.approx(q[0], abs=1e-12)
    for raw in (2, 3):
        assert 1.0 - stats.node_fail[raw - 1] == pytest.approx(q[1], abs=1e-12)


def test_tree_tier_survival_recurrence():
    for m, d, x, n in [(2, 5, 0.15, 1), (3, 4, 0.3, 2), (1, 6, 0.25, 1)]:
        q = tree_tier_survival(m, d, x, n)
        xn = x**n
        q_next = 1.0
        for tier in range(d, 0, -1):
            expected = (q_next**m) * (1 - xn)
            assert q[tier - 1] == pytest.approx(expected, rel=1e-12)
            q_next = q[tier - 1]


@pytest.mark.parametrize("m", [1, 2, 3, 10])
def test_tree_tier_survival_matches_the_exact_exponents(m):
    # tier d survives w.p. (1 - x^n)^e with e = (m^(D-d+1) - 1)/(m - 1), the
    # exact int taken through _times: equal, bit for bit
    for D in (1, 2, 3, 40, 300):
        for x in (0.0, 1e-9, 0.1, 0.5, 1.0):
            for n in (1, 3):
                log_z = math.log1p(-(x**n)) if x < 1.0 else -math.inf
                expected = []
                for d in range(1, D + 1):
                    expo = D - d + 1 if m == 1 else (m ** (D - d + 1) - 1) // (m - 1)
                    expected.append(math.exp(_times(expo, log_z)) if log_z > -math.inf else 0.0)
                assert tree_tier_survival(m, D, x, n).tolist() == expected, (D, x, n)


def test_tree_tier_survival_deep():
    # tiers far from the raw materials underflow to 0.0; the rest depend
    # only on the distance from the raw materials
    q = tree_tier_survival(3, 8000, 0.1)
    tail = tree_tier_survival(3, 60, 0.1)
    assert q[-60:].tolist() == tail.tolist()
    assert tail[0] == 0.0 and not q[:-60].any()


def test_tree_catastrophe_asymptotic():
    # at x = m log K / K the envelope pushes the catastrophe probability to 1
    m, d = 2, 10
    k = tree_node_count(m, d)
    x = m * math.log(k) / k
    exact, envelope = tree_catastrophe_prob(m, d, x, 1)
    assert exact >= envelope
    assert envelope > 0.99


def test_tree_bounds_chain_upper():
    r = tree_bounds(1, 8, 0.5, 1)
    assert r.regime == "chain"
    assert r.upper == pytest.approx(min(1.0, 2 / (8 * 0.5)))
    assert 0 < r.lower < 1


def test_tree_bounds_fanout_upper():
    r = tree_bounds(2, 6, 0.4, 1)
    k = tree_node_count(2, 6)
    assert r.upper == pytest.approx((0.6 * math.log(2) / math.log(k)) ** 1.0)
    assert r.lower == pytest.approx((1 - (1 - 1 / k) ** (1 / (0.6 * k))) ** 1.0)


def test_tree_beyond_float_range():
    # K and the leaf count exceed float range; products with them are
    # taken in log space
    m, d, x = 10, 400, 0.1
    assert tree_catastrophe_prob(m, d, x, 1) == (1.0, 1.0)
    assert tree_catastrophe_prob(m, d, 1e-300, 1) == (1.0, 1.0)
    assert tree_catastrophe_prob(m, d, 1.0, 1) == (1.0, 1.0)
    q = tree_tier_survival(m, d, x, 1)
    assert q[0] == 0.0 and q[-1] == pytest.approx(0.9) and q[-2] == pytest.approx(0.9**11)
    assert np.all(np.diff(q) >= 0.0)
    k = tree_node_count(2, 2000)
    for n in (1, 3):
        r = tree_bounds(2, 2000, 0.2, n)
        assert r.upper == pytest.approx((0.8 * math.log(2) / math.log(k)) ** (1 / n))
        assert r.lower == 0.0  # 1 / (0.8 K^2) underflows
        assert not (r.lower_clamped or r.upper_clamped)
    assert tree_bounds(1, 10**400, 0.2).upper == 0.0


def _tree_bounds_from_log_k(m, D, eps, n, log_k):
    # tree_bounds' formulas for m >= 2 and D >= 2, with K taken from its log
    k = math.exp(log_k) if log_k < _LOG_FLOAT_MAX else math.inf
    lower = (-math.expm1(math.log1p(-1.0 / k) / ((1.0 - eps) * k))) ** (1.0 / n)
    return lower, ((1.0 - eps) * math.log(m) / log_k) ** (1.0 / n)


@pytest.mark.parametrize(
    "m, D",
    [(2, 1023), (3, 600), (10, 300), (2**60, 17), (10**100, 4),  # m^D below 2^1024
     (2, 1100), (3, 1000), (5, 444), (10, 400), (2**60, 20), (10**400, 2), (2, 10**12)],
)
def test_tree_sizes_beyond_float_range_in_log_space(m, D):
    # K = (m^D - 1)/(m - 1) is built while m^(D-1) is a float, so the bounds are
    # the exact count's, bit for bit; beyond that K and the m^(D-1) leaves enter
    # only through logs from D log m, within 4 ulp of the exact count's value
    with mpmath.workdps(40):
        log_k = float(mpmath.log((mpmath.mpf(m) ** D - 1) / (m - 1)))
        logs = {x: mpmath.mpf(m) ** (D - 1) * mpmath.log1p(-mpmath.mpf(x)) for x in (1e-310, 1e-300, 1e-10, 0.3)}
        catastrophe = {x: float(-mpmath.expm1(t)) if t > -800 else 1.0 for x, t in logs.items()}
    in_range = D * math.log2(m) < 1024
    for eps in (0.05, 0.3, 0.9):
        for n in (1, 3):
            res = tree_bounds(m, D, eps, n)
            if in_range:
                K = tree_node_count(m, D)
                k = _times(K, 1.0)
                lower = (-math.expm1(math.log1p(-1.0 / k) / ((1.0 - eps) * k))) ** (1.0 / n)
                assert (res.lower, res.upper) == (lower, ((1.0 - eps) * math.log(m) / math.log(K)) ** (1.0 / n))
            else:
                lower, upper = _tree_bounds_from_log_k(m, D, eps, n, log_k)
                assert res.lower == lower == 0.0 and abs(res.upper - upper) <= 4 * math.ulp(upper)
    for x, exact in catastrophe.items():
        assert tree_catastrophe_prob(m, D, x)[0] == pytest.approx(exact, rel=1e-12, abs=1e-300)


def test_tree_of_one_product():
    # one product keeps its one survivor at every shock level
    for m in (1, 2, 3):
        r = tree_bounds(m, 1, 0.3, 2)
        assert (r.lower, r.upper, r.upper_clamped) == (1.0, 1.0, True)


def test_tree_expected_survivors_envelope():
    lo, hi = tree_expected_survivors_envelope(2, 4, 0.1, 1)
    k = tree_node_count(2, 4)
    assert lo == pytest.approx(k * (1 - 0.1 * 3))
    assert hi == pytest.approx(k * 0.1 * 3 / 2)
    with pytest.raises(ParameterError):
        tree_expected_survivors_envelope(1, 4, 0.1, 1)


# -- branching-process bounds ------------------------------------------------


def test_extinction_subcritical_is_one():
    assert gw_extinction(BranchingDistribution.poisson(0.5)) == 1.0
    assert gw_extinction(BranchingDistribution.binomial(4, 0.2)) == 1.0


def test_extinction_point_mass_two_is_zero():
    assert gw_extinction(BranchingDistribution.point(2)) == 0.0


def test_extinction_poisson_two():
    assert gw_extinction(BranchingDistribution.poisson(2.0)) == pytest.approx(0.2032, abs=1e-3)


NEAR_CRITICAL = {
    **{f"poisson-1+1e-{k}": ("poisson", 1 + 10.0**-k) for k in range(5, 10)},
    "binomial-2-0.500000005": ("binomial", 2, 0.5 + 5e-9),
    "binomial-10-0.10000001": ("binomial", 10, 0.1 + 1e-8),
    "poisson-2": ("poisson", 2.0),
}


@pytest.mark.parametrize("law", NEAR_CRITICAL.values(), ids=NEAR_CRITICAL.keys())
def test_extinction_meets_its_tolerance_near_criticality(law):
    # the 60-digit root of s = 1 - pgf(1 - s) in (0, 1], bisected to 2**-200;
    # eta - pgf(eta) cancels as eta -> 1, so only the survival form keeps 1e-10 there
    kind, *params = law
    with mpmath.workdps(60):
        if kind == "poisson":
            mu = mpmath.mpf(params[0])
            complement = lambda s: -mpmath.expm1(-mu * s)
        else:
            k, p = params[0], mpmath.mpf(params[1])
            complement = lambda s: 1 - (1 - p * s) ** k
        lo, hi = mpmath.mpf(0), mpmath.mpf(1)
        for _ in range(200):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if complement(mid) > mid else (lo, mid)
        eta = float(1 - lo)
    assert abs(gw_extinction(getattr(BranchingDistribution, kind)(*params)) - eta) <= BISECTION_TOL


TINY_EXTINCTION = {
    "poisson-20": (("poisson", 20.0), 2.061e-9),
    "poisson-30": (("poisson", 30.0), 9.358e-14),
    "poisson-100": (("poisson", 100.0), 3.720e-44),
    "binomial-50-0.9": (("binomial", 50, 0.9), 1.0e-50),
}


@pytest.mark.parametrize("law, rounded", TINY_EXTINCTION.values(), ids=TINY_EXTINCTION.keys())
def test_extinction_far_below_the_tolerance_has_its_digits(law, rounded):
    # an absolute 1e-10 holds no digit of these; the 60-digit pgf iterates
    # from 0 reach eta to 1e-40 relative in well under 100 steps here
    kind, *params = law
    with mpmath.workdps(60):
        if kind == "poisson":
            mu = mpmath.mpf(params[0])
            pgf = lambda eta: mpmath.exp(mu * (eta - 1))
        else:
            k, p = params[0], mpmath.mpf(params[1])
            pgf = lambda eta: (1 - p + p * eta) ** k
        eta = mpmath.mpf(0)
        for _ in range(100):
            eta = pgf(eta)
        eta = float(eta)
    assert eta == pytest.approx(rounded, rel=1e-3)
    assert gw_extinction(getattr(BranchingDistribution, kind)(*params)) == pytest.approx(eta, rel=1e-12)


def test_gw_bounds_exist_subcritical():
    for mu in (0.2, 0.5, 0.9):
        for tau in (1, 3, 10):
            upper, lower = gw_bounds(mu, tau, 0.3, 1)
            assert 0.0 < upper <= 1.0
            assert 0.0 < lower <= 1.0


def test_gw_lower_matches_grid_and_analytic():
    # tau=2: failure condition reduces to 0.5 z^2 + z >= 1.2, z* = sqrt(3.4) - 1
    x = gw_bound_lower(0.5, 2, 0.3, 1)
    assert x == pytest.approx(2 - math.sqrt(3.4), abs=1e-9)
    assert x == pytest.approx(grid_gw_lower(0.5, 2, 0.3, 1), abs=1e-6)


def test_gw_bisection_residual_property():
    tol = 1e-10
    for mu, tau, eps in [(0.4, 3, 0.2), (0.8, 7, 0.5), (12.0, 4, 0.05)]:
        xu = gw_bound_upper(mu, tau, eps, 1)
        xl = gw_bound_lower(mu, tau, eps, 1)
        hi = 1.0 if mu < 1 else (1 - 1 / mu)
        zu, zl = 1 - xu, 1 - xl

        def survivors(z):
            return z * sum((mu * z) ** i for i in range(tau))

        n_tot = sum(mu**i for i in range(tau))
        assert survivors(1 - xu) <= (1 - eps) / 2 * n_tot
        if xu - 10 * tol > 0:
            assert survivors(1 - (xu - 10 * tol)) > (1 - eps) / 2 * n_tot
        assert n_tot - survivors(1 - xl) <= eps
        if xl + 10 * tol < hi:
            assert n_tot - survivors(1 - (xl + 10 * tol)) > eps


def test_gw_unsupported_gap():
    with pytest.raises(UnsupportedRegimeError):
        gw_bound_upper(2.0, 3, 0.3, 1)  # mu in [1, e^2]
    with pytest.raises(UnsupportedRegimeError):
        gw_bound_lower(1.5, 3, 0.3, 1)  # mu in [1, e]
    gw_bound_lower(5.0, 3, 0.05, 1)  # mu > e is fine for the lower bound
    with pytest.raises(UnsupportedRegimeError):
        gw_bound_upper(5.0, 3, 0.05, 1)  # but not for the upper one


def test_gw_supercritical_epsilon_limits():
    # root existence limits epsilon when mu > e resp. e^2
    with pytest.raises(UnsupportedRegimeError):
        gw_bound_lower(10.0, 3, 0.2, 1)  # needs eps < (log mu - 1)/mu
    with pytest.raises(UnsupportedRegimeError):
        gw_bound_upper(10.0, 3, 0.95, 1)  # needs (1-eps)/2 > 1/log mu


def test_extinction_depths_match_pgf_iteration():
    dist = BranchingDistribution.binomial(3, 0.2)
    taus = simulate_extinction_depths(dist, max_tau=200, samples=40_000, seed=3)
    exact = pgf_extinction_depth_pmf(dist, 10)
    for k in range(1, 6):
        emp = (taus == k).mean()
        se = math.sqrt(exact[k] * (1 - exact[k]) / 40_000)
        assert abs(emp - exact[k]) < 4 * se


def test_extinction_depths_point_masses():
    taus = simulate_extinction_depths(BranchingDistribution.point(0), 50, 100, seed=1)
    assert np.all(taus == 1)
    taus = simulate_extinction_depths(BranchingDistribution.point(2), 50, 100, seed=1)
    assert np.all(taus == 0)  # never extinct


def test_gw_expected_bounds_subcritical():
    dist = BranchingDistribution.poisson(0.5)
    res = gw_expected_bounds(dist, 0.3, 1, max_tau=500)
    assert res.extinct_fraction == 1.0
    assert 0 < res.lower < res.upper <= 1.0


# (distribution, epsilon): sub- and supercritical, inside each bound's regime;
# a point mass is supercritical here, as its only subcritical mean, 0, is refused
GW_LAWS = {
    "poisson-sub": (BranchingDistribution.poisson(0.5), 0.3),
    "binomial-sub": (BranchingDistribution.binomial(4, 0.2), 0.3),
    "poisson-near-critical": (BranchingDistribution.poisson(0.95), 0.3),
    "poisson-super": (BranchingDistribution.poisson(10.0), 0.1),
    "binomial-super": (BranchingDistribution.binomial(20, 0.5), 0.1),
    "point-super": (BranchingDistribution.point(10), 0.1),
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("dist, eps", GW_LAWS.values(), ids=GW_LAWS.keys())
def test_gw_expected_bounds_sum_the_exact_depth_law(dist, eps, n):
    # referee: the pgf-iterated pmf of the extinction depth times the public per-depth bounds
    max_tau = 200
    pmf = pgf_extinction_depth_pmf(dist, max_tau - 1)
    depths = [t for t in range(1, max_tau) if pmf[t] > 0.0]
    upper = sum(pmf[t] * gw_bound_upper(dist.mean, t, eps, n) for t in depths)
    lower = sum(pmf[t] * gw_bound_lower(dist.mean, t, eps, n) for t in depths)
    res = gw_expected_bounds(dist, eps, n, max_tau=max_tau)
    assert abs(res.upper - upper) < 1e-12 and abs(res.lower - lower) < 1e-12
    assert abs(res.extinct_fraction - pmf.sum()) < 1e-12


@pytest.mark.parametrize("dist, eps", GW_LAWS.values(), ids=GW_LAWS.keys())
def test_gw_expected_bounds_stop_once_the_law_is_spent(dist, eps):
    # the survival probability stops falling within a few thousand depths, so a
    # max_tau beyond float range returns at once, with the finite cap's result
    assert gw_expected_bounds(dist, eps, max_tau=10**400) == gw_expected_bounds(dist, eps, max_tau=5000)


def test_gw_expected_bounds_count_depths_as_the_simulation():
    # depths run over 1..max_tau-1, so extinct_fraction is f_{max_tau-1}(0), not f_{max_tau}(0)
    dist = BranchingDistribution.poisson(0.5)
    f1 = dist.prob_zero()
    f2 = dist.pgf(f1)
    for max_tau, exact, off_by_one in ((2, f1, f2), (3, f2, dist.pgf(f2))):
        res = gw_expected_bounds(dist, 0.3, max_tau=max_tau)
        assert res.extinct_fraction == pytest.approx(exact, abs=1e-15)
        taus = simulate_extinction_depths(dist, max_tau=max_tau, samples=20_000, seed=4)
        frequency = float((taus > 0).mean())
        se = math.sqrt(exact * (1.0 - exact) / 20_000)
        assert abs(frequency - res.extinct_fraction) < 4 * se < abs(frequency - off_by_one)
    assert gw_expected_bounds(dist, 0.3, max_tau=1).extinct_fraction == 0.0


def test_pgf_complement_keeps_tiny_survival_probabilities():
    for dist in (
        BranchingDistribution.poisson(0.5),
        BranchingDistribution.binomial(4, 0.2),
        BranchingDistribution.point(0),
        BranchingDistribution.point(3),
    ):
        for s in (1.0, 0.7, 0.1):
            assert dist.pgf_complement(s) == pytest.approx(1.0 - dist.pgf(1.0 - s), abs=1e-15)
        # 1 - pgf(1 - s) ~ mean * s as s -> 0, where pgf(1 - s) itself rounds to 1
        assert dist.pgf_complement(1e-300) == pytest.approx(dist.mean * 1e-300, rel=1e-12)


@pytest.mark.parametrize(
    "dist",
    [
        BranchingDistribution.poisson(1.5),
        BranchingDistribution.poisson(2),
        BranchingDistribution.poisson(10),
        BranchingDistribution.binomial(3, 0.7),
        BranchingDistribution.binomial(5, 0.5),
        BranchingDistribution.binomial(50, 0.3),
        BranchingDistribution.binomial(4, 0.9),
        BranchingDistribution.point(2),
    ],
    ids=["poisson-1.5", "poisson-2", "poisson-10", "binomial-3-0.7", "binomial-5-0.5", "binomial-50-0.3",
         "binomial-4-0.9", "point-2"],
)
def test_pgf_of_a_scalar_has_the_bits_of_an_array_entry(dist):
    # a scalar, as prob_zero and the extinction-depth oracle pass, gets the bits of an array entry
    eta = np.random.default_rng(0).random(10_000)
    values = dist.pgf(eta)
    assert values.shape == eta.shape and dist.pgf(eta.reshape(100, 100)).shape == (100, 100)
    scalars = [dist.pgf(e) for e in eta.tolist()]
    assert all(type(v) is float for v in scalars)
    assert scalars == values.tolist()


# -- Monte Carlo consistency of the analytic lower bounds ---------------------


def test_lower_bounds_keep_tails_small_tree_trellis():
    # exact fractional-cascade tails at the analytic lower bounds stay at
    # or below 1/K for the tree and trellis closed forms at small sizes
    net = generate_backward_tree(2, 3)
    for eps in (0.3, 0.4, 0.6):
        x_lb = tree_bounds(2, 3, eps, 1).lower
        stats = brute_force_stats(net, x_lb, 1.0, 1)
        tail = stats.pmf[math.ceil(eps * net.node_count - 1e-9) :].sum()
        assert tail <= 1.0 / net.node_count + 1e-9
    from prodnet import generate_trellis

    trellis = generate_trellis(3, 3, 0.2, seed=1)
    for eps in (0.3, 0.5):
        x_lb = trellis_bounds(3, 3, 0.2, eps, 1).lower
        stats = brute_force_stats(trellis, x_lb, 1.0, 1)
        tail = stats.pmf[math.ceil(eps * trellis.node_count - 1e-9) :].sum()
        assert tail <= 1.0 / trellis.node_count + 1e-9


def test_rdag_lb_keeps_seeded_cascade_tail_small():
    # at p = 1 - 1/e the majorant cap is exactly 2/K
    from oracles import exact_seeded_cascade_pmf

    k, p = 100, 1 - math.exp(-1)
    for eps in (0.3, 0.5):
        x_star = rdag_lb_x(k, p, eps, 1)
        pmf = exact_seeded_cascade_pmf(k, p, x_star, 1)
        assert pmf[math.ceil(eps * k) :].sum() <= 2.0 / k + 1e-9


# -- trellis ------------------------------------------------------------------


def test_trellis_supercritical_lower_substitution():
    r = trellis_bounds(2, 10, 0.75, 0.2, 1)
    assert r.regime == "pw>1"
    expected = 0.2 * 2 * 0.5 / (20 * 1.5**10)
    assert r.lower == pytest.approx(expected, rel=1e-10)
    assert r.upper == pytest.approx(1.2 * 2 / 20)


def test_trellis_width_one_chain_limit():
    values = [trellis_bounds(1, d, 0.8, 0.3, 1).lower for d in (5, 20, 100, 500)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-5


def test_trellis_subcritical_upper_at_eps_one():
    # at eps = 1 the (1+eps)/2 coefficient drops out: upper = (w(1-pw))^(1/n)
    r = trellis_bounds(3, 5, 0.3, 1.0, 1)
    assert r.regime == "pw<1"
    assert r.upper == pytest.approx(3 * (1 - 0.9))
    r2 = trellis_bounds(3, 5, 0.3, 1.0, 2)
    assert r2.upper == pytest.approx(math.sqrt(0.3), rel=1e-12)


def test_trellis_critical_case():
    r = trellis_bounds(4, 6, 0.25, 0.5, 1)
    assert r.regime == "pw=1"
    assert r.lower == pytest.approx(0.5 * 16 / 576)
    assert r.upper == pytest.approx(1.0)
    assert not r.upper_clamped  # lands exactly on 1


def test_trellis_clamping_flagged():
    r = trellis_bounds(4, 6, 0.25, 0.9, 1)  # raw upper 1.9*16/24 > 1
    assert r.upper == 1.0 and r.upper_clamped
    r2 = trellis_bounds(50, 2, 0.001, 0.9, 1)
    assert 0.0 <= r2.lower <= 1.0 and 0.0 <= r2.upper <= 1.0
