"""Budget-constrained protection planning over reverse-graph centralities.

Protecting a product zeroes its spontaneous-failure term (it can still be
dragged down by failed inputs).  Under the spectral preconditions the
worst-case expected damage of a protection set decomposes through the
reverse-graph Katz vector, so the optimal plan protects the top-budget
products by that score; supplier-count allocation follows the same
ordering with a greedy prefix fill.  `evaluate_intervention` gives any
set's damage as the union-bound program's optimum, which that Katz
objective bounds from above and meets while no beta reaches 1.

The reverse-graph Katz vector solves (I - y A) g = 1 with the sparse
strong-component solver of `contagion`, on the network's reverse level
plan (no reversed copy is built).  One solve, one `contagion._rank` and
one suffix sum give the unprotected mass of every budget, so a sweep over
budgets 0..T costs one solve plus O(K log K + T), with no plan built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _power
from .contagion import _check_y, _katz_solve, _program_optimum, _rank, _root_bound
from .errors import INT64_MAX, ParameterError, check_count, check_int, check_real, check_vector, is_int, shown
from .network import ProductionNetwork


@dataclass
class InterventionPlan:
    """A protection set with the centrality data that justified it.

    protected[i-1] is True when product i is protected; unprotected_mass
    is the sum of reverse-Katz centralities over unprotected products, so
    the worst-case expected damage bound is x^n * unprotected_mass.
    """

    protected: np.ndarray
    reverse_katz: np.ndarray
    unprotected_mass: float

    def protected_ids(self) -> list[int]:
        return (np.flatnonzero(self.protected) + 1).tolist()

    def objective(self, x: float, n: int = 1) -> float:
        """Worst-case expected damage bound of this plan at shock level x."""
        check_real(x, "x")
        return _power(x, check_int(n, "n")) * self.unprotected_mass


def _ranked_reverse_katz(net: ProductionNetwork, y: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reverse-graph Katz vector, the 0-based products in `_rank` order, and mass[0..K].

    mass[T], the unprotected mass of budget T, is the suffix sum of the ranked
    scores from rank T on: it never increases with T and is exactly 0 at T = K.
    """
    _check_y(net, check_real(y, "y"), "protection planning", planning=True)
    gamma_rev = _katz_solve(net, y, np.ones(net.node_count), reverse=True)
    order = _rank(gamma_rev)
    mass = np.zeros(net.node_count + 1)
    mass[:-1] = np.cumsum(gamma_rev[order][::-1])[::-1]
    return gamma_rev, order, mass


def _check_budget(net: ProductionNetwork, T, name: str) -> int:
    """T as an int, refused unless it is a budget of 0..K products; name is T's name in the message."""
    T = check_int(T, name, minimum=0)
    if T > net.node_count:
        raise ParameterError(f"{name} {shown(T)} exceeds the product count {net.node_count}")
    return T


def optimal_protection(net: ProductionNetwork, T: int, y: float) -> InterventionPlan:
    """Protect the T products with the largest reverse-graph Katz scores.

    Ties break by ascending product id so plans are reproducible.
    """
    T = _check_budget(net, T, "T")
    gamma_rev, order, mass = _ranked_reverse_katz(net, y)
    protected = np.zeros(net.node_count, dtype=bool)
    protected[order[:T]] = True
    return InterventionPlan(protected, gamma_rev, float(mass[T]))


def evaluate_intervention(
    net: ProductionNetwork, t, x: float, y: float, n: int = 1
) -> tuple[float, np.ndarray]:
    """Damage bound and per-product betas for an arbitrary protection set.

    The betas are the program optimum (`contagion._program_optimum`) with
    the protected products' spontaneous terms zeroed and x^n elsewhere:
    the DAG pass on an acyclic network, exact at any y in [0, 1], and the
    fixed point otherwise, which raises PreconditionError above 1/Delta.
    The damage bound is their sum.
    """
    mask = check_vector(t, "t", net.node_count)
    if mask.dtype != bool:
        for i, v in enumerate(mask.tolist()):
            if not (isinstance(v, (bool, np.bool_)) or (is_int(v) and v in (0, 1))):
                raise ParameterError(f"t[{i}] must be a bool or the integer 0 or 1, got {shown(v)}")
        mask = mask.astype(bool)
    check_real(x, "x")
    check_real(y, "y")
    n = check_int(n, "n")
    optimum = _program_optimum(net, y, _power(x, n) * (~mask).astype(np.float64))
    return optimum.total(), optimum.beta


def post_intervention_resilience_lb(
    net: ProductionNetwork, plan: InterventionPlan, epsilon: float, n: int = 1
) -> float:
    """Resilience lower bound (eps / unprotected reverse-Katz mass)^(1/n).

    Clamped to [0, 1]; a fully protected network gives 1.  Nondecreasing in
    the budget since protecting more only shrinks the denominator.
    """
    check_real(epsilon, "epsilon", "(0, 1)")
    return _root_bound(epsilon, plan.unprotected_mass, check_int(n, "n"))[0]


@dataclass
class SupplierAllocation:
    """Extra suppliers per product under a total budget.

    extra[i-1] additional suppliers for product i; positive entries form a
    prefix of the reverse-Katz ordering with at most one partial fill.
    """

    extra: np.ndarray
    caps: np.ndarray
    order: list[int]
    reverse_katz: np.ndarray

    def objective(self, x: float) -> float:
        """Katz-weighted residual fragility sum gamma_i * x^extra_i."""
        check_real(x, "x")
        return float(np.sum(self.reverse_katz * np.power(x, self.extra)))


def supplier_allocation(
    net: ProductionNetwork, y: float, base_n: int, caps, budget: int
) -> SupplierAllocation:
    """Greedy prefix fill of extra suppliers along the reverse-Katz order.

    Walks products by decreasing reverse-graph Katz centrality (ties by
    id) and assigns each its cap, or whatever budget remains.  Feasible by
    construction: totals never exceed the budget and per-product caps hold.
    base_n is checked and otherwise unused: every product's residual
    carries the same factor x^base_n, which moves neither the order nor the fill.
    """
    budget = check_int(budget, "budget", minimum=0)
    check_int(base_n, "base_n")
    caps = check_vector(caps, "caps", net.node_count)
    if caps.dtype.kind in "iu" and caps.min() >= 0 and caps.max() <= INT64_MAX:
        caps = caps.astype(np.int64)  # integers in range: nothing for the per-entry check to refuse
    else:
        caps = np.array(
            [check_count(c, f"caps[{i}]", minimum=0) for i, c in enumerate(caps.tolist())], np.int64
        )
    gamma_rev, order, _ = _ranked_reverse_katz(net, y)
    extra = np.zeros(net.node_count, dtype=np.int64)
    remaining = budget
    for i in order.tolist():
        if remaining <= 0:
            break
        extra[i] = give = min(int(caps[i]), remaining)
        remaining -= give
    return SupplierAllocation(extra=extra, caps=caps, order=(order + 1).tolist(), reverse_katz=gamma_rev)
