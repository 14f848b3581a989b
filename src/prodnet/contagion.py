"""Upper bounds on expected cascade size via the union-bound program.

The per-product failure-probability bounds beta solve a box-constrained
linear program, whose optimum is the greatest fixed point of the monotone
operator min(1, y A^T beta + spontaneous terms).  `_program_optimum`
finds it exactly by one pass in topological order on a DAG, at any y, or
by iterating down from all-ones when y <= 1/Delta (Delta the max
out-degree); no LP solver is embedded, so a cyclic network above 1/Delta
is reported as unsupported.  The paper's Katz closed form x^n Katz
(`katz_beta`, y < 1/Delta) bounds the optimum from above, equal to it iff
no entry exceeds 1.  Every Katz-type linear system (here and in
`interventions`) goes through one sparse solver over the strongly
connected components, walking the network's level plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bounds import _LOG_FLOAT_MAX, _clamp01, _power, _root, _times
from .errors import ConvergenceError, CyclicGraphError, PreconditionError, allocate, check_int, check_real, check_vector
from .network import ProductionNetwork

FIXED_POINT_TOL = 1e-12  # the iteration stops once no entry moves by this much
FIXED_POINT_MAX_ITER = 10**6  # and raises ConvergenceError after this many steps
KATZ_TOL = 1e-12  # a cyclic component's Neumann sweeps stop at this relative update


@dataclass
class BetaVector:
    """Per-product failure-probability upper bounds with solve metadata."""

    beta: np.ndarray
    method: str  # dag-linear | fixed-point | katz-closed-form
    iterations: int = 0
    residual: float = 0.0

    def total(self) -> float:
        """The expected-failure upper bound: sum of the per-product bounds."""
        return float(self.beta.sum())


def dag_beta(net: ProductionNetwork, x: float, y: float, n: int = 1) -> BetaVector:
    """Exact program optimum on a DAG by one pass over `net.level_plan()`.

    beta of every source is x^n; downstream, beta_i = min(1, y * sum of
    input betas + x^n), one `np.add.at` per level.  Linear in K + |E|.
    """
    check_real(x, "x")
    check_real(y, "y")
    n = check_int(n, "n")
    if not net.acyclic:
        raise CyclicGraphError("dag_beta requires an acyclic network")
    return _dag_pass(net, y, np.full(net.node_count, _power(x, n), dtype=np.float64))


def _dag_pass(net: ProductionNetwork, y: float, rhs: np.ndarray) -> BetaVector:
    """The program optimum on a DAG for spontaneous terms rhs, a float array with one per product.

    beta_i = min(1, y * sum of input betas + rhs_i), one `np.add.at` per
    level of `net.level_plan()`, so every input's beta is final when it is read.
    """
    beta = np.zeros(net.node_count, dtype=np.float64)
    for level in net.level_plan():
        acc = rhs[level.products]  # then y beta_j, in input order
        np.add.at(acc, level.segment, y * beta[level.sources])
        beta[level.products] = np.minimum(1.0, acc)
    return BetaVector(beta=beta, method="dag-linear")


def _contract(net, beta, y, rhs):
    """One application of the monotone operator min(1, y A^T beta + rhs), rhs the spontaneous terms."""
    src, dst = net.edge_arrays()
    return np.minimum(1.0, rhs + np.bincount(dst, weights=y * beta[src], minlength=net.node_count))


def fixed_point_beta(
    net: ProductionNetwork,
    x: float,
    y: float,
    n: int = 1,
    *,
    spontaneous: Optional[np.ndarray] = None,
) -> BetaVector:
    """Greatest fixed point of the operator, iterated down from all-ones.

    It is the program optimum when y <= 1/Delta (max out-degree), and a
    larger y raises PreconditionError.  `spontaneous`, one term in [0, 1]
    per product, replaces the uniform x^n (interventions zero the
    protected products' terms).  The iteration stops once no entry
    moves by FIXED_POINT_TOL, and raises ConvergenceError after
    FIXED_POINT_MAX_ITER steps.
    """
    check_real(x, "x")
    check_real(y, "y")
    n = check_int(n, "n")
    if spontaneous is None:
        rhs = np.full(net.node_count, _power(x, n))
    else:  # a float array in range is taken whole, anything else entry by entry
        rhs = check_vector(spontaneous, "spontaneous", net.node_count)
        if not (rhs.dtype.kind == "f" and ((rhs >= 0) & (rhs <= 1)).all()):  # NaN fails both
            rhs = [check_real(v, f"spontaneous[{i}]") for i, v in enumerate(rhs.tolist())]
        rhs = np.asarray(rhs, dtype=np.float64)
    return _fixed_point(net, y, rhs)


def _fixed_point(net: ProductionNetwork, y: float, rhs: np.ndarray) -> BetaVector:
    """Greatest fixed point of min(1, y A^T beta + rhs) from all-ones, for y <= 1/Delta only."""
    _check_y(net, y, "fixed_point_beta", strict=False)
    beta = np.ones(net.node_count, dtype=np.float64)
    for it in range(1, FIXED_POINT_MAX_ITER + 1):
        nxt = _contract(net, beta, y, rhs)
        residual = float(np.max(np.abs(nxt - beta))) if net.node_count else 0.0
        beta = nxt
        if residual < FIXED_POINT_TOL:
            return BetaVector(beta=beta, method="fixed-point", iterations=it, residual=residual)
    raise ConvergenceError(
        f"fixed-point iteration did not reach tol={FIXED_POINT_TOL:g} "
        f"within {FIXED_POINT_MAX_ITER} iterations",
        residual=residual,
    )


def _program_optimum(net: ProductionNetwork, y: float, rhs: np.ndarray) -> BetaVector:
    """The optimum for spontaneous terms rhs: `_dag_pass` on a DAG, at any y, else `_fixed_point`."""
    return (_dag_pass if net.acyclic else _fixed_point)(net, y, rhs)


def _y_limit(net: ProductionNetwork, planning: bool = False) -> float:
    """1/Delta, Delta the max out-degree or, for planning, max(Delta, Delta_R); inf at Delta = 0.

    The fixed point needs y <= this limit, and every Katz-type solve y < it.
    """
    delta = max(net.max_out_degree, net.max_in_degree) if planning else net.max_out_degree
    return math.inf if delta == 0 else 1.0 / delta


def _check_y(net: ProductionNetwork, y: float, operation: str, strict: bool = True, planning: bool = False):
    """Raise the one PreconditionError for y unless y < `_y_limit(net, planning)`, or <= when not strict.

    The message names the operation, the limit, y and the degrees the limit comes from.
    """
    limit = _y_limit(net, planning)
    if not (y < limit or (y == limit and not strict)):
        degrees = f"Delta = {net.max_out_degree}" + (f", Delta_R = {net.max_in_degree}" if planning else "")
        raise PreconditionError(
            f"{operation} needs y {'<' if strict else '<='} 1/{'max(Delta, Delta_R)' if planning else 'Delta'}"
            f" = {limit:g}, got y = {y:g} ({degrees})"
        )


def _x_condition(net: ProductionNetwork, x: float, y: float, n: int) -> tuple[bool, float]:
    """For y < `_y_limit(net)`: whether x meets the Katz closed form's precondition, and x's cap.

    It does when x < x_cap = (1 - y Delta)^(1/n); x_cap = 1 (at Delta = 0 or y = 0) restricts no x.
    """
    x_cap = _root(1.0 - y * net.max_out_degree, n)
    return x < x_cap or x_cap >= 1.0, x_cap


def _katz_solve(net: ProductionNetwork, y: float, b: np.ndarray, reverse: bool = False) -> np.ndarray:
    """Solve (I - y A^T) g = b, or (I - y A) g = b when reverse, for y A of spectral radius < 1.

    Row i reads g_i = b_i + y * (sum of g over the inputs of i), or over
    the products i feeds when reverse.  `net.level_plan(reverse)` is walked
    in order, so every term from outside a component is final when it is
    reached: one `bincount` per level substitutes exactly off cycles and
    adds a cyclic component's outside terms to b.  That component then
    runs Neumann sweeps over its internal edges until the update is
    within KATZ_TOL of the largest entry.  A component still short of that
    after len(component) sweeps, which happens when y * A is close to
    spectral radius 1 on it, solves its own dense block instead; a block
    that does not fit in memory raises SizeError ("out of memory for").
    """
    g = np.array(b, dtype=np.float64)
    for level in net.level_plan(reverse):
        outside = np.bincount(level.segment, g[level.sources], len(level.products))
        g[level.products] += y * outside
        for cycle in level.cycles:
            m, r = len(cycle.members), g[cycle.members]
            gc = r
            for _ in range(m):
                nxt = r + y * np.bincount(cycle.heads, weights=gc[cycle.tails], minlength=m)
                converged = np.max(np.abs(nxt - gc)) <= KATZ_TOL * np.max(np.abs(nxt))
                gc = nxt
                if converged:
                    break
            else:
                request = f"the dense {m} x {m} block of a cyclic component"
                block = allocate(request, np.eye, m)
                block[cycle.heads, cycle.tails] = -y
                gc = allocate(request, np.linalg.solve, block, r)
            g[cycle.members] = gc
    return g


def katz_centrality(net: ProductionNetwork, y: float) -> np.ndarray:
    """Katz vector (I - y A^T)^{-1} 1, requiring y < 1/Delta.

    Solved sparsely by `_katz_solve`, in O(K + |E|) memory unless a cyclic
    component falls back to a solve of its own dense block.
    """
    _check_y(net, check_real(y, "y"), "katz_centrality")
    return _katz_solve(net, y, np.ones(net.node_count))


def katz_beta(net: ProductionNetwork, x: float, y: float, n: int = 1) -> BetaVector:
    """The paper's closed-form bound x^n * Katz(net, y) on the program optimum.

    It needs 0 <= y < 1/Delta and x < (1 - y Delta)^(1/n).  It is a bound,
    not the optimum: at least the fixed point in every entry, and equal to
    it iff no entry exceeds 1, because the optimum clamps each entry at 1
    and Katz does not.
    """
    check_real(x, "x")
    check_real(y, "y")
    n = check_int(n, "n")
    _check_y(net, y, "katz_beta")
    x_ok, x_cap = _x_condition(net, x, y, n)
    if not x_ok:
        raise PreconditionError(f"katz_beta needs x < (1 - y Delta)^(1/n) = {x_cap:g}, got x = {x:g}")
    return BetaVector(beta=_power(x, n) * _katz_solve(net, y, np.ones(net.node_count)), method="katz-closed-form")


@dataclass
class KatzResilienceBound:
    """Katz-based resilience lower bound plus precondition bookkeeping.

    precondition_ok records whether the returned x itself satisfies the
    closed form's x-condition; the bound is valid either way.
    """

    value: float
    precondition_ok: bool
    clamped: bool


def resilience_lb_katz(net: ProductionNetwork, y: float, epsilon: float, n: int = 1) -> KatzResilienceBound:
    """Resilience lower bound (eps / sum of Katz centralities)^(1/n)."""
    check_real(epsilon, "epsilon", "(0, 1)")
    n = check_int(n, "n")
    value, clamped = _root_bound(epsilon, float(katz_centrality(net, y).sum()), n)
    return KatzResilienceBound(value=value, precondition_ok=_x_condition(net, value, y, n)[0], clamped=clamped)


def _root_bound(epsilon: float, mass: float, n: int) -> tuple[float, bool]:
    """(epsilon / mass)^(1/n) clamped to [0, 1], and whether it was clamped; a mass <= 0 gives 1."""
    return (1.0, True) if mass <= 0.0 else _clamp01(_root(epsilon / mass, n))


def dag_sparse_bound(K: int, x: float, y: float, n: int = 1) -> float:
    """Closed-form expected-failure bound x^n e^{Ky} / y for any DAG; inf beyond float range."""
    K = check_int(K, "K")
    check_real(x, "x")
    check_real(y, "y", "(0, 1]")
    n = check_int(n, "n")
    xn, ky = _power(x, n), _times(K, y)
    if ky <= _LOG_FLOAT_MAX:  # e^{Ky} is a float
        return xn * math.exp(ky) / y
    log_value = math.log(xn) + ky - math.log(y) if xn else -math.inf
    return math.exp(log_value) if log_value <= _LOG_FLOAT_MAX else math.inf


def dag_resilience_lb(K: int, epsilon: float, n: int = 1) -> float:
    """Universal DAG resilience lower bound (eps / (e K))^(1/n) at y = 1/K."""
    K = check_int(K, "K")
    check_real(epsilon, "epsilon", "(0, 1)")
    return _root_bound(epsilon, _times(K, math.e), check_int(n, "n"))[0]


def vulnerability_ranking(
    net: ProductionNetwork, x: float, y: float, n: int = 1
) -> list[tuple[int, float]]:
    """Products ordered most-vulnerable-first by their beta bound.

    The bounds are `_program_optimum`'s: the DAG pass when the network is
    acyclic, the fixed point otherwise; ties break by ascending product id
    for determinism.
    """
    check_real(x, "x")
    check_real(y, "y")
    n = check_int(n, "n")
    return _ranking(_program_optimum(net, y, np.full(net.node_count, _power(x, n), dtype=np.float64)))


def _ranking(bv: BetaVector) -> list[tuple[int, float]]:
    """(product id, beta) pairs in `_rank` order."""
    order = _rank(bv.beta)
    return list(zip((order + 1).tolist(), bv.beta[order].tolist()))


def _rank(scores: np.ndarray) -> np.ndarray:
    """0-based indices by descending score, ties by ascending index."""
    return np.argsort(-scores, kind="stable")
