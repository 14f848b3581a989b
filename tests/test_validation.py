"""Every malformed argument or input file ends in a ProdnetError.

The table drives public entry points with values outside their domain:
NaN where a real is expected, bools where an int is expected, negative
and fractional seeds, non-numbers and out-of-range values.  Each one
must raise ParameterError, never a bare TypeError or ValueError and
never a result computed from the bad value.  A second table hands
`ProductionNetwork` edge ids and tiers that break `check_int`'s rule,
or tiers that are not a mapping, which must raise ValidationError.  A
third table calls closed-form bounds at sizes beyond float range, which
must give the limit of their formula.  The fuzz properties write
arbitrary bytes, and arbitrary or nearly well-formed text in one of three
encodings, to a file and hand it to each parser, which may warn but may
raise nothing but a ProdnetError.
"""

import json
import math
import tempfile
import time
import warnings
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import prodnet
from prodnet import (
    BatchResult,
    BranchingDistribution,
    GWExpectedBounds,
    ParameterError,
    PercolationConfig,
    ProdnetError,
    ProductionNetwork,
    SizeError,
    ValidationError,
    cascade_tail_g,
    cascade_tail_g_envelope,
    dag_beta,
    dag_resilience_lb,
    dag_sparse_bound,
    estimate_resilience,
    estimate_resilience_ensemble,
    estimate_survival_prob,
    evaluate_intervention,
    fixed_point_beta,
    generate_backward_tree,
    generate_gw_tree,
    generate_parallel,
    generate_rdag,
    generate_trellis,
    gw_bound_upper,
    gw_bounds,
    gw_expected_bounds,
    katz_beta,
    katz_centrality,
    load_network_json,
    optimal_protection,
    parallel_bounds,
    parse_edge_csv,
    parse_io_table,
    powerlaw_pmf,
    powerlaw_tail_constant,
    rdag_lb_x,
    resilience_curve,
    resilience_lb_katz,
    run_batch,
    run_coupled_pair,
    run_trial,
    simulate_extinction_depths,
    supplier_allocation,
    tree_bounds,
    tree_catastrophe_prob,
    tree_expected_survivors_envelope,
    tree_tier_survival,
    trellis_bounds,
)

NAN = float("nan")
TOO_LONG = 10**5000  # beyond the interpreter's 4300-digit limit on printing an int
CHAIN = ProductionNetwork(3, [(1, 2), (2, 3)])
EDGELESS = ProductionNetwork(2, [])


def _io_table(tmp_path, threshold):
    path = tmp_path / "io.csv"
    path.write_text(",a,b\na,0,1\nb,0,0\n", encoding="utf-8")
    return parse_io_table(path, threshold=threshold)


CASES = {
    # NaN where a real is expected
    "katz_centrality-y-nan": lambda tmp: katz_centrality(CHAIN, NAN),
    "optimal_protection-y-nan": lambda tmp: optimal_protection(CHAIN, 1, NAN),
    "supplier_allocation-y-nan": lambda tmp: supplier_allocation(CHAIN, NAN, 1, [1, 1, 1], 2),
    "resilience_lb_katz-y-nan": lambda tmp: resilience_lb_katz(CHAIN, NAN, 0.3),
    "poisson-nan": lambda tmp: BranchingDistribution.poisson(NAN),
    "gw_bounds-mu-nan": lambda tmp: gw_bounds(NAN, 3, 0.3),
    "plan-objective-x-nan": lambda tmp: optimal_protection(CHAIN, 1, 0.5).objective(NAN),
    "parse_io_table-threshold-nan": lambda tmp: _io_table(tmp, NAN),
    "parse_io_table-threshold-negative": lambda tmp: _io_table(tmp, -1e-300),
    # bools where an int is expected
    "estimate_resilience-n-bool": lambda tmp: estimate_resilience(CHAIN, 0.5, n=True, trials=10),
    "optimal_protection-T-bool": lambda tmp: optimal_protection(CHAIN, True, 0.5),
    "PercolationConfig-n-bool": lambda tmp: PercolationConfig(x=0.1, n=True),
    "run_batch-trials-bool": lambda tmp: run_batch(CHAIN, PercolationConfig(x=0.1), trials=True),
    "ProductionNetwork-K-bool": lambda tmp: ProductionNetwork(True, []),
    "generate_trellis-w-bool": lambda tmp: generate_trellis(True, 2, 0.5, seed=1),
    "powerlaw_pmf-K-bool": lambda tmp: powerlaw_pmf(1, True, 0.5, 0.5),
    "katz_beta-n-bool": lambda tmp: katz_beta(CHAIN, 0.1, 0.1, n=True),
    "binomial-k-bool": lambda tmp: BranchingDistribution.binomial(True, 0.5),
    "point-value-bool": lambda tmp: BranchingDistribution.point(True),
    "evaluate_intervention-n-bool": lambda tmp: evaluate_intervention(
        CHAIN, [0, 0, 0], 0.1, 0.5, n=True
    ),
    "dag_sparse_bound-K-bool": lambda tmp: dag_sparse_bound(True, 0.1, 0.5),
    "dag_resilience_lb-K-bool": lambda tmp: dag_resilience_lb(True, 0.3),
    # bools where a real is expected
    "dag_beta-x-bool": lambda tmp: dag_beta(CHAIN, True, 0.5),
    # seeds: negative, fractional, bool
    "generate_rdag-seed-negative": lambda tmp: generate_rdag(5, 0.3, seed=-1),
    "generate_parallel-seed-fractional": lambda tmp: generate_parallel(3, 2, 2, seed=1.5),
    "generate_trellis-seed-bool": lambda tmp: generate_trellis(2, 2, 0.5, seed=True),
    "generate_gw_tree-seed-negative": lambda tmp: generate_gw_tree(
        BranchingDistribution.point(1), 3, seed=-1
    ),
    "simulate_extinction_depths-seed-negative": lambda tmp: simulate_extinction_depths(
        BranchingDistribution.poisson(0.5), max_tau=5, samples=10, seed=-1
    ),
    # non-numbers
    "PercolationConfig-x-str": lambda tmp: PercolationConfig(x="a"),
    "dag_beta-y-none": lambda tmp: dag_beta(CHAIN, 0.1, None),
    "resilience_curve-eps-str": lambda tmp: resilience_curve(CHAIN, ["0.5"], trials=10),
    "run_coupled_pair-x1-str": lambda tmp: run_coupled_pair(
        CHAIN, PercolationConfig(x=0.1), "a", 0.5
    ),
    "estimate_survival_prob-x-complex": lambda tmp: estimate_survival_prob(CHAIN, 1j, 1, 0.5, 10),
    "trellis_bounds-p-array": lambda tmp: trellis_bounds(2, 2, np.array([0.5]), 0.3),
    # caps: NaN, fractional and beyond-int64 entries
    "supplier_allocation-caps-nan": lambda tmp: supplier_allocation(CHAIN, 0.2, 1, [1, NAN, 1], 2),
    "supplier_allocation-caps-fractional": lambda tmp: supplier_allocation(
        CHAIN, 0.2, 1, [1.7, 1.7, 1.7], 2
    ),
    "supplier_allocation-caps-beyond-int64": lambda tmp: supplier_allocation(
        CHAIN, 0.2, 1, [1, 2**70, 1], 2
    ),
    # trials and n beyond int64, or beyond what a batch can seed or size
    "estimate_survival_prob-trials-beyond-int64": lambda tmp: estimate_survival_prob(
        CHAIN, 0.1, 1, 0.5, 2**70
    ),
    "estimate_survival_prob-n-beyond-int64": lambda tmp: estimate_survival_prob(CHAIN, 0.1, 2**70, 0.5, 10),
    "run_batch-trials-beyond-int64": lambda tmp: run_batch(CHAIN, PercolationConfig(x=0.1), 2**70),
    "run_batch-trials-beyond-32-bits": lambda tmp: run_batch(CHAIN, PercolationConfig(x=0.1), 2**32 + 1),
    "run_batch-n-beyond-int64": lambda tmp: run_batch(CHAIN, PercolationConfig(x=0.1, n=2**70), 10),
    "run_coupled_pair-n-too-large": lambda tmp: run_coupled_pair(
        CHAIN, PercolationConfig(x=0.1, n=2**62), 0.1, 0.2
    ),
    # K n supplier uniforms that just fit numpy's largest array, which the E
    # edge uniforms of joint percolation overflow
    "run_trial-n-too-large-with-edges": lambda tmp: run_trial(
        CHAIN, PercolationConfig(x=0.1, y=0.5, n=np.iinfo(np.intp).max // 8 // 3)
    ),
    "run_batch-n-too-large-with-edges": lambda tmp: run_batch(
        CHAIN, PercolationConfig(x=0.1, y=0.5, n=np.iinfo(np.intp).max // 8 // 3), 1
    ),
    "resilience_curve-trials-beyond-int64": lambda tmp: resilience_curve(CHAIN, trials=2**70),
    # an epsilon grid that is not a sequence
    "resilience_curve-grid-none": lambda tmp: resilience_curve(CHAIN, epsilon_grid=None, trials=10),
    "resilience_curve-grid-int": lambda tmp: resilience_curve(CHAIN, epsilon_grid=5, trials=10),
    # protection sets whose entries are not bools or the integers 0 and 1
    "evaluate_intervention-t-str": lambda tmp: evaluate_intervention(CHAIN, ["a", "b", "c"], 0.1, 0.5),
    "evaluate_intervention-t-fractional": lambda tmp: evaluate_intervention(CHAIN, [0.5, 2, 0], 0.1, 0.5),
    "evaluate_intervention-t-two": lambda tmp: evaluate_intervention(CHAIN, [0, 2, 1], 0.1, 0.5),
    "evaluate_intervention-t-float-array": lambda tmp: evaluate_intervention(
        CHAIN, np.array([1.0, 0.0, 0.0]), 0.1, 0.5
    ),
    "evaluate_intervention-t-none": lambda tmp: evaluate_intervention(CHAIN, [None, 0, 1], 0.1, 0.5),
    # spontaneous-failure terms outside [0, 1]
    "fixed_point_beta-spontaneous-above-one": lambda tmp: fixed_point_beta(CHAIN, 0.1, 0.5, spontaneous=[0.1, 1.5, 0]),
    "fixed_point_beta-spontaneous-negative": lambda tmp: fixed_point_beta(
        CHAIN, 0.1, 0.5, spontaneous=np.array([0.1, -0.1, 0])
    ),
    # out of range
    "estimate_resilience_ensemble-empty": lambda tmp: estimate_resilience_ensemble([], 0.3),
    "poisson-inf": lambda tmp: BranchingDistribution.poisson(float("inf")),
    "tree_expected_survivors_envelope-beyond-float": lambda tmp: tree_expected_survivors_envelope(10, 400, 0.1),
    # a missing parameter
    "poisson-without-mu": lambda tmp: BranchingDistribution("poisson"),
    "binomial-without-p": lambda tmp: BranchingDistribution("binomial", k=3),
    # counts that numpy draws as int64, beyond it
    "point-value-beyond-int64": lambda tmp: BranchingDistribution.point(10**19),
    "binomial-k-beyond-int64": lambda tmp: BranchingDistribution.binomial(10**19, 0.1),
    "poisson-rate-beyond-int64": lambda tmp: BranchingDistribution.poisson(1e19),
    "simulate_extinction_depths-k-times-parents-beyond-int64": lambda tmp: simulate_extinction_depths(
        BranchingDistribution.binomial(10**12, 2e-12), 200, 2000
    ),
    "katz_centrality-y-inf": lambda tmp: katz_centrality(EDGELESS, float("inf")),
    "katz_centrality-y-beyond-float": lambda tmp: katz_centrality(EDGELESS, 10**400),
    # y above 1, which no edgeless network's spectral limit refuses
    "katz_centrality-y-above-one": lambda tmp: katz_centrality(EDGELESS, 7.0),
    "optimal_protection-y-above-one": lambda tmp: optimal_protection(EDGELESS, 1, 7.0),
    # a protection set of the wrong shape, f above K and an unknown scope
    "evaluate_intervention-t-shape": lambda tmp: evaluate_intervention(CHAIN, [0, 0], 0.1, 0.5),
    "powerlaw_pmf-f-above-K": lambda tmp: powerlaw_pmf(4, 3, 0.3, 0.3),
    "parallel_bounds-scope-unknown": lambda tmp: parallel_bounds(5, 2, 2, 0.3, scope="some"),
    # integers too long to print, quoted by each message that names the value
    "tree_bounds-D-too-long": lambda tmp: tree_bounds(2, -TOO_LONG, 0.3),
    "PercolationConfig-n-too-long": lambda tmp: PercolationConfig(x=0.1, n=-TOO_LONG),
    "PercolationConfig-x-too-long": lambda tmp: PercolationConfig(x=TOO_LONG),
    "run_batch-trials-too-long": lambda tmp: run_batch(CHAIN, PercolationConfig(x=0.1), TOO_LONG),
    "run_batch-n-too-long": lambda tmp: run_batch(CHAIN, PercolationConfig(x=0.1, n=TOO_LONG), 10),
    "supplier_allocation-caps-too-long": lambda tmp: supplier_allocation(CHAIN, 0.2, 1, [1, TOO_LONG, 1], 2),
    "ProductionNetwork-K-too-long": lambda tmp: ProductionNetwork(TOO_LONG, []),
    "powerlaw_pmf-f-too-long": lambda tmp: powerlaw_pmf(TOO_LONG, 3, 0.3, 0.3),
    "parallel_bounds-scope-too-long": lambda tmp: parallel_bounds(5, 2, 2, 0.3, scope=TOO_LONG),
    "tree_expected_survivors_envelope-D-too-long": lambda tmp: tree_expected_survivors_envelope(10, TOO_LONG, 0.1),
    "resilience_curve-grid-too-long": lambda tmp: resilience_curve(CHAIN, epsilon_grid=TOO_LONG, trials=10),
    "optimal_protection-T-too-long": lambda tmp: optimal_protection(CHAIN, TOO_LONG, 0.5),
    "evaluate_intervention-t-too-long": lambda tmp: evaluate_intervention(CHAIN, [TOO_LONG, 0, 0], 0.1, 0.5),
    "generate_parallel-d-too-long": lambda tmp: generate_parallel(1, TOO_LONG, TOO_LONG, seed=1),
    "generate_parallel-pool-too-long": lambda tmp: generate_parallel(1, 10 * TOO_LONG, 2, seed=1),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_bad_argument_raises_parameter_error(call, tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(ParameterError):
            call(tmp_path)


# each per-product vector argument, and vectors that are not one valid entry per product
VECTOR_ARGUMENTS = {
    "t": lambda v: evaluate_intervention(CHAIN, v, 0.1, 0.5),
    "caps": lambda v: supplier_allocation(CHAIN, 0.2, 1, v, 2),
    "spontaneous": lambda v: fixed_point_beta(CHAIN, 0.1, 0.5, spontaneous=v),
}
MALFORMED_VECTORS = {
    "ragged": [[1], [0, 1], 0],
    "short": [0, 0],
    "none": None,
    "none-entry": [0, None, 0],
    "str": "abc",
    "str-entry": [0, "a", 0],
    "nan-entry": [0, NAN, 0],
}


@pytest.mark.parametrize(
    "name, kind",
    [
        (name, kind)
        for name in VECTOR_ARGUMENTS
        for kind in MALFORMED_VECTORS
        if (name, kind) != ("spontaneous", "none")  # the default: the uniform x^n
    ],
)
def test_malformed_per_product_vector_names_the_argument(name, kind):
    # refused at once: a NaN spontaneous term used to run the fixed point to its iteration cap
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=rf"^{name}\b"):
        VECTOR_ARGUMENTS[name](MALFORMED_VECTORS[kind])
    assert time.perf_counter() - start < 1.0


# sizes that numpy cannot hold, or networks past the node cap, refused
# before any draw: the last three would draw about 5e13, 1e12 and 1e24 doubles
OVERSIZE = {
    "generate_rdag-K-beyond-int64": lambda: generate_rdag(2**70, 0.3, seed=1),
    "generate_trellis-w-beyond-int64": lambda: generate_trellis(2**70, 2, 0.5, seed=1),
    "tree_tier_survival-D-beyond-int64": lambda: tree_tier_survival(2, 2**70, 0.5),
    "simulate_extinction_depths-samples-beyond-int64": lambda: simulate_extinction_depths(
        BranchingDistribution.poisson(0.5), max_tau=5, samples=2**70, seed=1
    ),
    "generate_rdag-K-past-the-cap": lambda: generate_rdag(10**7 + 1, 1e-12, seed=1),
    "generate_trellis-w-times-D-past-the-cap": lambda: generate_trellis(10**4, 10**4, 1e-9, seed=1),
    "generate_parallel-K-past-the-cap": lambda: generate_parallel(10**12, 2, 2, seed=1),
}


@pytest.mark.parametrize("call", OVERSIZE.values(), ids=OVERSIZE.keys())
def test_oversize_request_is_refused_before_drawing(call):
    start = time.perf_counter()
    with pytest.raises(ProdnetError):
        call()
    assert time.perf_counter() - start < 1.0


# every request for more than MAX_NODES products, refused by the one node-cap check
NODE_CAP = {
    "ProductionNetwork": lambda: ProductionNetwork(10**7 + 1, []),
    "generate_rdag": lambda: generate_rdag(10**7 + 1, 1e-12, seed=1),
    "generate_parallel": lambda: generate_parallel(10**12, 2, 2, seed=1),
    "generate_backward_tree": lambda: generate_backward_tree(2, 24),
    "generate_gw_tree": lambda: generate_gw_tree(BranchingDistribution.point(3), 50, seed=1),
    "generate_trellis": lambda: generate_trellis(10**4, 10**4, 1e-9, seed=1),
}


@pytest.mark.parametrize("call", NODE_CAP.values(), ids=NODE_CAP.keys())
def test_node_cap_has_one_message(call):
    with pytest.raises(SizeError, match=r" exceeds the limit of 10000000 products$"):
        call()


# edge ids and tiers that break check_int's rule, and tier keys outside 1..K
NETWORK_CASES = {
    "edge-id-float-list": lambda: ProductionNetwork(3, [(1, 2.5)]),
    "edge-id-float-array": lambda: ProductionNetwork(3, np.array([[1, 2.7]])),
    "edge-id-integral-float-array": lambda: ProductionNetwork(3, np.array([[1.0, 2.0]])),
    "edge-id-bool-list": lambda: ProductionNetwork(3, [(True, 2)]),
    "edge-id-bool-array": lambda: ProductionNetwork(3, np.array([[True, 2]], dtype=object)),
    "edge-id-str-list": lambda: ProductionNetwork(3, [("1", "2")]),
    "edge-id-str-array": lambda: ProductionNetwork(3, np.array([["1", "2"]])),
    "edge-id-float-after-numpy-ints": lambda: ProductionNetwork(3, [(np.int64(1), 2), (2, 3.5)]),
    "tier-float": lambda: ProductionNetwork(2, [(1, 2)], tiers={1: 1.5, 2: 1}),
    "tier-str": lambda: ProductionNetwork(2, [(1, 2)], tiers={1: "a", 2: 1}),
    "tier-bool": lambda: ProductionNetwork(2, [(1, 2)], tiers={1: True, 2: 1}),
    "tier-negative": lambda: ProductionNetwork(2, [(1, 2)], tiers={1: -1, 2: 0}),
    "tier-key-above-K": lambda: ProductionNetwork(2, [(1, 2)], tiers={1: 0, 2: 1, 5: 3}),
    "tier-key-zero": lambda: ProductionNetwork(2, [(1, 2)], tiers={0: 0, 1: 0, 2: 1}),
    "tier-key-float": lambda: ProductionNetwork(2, [(1, 2)], tiers={1.0: 0, 2: 1}),
    "tiers-int": lambda: ProductionNetwork(2, [(1, 2)], tiers=5),
    "tiers-list": lambda: ProductionNetwork(2, [(1, 2)], tiers=[1, 2]),
    "tiers-str": lambda: ProductionNetwork(2, [(1, 2)], tiers="ab"),
    "tiers-pairs": lambda: ProductionNetwork(2, [(1, 2)], tiers=[(1, 0), (2, 1)]),
    # integers too long to print
    "edge-id-too-long": lambda: ProductionNetwork(3, [(1, TOO_LONG)]),
    "edge-id-too-long-beside-a-float": lambda: ProductionNetwork(3, [(TOO_LONG, 2.5)]),
    "tiers-too-long": lambda: ProductionNetwork(2, [(1, 2)], tiers=TOO_LONG),
    "tier-too-long": lambda: ProductionNetwork(2, [(1, 2)], tiers={1: -TOO_LONG, 2: 0}),
}


@pytest.mark.parametrize("call", NETWORK_CASES.values(), ids=NETWORK_CASES.keys())
def test_bad_network_ids_and_tiers_raise_validation_error(call):
    with pytest.raises(ValidationError):
        call()


def test_network_messages_name_the_first_bad_pair_or_entry():
    with pytest.raises(ValidationError, match=r"pairs of integers: got \(2, 2\.5\)$"):
        ProductionNetwork(3, [(1, 2), (2, 2.5), (3, "1")])
    with pytest.raises(ValidationError, match=r"pairs of integers: got \[1\.0, 2\.7\]$"):
        ProductionNetwork(3, np.array([[1, 2.7]]))
    # uint64 ids past int64 are quoted as given, not wrapped to negative int64
    with pytest.raises(ValidationError, match=r"^edge \(1, 18446744073709551615\) references a node outside 1\.\.3$"):
        ProductionNetwork(3, np.array([[1, 2**64 - 1]], dtype=np.uint64))
    with pytest.raises(ValidationError, match=r"^tier entry 5: 3 needs a product id in 1\.\.2 "):
        ProductionNetwork(2, [(1, 2)], tiers={1: 0, 2: 1, 5: 3})
    with pytest.raises(ValidationError, match=r"^tier entry 1: 'a' needs "):
        ProductionNetwork(2, [(1, 2)], tiers={1: "a", 2: 1})
    # numpy integers are integers; the stored tiers are Python ints
    net = ProductionNetwork(2, [(np.int64(1), np.int32(2))], tiers={np.int64(1): np.uint8(0), 2: 1})
    assert net.edges == ((1, 2),) and net.tiers == {1: 0, 2: 1}
    assert {type(v) for item in net.tiers.items() for v in item} == {int}


# sizes beyond float range: each call gives the limit its formula takes, where
# it used to raise OverflowError converting K, n, tau, w, D (or e^{Ky}) to a float
HUGE = 10**400
BEYOND_FLOAT_CASES = {
    "rdag_lb_x": (lambda: rdag_lb_x(HUGE, 0.1, 0.3), 0.0),
    "dag_resilience_lb": (lambda: dag_resilience_lb(HUGE, 0.3), 0.0),
    "dag_sparse_bound-e^Ky": (lambda: dag_sparse_bound(800, 0.5, 1.0), math.inf),
    "dag_sparse_bound-K": (lambda: dag_sparse_bound(HUGE, 0.5, 0.5), math.inf),
    "dag_sparse_bound-x-zero": (lambda: dag_sparse_bound(HUGE, 0.0, 0.5), 0.0),
    "powerlaw_pmf": (lambda: powerlaw_pmf(1, HUGE, 0.1, 0.5), 0.0),
    "powerlaw_pmf-f": (lambda: powerlaw_pmf(HUGE, HUGE, 0.1, 0.5), 0.0),
    "powerlaw_tail_constant": (lambda: powerlaw_tail_constant(HUGE, 0.1, 0.5), 0.0),
    "powerlaw_tail_constant-p-one": (lambda: powerlaw_tail_constant(HUGE, 1.0, 1.0), 0.0),
    "cascade_tail_g": (lambda: cascade_tail_g(0.5, HUGE, 0.1, 0.3), 0.5 * 0.7),
    "cascade_tail_g_envelope": (lambda: cascade_tail_g_envelope(0.5, HUGE, 0.1, 0.3), 0.5 * 0.7),
    "parallel_bounds-K": (
        lambda: astuple(parallel_bounds(HUGE, 3, 2, 0.3))[:2],
        (0.3 / 6, 1.0 - 0.35 ** (1.0 / 3)),
    ),
    "parallel_bounds-m": (lambda: astuple(parallel_bounds(5, HUGE, 2, 0.3, scope="all-products"))[:2], (0.0, 1.0)),
    "parallel_bounds-d": (
        lambda: astuple(parallel_bounds(5, 2, HUGE, 0.3, scope="all-products"))[:2],
        (math.sqrt(math.log(2.5) / 20.0), 1.0 - (1.0 - 0.3) / 6.0),
    ),
    # n, the supplier count: x^n -> 0 for x < 1 and (.)^(1/n) -> 1
    "dag_sparse_bound-n": (lambda: dag_sparse_bound(3, 0.5, 0.5, HUGE), 0.0),
    "dag_resilience_lb-n": (lambda: dag_resilience_lb(3, 0.3, HUGE), 1.0),
    "rdag_lb_x-n": (lambda: rdag_lb_x(3, 0.3, 0.3, HUGE), 1.0),
    "powerlaw_pmf-n": (lambda: powerlaw_pmf(1, 3, 0.3, 0.3, HUGE), 0.0),
    "powerlaw_tail_constant-n": (lambda: powerlaw_tail_constant(3, 0.3, 0.3, HUGE), 0.0),
    "cascade_tail_g-n": (lambda: cascade_tail_g(0.5, 3, 0.1, 0.3, HUGE), 0.0),
    "cascade_tail_g_envelope-n": (
        lambda: cascade_tail_g_envelope(0.5, 3, 0.1, 0.3, HUGE), 1.0 / (3 * -math.log1p(-0.1))
    ),
    "tree_bounds-n": (lambda: astuple(tree_bounds(2, 3, 0.3, HUGE))[:2], (1.0, 1.0)),
    "tree_tier_survival-n": (lambda: tree_tier_survival(2, 3, 0.5, HUGE).tolist(), [1.0, 1.0, 1.0]),
    "tree_catastrophe_prob-n": (lambda: tree_catastrophe_prob(2, 3, 0.5, HUGE), (0.0, 0.0)),
    "parallel_bounds-n": (lambda: astuple(parallel_bounds(5, 2, 2, 0.3, HUGE))[:2], (1.0, 1.0)),
    "resilience_lb_katz-n": (lambda: astuple(resilience_lb_katz(CHAIN, 0.1, 0.3, HUGE)), (1.0, True, False)),
    # the bisections see x^n = 0 below x = 1, as at the largest n a float holds
    "gw_bound_upper-n": (lambda: gw_bound_upper(0.5, 3, 0.3, HUGE), gw_bound_upper(0.5, 3, 0.3, 10**300)),
    "gw_bounds-n": (lambda: gw_bounds(0.5, 3, 0.3, HUGE), gw_bounds(0.5, 3, 0.3, 10**300)),
    "gw_bounds-tau": (lambda: gw_bounds(0.5, HUGE, 0.3), gw_bounds(0.5, 10**300, 0.3)),
    # supercritical: both bounds tend to 0 as tau grows
    "gw_bounds-tau-supercritical": (lambda: gw_bounds(10.0, HUGE, 0.05), (0.0, 0.0)),
    "gw_bounds-tau-supercritical-1e300": (lambda: gw_bounds(10.0, 10**300, 0.05), (0.0, 0.0)),
    "gw_bounds-tau-supercritical-1e308": (lambda: gw_bounds(10.0, 10**308, 0.05), (0.0, 0.0)),  # tau log mu overflows
    # a trellis bound depends on w and D, as K = wD cancels
    "trellis_bounds-w": (lambda: astuple(trellis_bounds(HUGE, 2, 0.3, 0.3))[:3], (0.0, 1.3 / 2, "pw>1")),
    "trellis_bounds-w-p-zero": (lambda: astuple(trellis_bounds(HUGE, 2, 0.0, 0.3))[:3], (0.3 / 4, 1.0, "pw<1")),
    "trellis_bounds-D": (lambda: astuple(trellis_bounds(3, HUGE, 0.5, 0.3))[:3], (0.0, 0.0, "pw>1")),
    "trellis_bounds-D-subcritical": (lambda: astuple(trellis_bounds(3, HUGE, 0.1, 0.3))[:3], (0.0, 1.0, "pw<1")),
    "trellis_bounds-n": (lambda: astuple(trellis_bounds(3, 4, 0.5, 0.3, HUGE))[:3], (1.0, 1.0, "pw>1")),
    # the per-product bounds and plans: x^n -> 0, so nothing fails spontaneously
    "dag_beta-n": (lambda: dag_beta(CHAIN, 0.5, 0.5, HUGE).total(), 0.0),
    "katz_beta-n": (lambda: katz_beta(CHAIN, 0.5, 0.5, HUGE).total(), 0.0),
    "fixed_point_beta-n": (lambda: fixed_point_beta(CHAIN, 0.5, 0.5, HUGE).total(), 0.0),
    "evaluate_intervention-n": (lambda: evaluate_intervention(CHAIN, [0, 0, 0], 0.5, 0.5, HUGE)[0], 0.0),
    "plan-objective-n": (lambda: optimal_protection(CHAIN, 1, 0.5).objective(0.5, HUGE), 0.0),
}


@pytest.mark.parametrize("call, expected", BEYOND_FLOAT_CASES.values(), ids=BEYOND_FLOAT_CASES.keys())
def test_sizes_beyond_float_range_give_the_limit(call, expected):
    assert call() == expected


# options removed in 0.3.0, each now refused as an unknown keyword
REMOVED_OPTIONS = {
    "gw_expected_bounds-samples": lambda: gw_expected_bounds(BranchingDistribution.poisson(0.5), 0.3, samples=10),
    "gw_expected_bounds-seed": lambda: gw_expected_bounds(BranchingDistribution.poisson(0.5), 0.3, seed=1),
    "fixed_point_beta-tol": lambda: fixed_point_beta(CHAIN, 0.1, 0.5, tol=1e-6),
    "fixed_point_beta-allow_above_threshold": lambda: fixed_point_beta(
        CHAIN, 0.1, 0.5, allow_above_threshold=True
    ),
    "katz_centrality-tol": lambda: katz_centrality(CHAIN, 0.5, tol=1e-6),
    "ProductionNetwork-acyclic": lambda: ProductionNetwork(2, [(1, 2)], acyclic=True),
}


@pytest.mark.parametrize("call", REMOVED_OPTIONS.values(), ids=REMOVED_OPTIONS.keys())
def test_removed_options_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_removed_result_members():
    assert "samples" not in {f.name for f in fields(GWExpectedBounds)}
    assert not hasattr(BatchResult, "outcomes")


def test_removed_functions():
    # 0.4.0: fixed_point_beta iterates the operator; no single step is public
    assert prodnet.__version__ == "0.9.0"
    assert not hasattr(prodnet, "contraction_step")
    assert not hasattr(prodnet.contagion, "contraction_step")
    # 0.6.0: the fixed point's iteration cap is a module constant, and result
    # objects carry no field that no caller read
    with pytest.raises(TypeError):
        fixed_point_beta(CHAIN, 0.1, 0.1, max_iter=5)
    with pytest.raises(TypeError):
        fixed_point_beta(CHAIN, 0.1, 0.1, 1, 5)
    assert prodnet.contagion.FIXED_POINT_MAX_ITER == 10**6
    for cls, gone in [
        (prodnet.BoundResult, "inputs"),
        (prodnet.InterventionPlan, "budget"),
        (prodnet.InterventionPlan, "y"),
        (prodnet.SupplierAllocation, "budget"),
        (prodnet.GWTreeResult, "truncated"),
    ]:
        assert gone not in {f.name for f in fields(cls)}, (cls, gone)


def test_messages_name_the_argument_and_its_domain():
    with pytest.raises(ParameterError, match=r"^x must lie in \[0, 1\], got nan$"):
        PercolationConfig(x=NAN)
    with pytest.raises(ParameterError, match=r"^node_count must be a positive integer, got True$"):
        ProductionNetwork(True, [])
    with pytest.raises(ParameterError, match=r"^seed must be a nonnegative integer, got -1$"):
        generate_rdag(5, 0.3, seed=-1)
    with pytest.raises(ParameterError, match=r"^epsilon must lie in \(0, 1\), got 1$"):
        resilience_lb_katz(CHAIN, 0.1, 1)
    with pytest.raises(ParameterError, match=r"^caps\[1\] must be at most 9223372036854775807, "):
        supplier_allocation(CHAIN, 0.2, 1, [1, 2**70, 1], 2)
    with pytest.raises(ParameterError, match=r"^t\[1\] must be a bool or the integer 0 or 1, got 0\.5$"):
        evaluate_intervention(CHAIN, [True, 0.5, "a"], 0.1, 0.5)
    with pytest.raises(ValidationError, match=r"^tiers must be a mapping of product id to tier, got 'ab'$"):
        ProductionNetwork(2, [(1, 2)], tiers="ab")
    # an integer too long to print is quoted by its sign and approximate length
    with pytest.raises(ParameterError, match=r"^D must be a positive integer, got -<an integer of about 5001 digits>$"):
        tree_bounds(2, -TOO_LONG, 0.3)
    with pytest.raises(ValidationError, match=r"^edge \(1, <an integer of about 5001 digits>\) references a node "):
        ProductionNetwork(3, [(1, TOO_LONG)])


PARSERS = (parse_edge_csv, parse_io_table, load_network_json)


def _parse_each(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(data)
        for parse in PARSERS:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                try:
                    parse(path)
                except ProdnetError:
                    pass


# text near each format, so the fuzz reaches past the first check of each parser
csv_tokens = st.sampled_from(list("ab01.-e, \n\r\"") + ["nan", "inf", "1e999"])
csv_text = st.lists(csv_tokens, max_size=40).map("".join)
near_inputs = st.one_of(
    csv_text.map(lambda t: "source,target\n" + t),
    csv_text.map(lambda t: ",a,b\n" + t),
    st.text(max_size=80).map(lambda t: '{"schema": 1, "k": 2, "n": 1, "edges": ' + t),
    st.fixed_dictionaries(
        {"schema": st.just(1)},
        optional={
            key: st.recursive(
                st.none()
                | st.booleans()
                | st.integers(-3, 3)
                | st.floats(-3, 3)  # no huge k: a network that large takes gigabytes to build
                | st.sampled_from([NAN, float("inf")])
                | st.text(max_size=3),
                lambda inner: st.lists(inner, max_size=3)
                | st.dictionaries(st.text(max_size=2), inner, max_size=3),
                max_leaves=6,
            )
            for key in ("k", "n", "edges", "tiers", "acyclic")
        },
    ).map(json.dumps),
)


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=200))
def test_parsers_raise_only_prodnet_errors_on_bytes(data):
    _parse_each(data)


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.text(max_size=200), near_inputs), st.sampled_from(["utf-8", "utf-16", "latin-1"])
)
def test_parsers_raise_only_prodnet_errors_on_text(text, encoding):
    _parse_each(text.encode(encoding, "replace"))
