"""Closed-form resilience bounds for every architecture, side by side.

Prints lower/upper resilience bounds for parallel products, backward
trees, branching-process (forward) networks, and random trellises, and
shows the fragile-vs-resilient split as sizes grow.
"""

import prodnet as pn


def main():
    eps, n = 0.3, 1

    print("parallel products (resilient: lower bound stays away from 0)")
    print("  K        complex lower/upper     all-products lower/upper")
    for k in (10, 100, 10_000):
        c = pn.parallel_bounds(k, m=2, d=3, epsilon=eps, n=n, scope="complex-only")
        g = pn.parallel_bounds(k, m=2, d=3, epsilon=eps, n=n, scope="all-products")
        print(f"  {k:<8} {c.lower:.4f} / {c.upper:.4f}          {g.lower:.4f} / {g.upper:.4f}")

    print("\nbackward m-ary tree (fragile: upper bound sinks with depth)")
    print("  m  D   K      lower      upper")
    for m, depth in ((1, 8), (2, 4), (2, 8), (3, 6)):
        r = pn.tree_bounds(m, depth, eps, n)
        k = pn.tree_node_count(m, depth)
        print(f"  {m}  {depth}  {k:<6} {r.lower:.6f}  {r.upper:.4f}  [{r.regime}]")
    exact, envelope = pn.tree_catastrophe_prob(2, 8, 0.05, 1)
    print(f"  catastrophe probability at (m=2, D=8, x=0.05): {exact:.4f} (envelope {envelope:.4f})")

    print("\nforward (branching) network")
    for dist in (
        pn.BranchingDistribution.poisson(0.6),
        pn.BranchingDistribution.binomial(4, 0.2),
        pn.BranchingDistribution.poisson(2.0),
    ):
        print(f"  {dist.kind} mean {dist.mean:.2f}: extinction prob {pn.gw_extinction(dist):.4f}")
    upper, lower = pn.gw_bounds(mu=0.6, tau=5, epsilon=eps, n=n)
    print(f"  per-depth bounds at (mu=0.6, tau=5): lower {lower:.4f}, upper {upper:.4f}")
    res = pn.gw_expected_bounds(pn.BranchingDistribution.poisson(0.6), eps, n, max_tau=500)
    print(f"  depth-averaged: lower {res.lower:.4f}, upper {res.upper:.4f} "
          f"(extinct fraction {res.extinct_fraction:.3f})")

    print("\nrandom trellis: the duality between wide-shallow and narrow-deep")
    print("  w    D    p      regime   lower        upper")
    for w, depth, p in ((50, 4, 0.015), (4, 50, 0.25), (3, 30, 0.5)):
        r = pn.trellis_bounds(w, depth, p, eps, n)
        print(f"  {w:<4} {depth:<4} {p:<6} {r.regime:<7}  {r.lower:.6e}  {r.upper:.4f}")


if __name__ == "__main__":
    main()
