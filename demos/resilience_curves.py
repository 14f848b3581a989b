"""Estimate resilience curves and AUC for contrasting architectures.

The resilience at tolerance eps is the largest shock x at which at least
(1-eps)K products survive with probability 1 - 1/K; the curve traces it
over eps and the AUC condenses it to one number per network.
"""

import prodnet as pn


def main():
    nets = {
        "chain (m=1 tree, D=12)": pn.generate_backward_tree(1, 12),
        "binary tree (D=4)": pn.generate_backward_tree(2, 4),
        "parallel (K=12, m=2, d=3)": pn.generate_parallel(12, 2, 3, seed=0),
        "random DAG (K=24, p=0.1)": pn.generate_rdag(24, 0.1, seed=0),
        "trellis (w=6, D=4, p=0.12)": pn.generate_trellis(6, 4, 0.12, seed=0),
    }
    eps_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    print("eps grid:", eps_grid, "\n")
    for name, net in nets.items():
        curve = pn.resilience_curve(net, epsilon_grid=eps_grid, n=1, trials=800, seed=5)
        row = " ".join(f"{v:.3f}" for v in curve.r_hat)
        print(f"{name:<28} AUC {curve.auc:.3f}   r(eps): {row}")

    print("\nmore suppliers per product push every estimate up (n sweep on the chain):")
    chain = pn.generate_backward_tree(1, 8)
    for n in (1, 2, 3):
        r = pn.estimate_resilience(chain, 0.25, n=n, trials=2000, seed=6)
        print(f"  n={n}: resilience(0.25) ~ {r:.4f}")

    print("\nensemble mode over random-DAG realizations:")
    nets = [pn.generate_rdag(20, 0.1, seed=s) for s in range(8)]
    mean, se, values = pn.estimate_resilience_ensemble(nets, 0.3, n=1, trials=800, seed=7)
    print(f"  resilience(0.3) = {mean:.4f} +/- {se:.4f} over {len(values)} realizations")


if __name__ == "__main__":
    main()
