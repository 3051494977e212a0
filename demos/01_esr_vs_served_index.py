"""ESR vs. served-user index: the headline experiment.

For K = 4 and K = 8 users at 20 dB transmit SNR, evaluate the ergodic
secrecy rate of every candidate served user three ways (exact analysis,
high-SNR closed form, Monte Carlo with 10^4 trials) and locate the optimum.
The n = K point is the degenerate TDMA-like slot: the strongest user
transmits alone at full power with nobody jamming.

Expected outcome: the best served user is n = 3 for K = 4 and n = 7 for
K = 8, and both beat the TDMA-like baseline by a wide margin.
"""

import numpy as np

from dualsel.selection import evaluate_cells, select_served

RHO_DB = 20.0
RHO = 10.0 ** (RHO_DB / 10.0)
TRIALS = 10_000
SEED = 1


def esr_curves(K):
    ns = np.arange(1, K + 1)

    def scan(method):
        # one scan per method, so the Monte Carlo cells share one draw of the gains
        return evaluate_cells(K, [(method, int(n), RHO) for n in ns], TRIALS, SEED)

    exact = np.array([r.value for r in scan("analytic")])
    high = np.array([r.value for r in scan("high_snr")])
    ests = scan("montecarlo")
    mc = np.array([e.esr for e in ests])
    mc_se = np.array([e.std_error for e in ests])
    return ns, exact, high, mc, mc_se


for K in (4, 8):
    ns, exact, high, mc, mc_se = esr_curves(K)
    best = select_served(K, RHO, method="analytic").best_n
    print(f"\nK = {K} users, rho = {RHO_DB:g} dB  (n = {K} is the TDMA-like slot)")
    print("  n   exact      high-SNR   MC(1e4)    MC stderr")
    for i, n in enumerate(ns):
        mark = "  <-- optimum" if n == best else ""
        print(
            f"  {n}   {exact[i]:.4f}     {high[i]:.4f}     {mc[i]:.4f}     "
            f"{mc_se[i]:.4f}{mark}"
        )
    print(f"  exhaustive search: best served index n* = {best}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, axes = plt.subplots(1, 2, figsize=(11, 4.2), sharey=True)
    for ax, K in zip(axes, (4, 8)):
        ns, exact, high, mc, mc_se = esr_curves(K)
        ax.plot(ns, exact, "k-o", label="exact")
        ax.plot(ns, high, "b--s", label="high-SNR closed form")
        ax.errorbar(ns, mc, yerr=3 * mc_se, fmt="r^", label="Monte Carlo (1e4)")
        ax.axhline(exact[-1], color="gray", lw=0.8, ls=":", label="TDMA-like (n = K)")
        ax.set_title(f"K = {K}, rho = {RHO_DB:g} dB")
        ax.set_xlabel("served user index n")
        ax.grid(alpha=0.3)
    axes[0].set_ylabel("ergodic secrecy rate [nats]")
    axes[0].legend()
    fig.tight_layout()
    fig.savefig("esr_vs_served_index.png", dpi=150)
    print("\nsaved esr_vs_served_index.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
