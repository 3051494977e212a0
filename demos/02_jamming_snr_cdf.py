"""Distribution of the jamming-decode SNR T = |h_K|^2 / (|h_n|^2 + 2/rho).

The base station must decode the jamming signal before it can cancel it, so
the whole scheme rides on this ratio of a maximum to a lower order statistic.
Its closed-form CDF is one formula for every t, continuous at t = 1; at high
SNR all mass moves above 1 because the strongest gain cannot trail the n-th.

The script overlays the closed form on a million simulated slots and prints
the Kolmogorov-Smirnov distance, then shows the high-SNR limit taking over.
"""

import numpy as np

from dualsel import SystemConfig, analytic, montecarlo

SAMPLES = 1_000_000
SEED = 77

for K, n, rho in ((4, 2, 10.0), (8, 4, 100.0)):
    cfg = SystemConfig(num_users=K, served_index=n, transmit_snr=rho)
    t = montecarlo.empirical_cdf_T(cfg, SAMPLES, SEED)
    ks = montecarlo.ks_distance(t, analytic.cdf_T(t, cfg))
    below = float(np.mean(t < 1.0))
    print(
        f"K={K}, n={n}, rho={rho:g}: KS(closed form, {SAMPLES:.0e} samples) = {ks:.2e}; "
        f"P(T < 1) = {below:.3f}"
    )

# pointwise convergence to the high-SNR limit
grid = np.array([1.0, 2.0, 5.0, 10.0])
print("\nconvergence of the finite-SNR CDF to its high-SNR limit (K=4, n=2):")
print("  t    " + "".join(f"rho=1e{p}   " for p in (2, 4, 6)))
limit = analytic.cdf_T_high_snr(grid, 4, 2)
for i, t in enumerate(grid):
    gaps = [
        abs(analytic.cdf_T(t, SystemConfig(4, 2, 10.0**p)) - limit[i]) for p in (2, 4, 6)
    ]
    print(f"  {t:4g} " + "".join(f"{g:.2e}  " for g in gaps))

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    cfg = SystemConfig(num_users=4, served_index=2, transmit_snr=10.0)
    t = montecarlo.empirical_cdf_T(cfg, 200_000, SEED)
    grid = np.linspace(0.0, 12.0, 600)
    fig, ax = plt.subplots(figsize=(6.4, 4.2))
    ax.plot(t, np.arange(1, len(t) + 1) / len(t), "r-", lw=3, alpha=0.4, label="empirical")
    ax.plot(grid, analytic.cdf_T(grid, cfg), "k-", lw=1.2, label="closed form")
    ax.plot(grid, analytic.cdf_T_high_snr(grid, 4, 2), "b--", lw=1.2, label="high-SNR limit")
    ax.axvline(1.0, color="gray", lw=0.8, ls=":")
    ax.set_xlabel("t")
    ax.set_ylabel("P(T <= t)")
    ax.set_title("jamming-decode SNR, K=4, n=2, rho=10")
    ax.legend()
    ax.grid(alpha=0.3)
    fig.tight_layout()
    fig.savefig("jamming_snr_cdf.png", dpi=150)
    print("\nsaved jamming_snr_cdf.png")
except ImportError:
    print("\nmatplotlib not available; skipped the figure")
