"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
import subprocess
import sys
import time

import numpy as np

from dualsel.analytic import (
    SystemConfig,
    cdf_T,
    esr_exact,
    esr_high_snr,
    esr_tdma_exact,
    esr_tdma_high_snr,
    upsilon_from_xi,
    xi_table,
)
from dualsel.montecarlo import (
    empirical_cdf_T,
    estimate_esr,
    estimate_esr_tdma,
    ks_distance,
)
from dualsel.selection import select_served
from dualsel.specfun import (
    EULER_GAMMA,
    e1_scaled,
    li2,
    quad_interval,
    quad_semi_infinite,
)


def cfg_of(K, n, rho):
    return SystemConfig(num_users=K, served_index=n, transmit_snr=rho)


def report(num, ok, detail):
    print(f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_served_user_argmax():
    """Served-user search returns n*=3 for K=4 and n*=7 for K=8 at 20 dB,
    with both the exact engine and Monte Carlo at 1e5 trials, in under a
    minute."""
    t0 = time.time()
    got = {}
    for K, expected in ((4, 3), (8, 7)):
        got[(K, "analytic")] = select_served(K, 100.0, method="analytic").best_n
        got[(K, "mc")] = select_served(
            K, 100.0, method="montecarlo", trials=100_000, seed=2024
        ).best_n
    elapsed = time.time() - t0
    ok = (
        got[(4, "analytic")] == 3
        and got[(4, "mc")] == 3
        and got[(8, "analytic")] == 7
        and got[(8, "mc")] == 7
        and elapsed < 60.0
    )
    report(
        1,
        ok,
        f"argmax at 20 dB: K=4 -> (analytic {got[(4, 'analytic')]}, mc {got[(4, 'mc')]}), "
        f"K=8 -> (analytic {got[(8, 'analytic')]}, mc {got[(8, 'mc')]}); "
        f"expected 3 and 7; {elapsed:.1f}s elapsed (< 60s)",
    )


def test_criterion_02_analytic_vs_monte_carlo():
    """|esr_exact - estimate_esr(1e6 trials)| <= max(3*stderr, 0.01 nats) at
    (4,3,20 dB), (8,7,20 dB), (4,2,10 dB)."""
    details = []
    ok = True
    for K, n, rho_db in ((4, 3, 20.0), (8, 7, 20.0), (4, 2, 10.0)):
        rho = 10.0 ** (rho_db / 10.0)
        cfg = cfg_of(K, n, rho)
        exact = esr_exact(cfg).value
        est = estimate_esr(cfg, 1_000_000, seed=555)
        tol = max(3.0 * est.std_error, 0.01)
        diff = abs(exact - est.esr)
        ok = ok and diff <= tol
        details.append(f"({K},{n},{rho_db:g}dB): |{exact:.5f}-{est.esr:.5f}|={diff:.2e}<={tol:.2e}")
    report(2, ok, "analytic vs MC 1e6 trials: " + "; ".join(details))


def test_criterion_03_jamming_snr_cdf():
    """KS distance between the closed-form and empirical CDFs of the
    jamming-decode SNR <= 0.005 with 1e6 samples at (4,2,rho=10) and
    (8,4,rho=100)."""
    details = []
    ok = True
    for K, n, rho in ((4, 2, 10.0), (8, 4, 100.0)):
        cfg = cfg_of(K, n, rho)
        samples = empirical_cdf_T(cfg, 1_000_000, seed=77)
        d = ks_distance(samples, cdf_T(samples, cfg))
        ok = ok and d <= 0.005
        details.append(f"({K},{n},rho={rho:g}): KS={d:.2e}")
    report(3, ok, "closed-form CDF vs 1e6 empirical samples: " + "; ".join(details))


def test_criterion_04_high_snr_convergence():
    """Relative gap between the high-SNR closed form and the exact rate:
    <= 5% at 30 dB and <= 1% at 50 dB for (4,3) and (8,7)."""
    details = []
    ok = True
    for K, n in ((4, 3), (8, 7)):
        for rho_db, bound in ((30.0, 0.05), (50.0, 0.01)):
            rho = 10.0 ** (rho_db / 10.0)
            ex = esr_exact(cfg_of(K, n, rho)).value
            hi = esr_high_snr(cfg_of(K, n, rho)).value
            gap = abs(hi - ex) / ex
            ok = ok and gap <= bound
            details.append(f"({K},{n})@{rho_db:g}dB: {gap:.2%}<={bound:.0%}")
    report(4, ok, "high-SNR closed form vs exact: " + "; ".join(details))


def _e1_oracle_scaled(x):
    # quadrature-only e^x E1(x): smooth finite integral below 1, a decaying
    # semi-infinite integral above; no series, no continued fraction
    if x <= 1.0:
        smooth = quad_interval(lambda t: -np.expm1(-t) / t, 0.0, x, tol=1e-13)
        return math.exp(x) * (-EULER_GAMMA - math.log(x) + smooth.value)
    return quad_semi_infinite(lambda s: np.exp(-s) / (x + s), 0.0, tol=1e-13).value


def test_criterion_05_special_function_suite():
    """e1 within 1e-10 relative of an independent quadrature oracle on a
    60-point log grid over [1e-6, 500]; dilogarithm reflection identity to
    1e-10 on (0,1); li2(1) = pi^2/6 to 1e-12."""
    grid = np.logspace(math.log10(1e-6), math.log10(500.0), 60)
    worst_e1 = max(
        abs(e1_scaled(float(x)) - _e1_oracle_scaled(float(x))) / _e1_oracle_scaled(float(x))
        for x in grid
    )
    worst_refl = max(
        abs(
            li2(float(x))
            + li2(1.0 - float(x))
            - (math.pi**2 / 6.0 - math.log(float(x)) * math.log1p(-float(x)))
        )
        for x in np.linspace(0.005, 0.995, 199)
    )
    basel_err = abs(li2(1.0) - math.pi**2 / 6.0)
    ok = worst_e1 <= 1e-10 and worst_refl <= 1e-10 and basel_err <= 1e-12
    report(
        5,
        ok,
        f"e1 worst rel err {worst_e1:.2e} (<=1e-10) on 60-pt grid; "
        f"li2 reflection worst {worst_refl:.2e} (<=1e-10); "
        f"li2(1) err {basel_err:.2e} (<=1e-12)",
    )


def test_criterion_06_coefficient_identity():
    """sum_j Xi_0j/(K-n+1+j) = 1 to 1e-9 for all 2 <= K <= 12, 1 <= n <= K-1."""
    worst = 0.0
    for K in range(2, 13):
        for n in range(1, K):
            c = xi_table(K, n).coefficients
            s = math.fsum(c[0, j] / (K - n + 1 + j) for j in range(n))
            worst = max(worst, abs(s - 1.0))
    report(6, worst <= 1e-9, f"normalization identity worst deviation {worst:.2e} (<=1e-9)")


def test_criterion_07_upsilon_continuity_and_integral():
    """The xi != 1 closed form agrees with the xi = 1 formula to 1e-3 at
    xi = 1 +/- 1e-4, and the closed form matches its defining integral to
    1e-7 for every admissible (i, j) with K <= 8 (rho = 100)."""
    rho = 100.0
    mid = upsilon_from_xi(1.0, rho)
    cont = max(
        abs(upsilon_from_xi(1.0 + 1e-4, rho) - mid),
        abs(upsilon_from_xi(1.0 - 1e-4, rho) - mid),
    )
    lead = math.log(rho / 2.0) + 1.0 - EULER_GAMMA
    checked = {}
    worst_quad = 0.0
    for K in range(2, 9):
        for n in range(1, K):
            for i in range(1, K - n + 1):
                for j in range(n):
                    xi = (K - n + 1 + j) / i - 1.0
                    if xi in checked:
                        continue
                    oracle = quad_semi_infinite(
                        lambda u: (lead + np.log(u / (u + 1.0) ** 2))
                        / ((u + 1.0) ** 2 * (u + xi)),
                        1.0,
                        tol=1e-10,
                    ).value
                    checked[xi] = abs(upsilon_from_xi(xi, rho) - oracle)
                    worst_quad = max(worst_quad, checked[xi])
    ok = cont <= 1e-3 and worst_quad <= 1e-7
    report(
        7,
        ok,
        f"continuity across xi=1: {cont:.2e} (<=1e-3); defining-integral match over "
        f"{len(checked)} distinct xi values for K<=8: worst {worst_quad:.2e} (<=1e-7)",
    )


def test_criterion_08_tdma_sign_discrepancy():
    """TDMA baseline at K=2, rho=1e6, 1e6 trials lands on log 2 +/- 0.01,
    matching the corrected-sign series and not the printed one (which
    clamps to zero). Both variants are reported."""
    est = estimate_esr_tdma(2, 1e6, 1_000_000, seed=31)
    corrected = esr_tdma_high_snr(2, "corrected")
    printed = esr_tdma_high_snr(2, "printed")
    ok = (
        abs(est.esr - math.log(2.0)) <= 0.01
        and abs(corrected.value - math.log(2.0)) < 1e-12
        and printed.value == 0.0
        and printed.unclamped < 0.0
    )
    report(
        8,
        ok,
        f"MC {est.esr:.5f} vs log 2 = {math.log(2.0):.5f} (+/-0.01); "
        f"corrected variant {corrected.value:.5f} matches, printed variant "
        f"{printed.unclamped:+.5f} clamps to {printed.value}",
    )


def test_criterion_09_cli_determinism(tmp_path):
    """A CLI invocation repeated with identical flags and seed produces
    byte-identical CSV. The engine holds no worker-dependent state (fixed
    batch boundaries, index-keyed streams), so worker topology cannot enter."""
    args = [
        sys.executable, "-m", "dualsel.cli",
        "--mode", "sweep-n", "--k", "4", "--rho-db", "20",
        "--trials", "20000", "--seed", "7",
    ]
    r1 = subprocess.run(
        args + ["--manifest", str(tmp_path / "m1.txt")], capture_output=True, text=True
    )
    r2 = subprocess.run(
        args + ["--manifest", str(tmp_path / "m2.txt")], capture_output=True, text=True
    )
    ok = r1.returncode == 0 and r2.returncode == 0 and r1.stdout == r2.stdout
    report(
        9,
        ok,
        f"two identical sweep-n runs: {len(r1.stdout)} bytes of CSV, byte-identical={r1.stdout == r2.stdout}",
    )


def test_criterion_10_scheme_beats_tdma():
    """At 20 dB the dual-selection scheme at its optimal served index beats
    the exact full-power TDMA baseline for K = 4 and K = 8."""
    details = []
    ok = True
    for K in (4, 8):
        best = select_served(K, 100.0, method="analytic")
        scheme = best.esr_of(best.best_n)
        scheme_val = scheme.value
        tdma_val = esr_tdma_exact(K, 100.0).value
        ok = ok and best.best_n < K and scheme_val > tdma_val
        details.append(f"K={K}: scheme(n*={best.best_n})={scheme_val:.4f} > tdma={tdma_val:.4f}")
    report(10, ok, "; ".join(details))
