"""Acceptance suite: one test per release criterion.

Each test prints a single ``acceptance criterion N: PASS/FAIL`` line (run
with ``-s`` to see them all) and then asserts, so a red criterion is a red
test. Criterion 2 applies the 2/(eta L) reference to each entry of the LS
error covariance R_E, and criterion 9 evaluates the fig2 curves on the full
-10...40 dB range so that every fixed-E2 peak lies inside the grid (see the
README's "Reference values" section).
"""

from dataclasses import replace

import numpy as np

from polair.air import (
    _corollary1_values,
    air_corollary4,
    air_discrete_paired_mc,
    air_synthetic_mc,
    capacity_perfect,
    air_gaussian_paired_mc,
)
from polair.channel import ChannelParams, make_constellation, make_pilots
from polair.estimators import estimate_kabsch, estimate_ls
from polair.experiments import default_config, run_experiment
from polair.linalg import haar_unitary, sample_cgauss

from oracles import (
    air_theorem1,
    dagger,
    error_covariance,
    fro_norm,
    mi_discrete_given_H,
    mi_gaussian_given_H,
    synthetic_air_given_U,
)


def _report(num: int, ok: bool, detail: str = "") -> None:
    line = f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def test_criterion_01_perfect_csi_closed_form():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for eta in (0.5, 1.0, 10.0, 100.0):
        cap = capacity_perfect(2, eta).value
        worst = max(worst, abs(cap - 2 * np.log2(1 + eta)))
        for _ in range(25):
            U = haar_unitary(2, rng)
            mi = mi_gaussian_given_H(U, eta * np.eye(2)).value
            worst = max(worst, abs(cap - mi))
    _report(1, worst <= 1e-10, f"worst |capacity - MI| = {worst:.2e}")


def test_criterion_02_ls_covariance_reference_law():
    # Reference law under test: for n = 2, R_E = E[E^dagger E] = (2/(eta L)) I_2,
    # i.e. every diagonal entry is 2/(eta L) and the off-diagonals vanish, so
    # tr(R_E) = n^2/(eta L). It follows from E = Z D^dagger (D D^dagger)^-1
    # with D D^dagger = (P L/n) I and eta = P/(n sigma^2); the brute-force
    # check is tests/test_estimators.py::test_error_covariance_law. R_E is
    # averaged over the production LS estimates of the Monte Carlo draws.
    n = 2
    failures = []
    for eta in (1.0, 10.0, 100.0):
        for L in (8, 16):
            params = ChannelParams(n=n, power=n * eta, sigma2=1.0)
            R_E = error_covariance("ls", params, L, 10_000, np.random.default_rng(1002))
            expected = 2.0 / (eta * L)
            where = f"eta={eta:g},L={L}"
            for k in range(n):
                entry = R_E[k, k].real
                if abs(entry - expected) > 0.05 * expected:
                    failures.append(f"{where}: R_E[{k},{k}]={entry:.4g} vs {expected:.4g}")
            off = abs(R_E[0, 1])
            if off > 0.05 * expected:
                failures.append(f"{where}: |R_E[0,1]|={off:.4g} vs 0")
            trace, measured = n * n / (eta * L), np.trace(R_E).real
            if abs(measured - trace) > 0.05 * trace:
                failures.append(f"{where}: trace={measured:.4g} vs {trace:.4g}")
    _report(2, not failures, "; ".join(failures) or "R_E = (2/(eta L)) I within 5% at all grid points")


def test_criterion_03_kabsch_unitarity_and_recovery():
    rng = np.random.default_rng(1003)
    D = make_pilots(2, 8, 2.0)
    worst_gram = 0.0
    for sigma2 in (0.01, 1.0, 100.0):
        H = haar_unitary(2, rng, size=700)
        X = H @ D + sample_cgauss((700, 2, 8), sigma2, rng)
        H_hat = estimate_kabsch(X @ dagger(D))
        gram = H_hat @ dagger(H_hat) - np.eye(2)
        worst_gram = max(worst_gram, float(np.sqrt(np.sum(np.abs(gram) ** 2, axis=(1, 2))).max()))
    worst_rec = 0.0
    for _ in range(100):
        H = haar_unitary(2, rng)
        worst_rec = max(worst_rec, fro_norm(estimate_kabsch(H @ D @ dagger(D)) - H))
    ok = worst_gram <= 1e-12 and worst_rec <= 1e-10
    _report(3, ok, f"worst unitarity defect {worst_gram:.2e}, worst noiseless error {worst_rec:.2e}")


def test_criterion_04_half_dof_error_ratio():
    failures = []
    for eta_db in (10.0, 15.0, 20.0):
        params = ChannelParams.from_eta_db(2, eta_db)
        D = make_pilots(2, 8, params.power)
        rng = np.random.default_rng(1004)
        H = haar_unitary(2, rng, size=10_000)
        X = H @ D + sample_cgauss((10_000, 2, 8), params.sigma2, rng)
        A = X @ dagger(D)  # the pilot statistic; D D^dagger = (P L / n) I
        t_ls = np.sum(np.abs(H - estimate_ls(A, params.power * 8 / 2)) ** 2)
        t_k = np.sum(np.abs(H - estimate_kabsch(A)) ** 2)
        ratio = t_k / t_ls
        if not (0.4 <= ratio <= 0.6):
            failures.append(f"{eta_db:g} dB: ratio {ratio:.3f}")
    _report(4, not failures, "; ".join(failures) or "ratio 0.5 +- 0.1 at 10/15/20 dB")


def test_criterion_05_gaussian_input_estimator_gaps():
    results = []
    for eta_db, threshold in ((4.0, 0.15), (14.0, 0.30)):
        params = ChannelParams.from_eta_db(2, eta_db)
        out = air_gaussian_paired_mc(params, 8, 10_000, np.random.default_rng(1005))
        diff = -out["ls-kabsch"].value  # kabsch - ls on common random numbers
        results.append((eta_db, diff, threshold))
    ok = all(diff >= threshold for _, diff, threshold in results)
    detail = ", ".join(f"{db:g} dB: {diff:.3f} (need >= {t:g})" for db, diff, t in results)
    _report(5, ok, detail)


def test_criterion_06_discrete_input_ordering_and_saturation():
    failures = []
    for eta_db in (-2.0, 4.0, 10.0, 16.0, 20.0):
        params = ChannelParams.from_eta_db(2, eta_db)
        c = make_constellation("dp_16qam", 2, params.power)
        out = air_discrete_paired_mc(
            c, params, 8, 20_000, np.random.default_rng(1006), kinds=("ls", "kabsch")
        )
        d = out["ls-kabsch"]  # ls - kabsch, want <= 0 within noise
        if d.value > 3 * d.std_error:
            failures.append(f"{eta_db:g} dB: ls above kabsch by {d.value:.4f}")
        for kind in ("ls", "kabsch"):
            dp = out[f"{kind}-perfect"]
            if dp.value > 3 * dp.std_error:
                failures.append(f"{eta_db:g} dB: {kind} above perfect by {dp.value:.4f}")
    params = ChannelParams.from_eta_db(2, 30.0)
    c = make_constellation("dp_16qam", 2, params.power)
    H = haar_unitary(2, np.random.default_rng(1106))
    sat = mi_discrete_given_H(H, c, params.sigma2, 20_000, np.random.default_rng(1107)).value
    if abs(sat - 8.0) > 0.05:
        failures.append(f"30 dB MI {sat:.3f} not within 8.00 +- 0.05")
    _report(6, not failures, "; ".join(failures) or f"ordering holds, 30 dB MI {sat:.3f}")


def test_criterion_07_theorem_corollary_consistency():
    rng = np.random.default_rng(1007)
    worst_spec = 0.0
    worst_unit = 0.0
    for _ in range(1000):
        eta = float(rng.uniform(0.1, 50.0))
        U = haar_unitary(2, rng)
        H_hat = U + (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) * 0.2
        a = _corollary1_values(dagger(U) @ H_hat, eta)
        b = air_theorem1(U, H_hat, eta * np.eye(2), 1.0).value
        worst_spec = max(worst_spec, abs(a - b) / max(1.0, abs(b)))
        H_hat_u = haar_unitary(2, rng)
        E = U - H_hat_u
        c1 = _corollary1_values(dagger(U) @ H_hat_u, eta)
        c4 = air_corollary4(2, eta, fro_norm(E) ** 2).value
        worst_unit = max(worst_unit, abs(c1 - c4) / max(1.0, abs(c4)))
    ok = worst_spec <= 1e-10 and worst_unit <= 1e-10
    _report(7, ok, f"worst deviations {worst_spec:.2e} (general), {worst_unit:.2e} (unitary)")


def test_criterion_08_rotation_invariance():
    # The package's average on the identity channel against general-form averages on five Haar channels.
    eta, e2, trials = 10.0, 1e-2, 20_000
    channels = [haar_unitary(2, np.random.default_rng(1008 + i)) for i in range(5)]
    estimates = [air_synthetic_mc(2, e2, eta, trials, np.random.default_rng(2008))] + [
        synthetic_air_given_U(U, e2, eta, trials, np.random.default_rng(2009 + i)) for i, U in enumerate(channels)
    ]
    worst_z = 0.0
    for i in range(len(estimates)):
        for j in range(i + 1, len(estimates)):
            se = np.hypot(estimates[i].std_error, estimates[j].std_error)
            worst_z = max(worst_z, abs(estimates[i].value - estimates[j].value) / se)
    _report(8, worst_z <= 3.0, f"worst pairwise z-score {worst_z:.2f} over 6 channels")


def test_criterion_09_fixed_error_curve_shape():
    # Shape requirement under test: every fixed-E2 curve rises, peaks and
    # falls. The unitary-model curve is n log2(1+eta) - eta n^3 E2/ln 2,
    # which peaks at eta* = 1/(n^2 E2) - 1: 23.96 dB for E2 = 1e-3, 13.80 dB
    # for 1e-2 and 1.76 dB for 1e-1. The general-model peaks sit a few dB
    # lower (near -3 dB for 1e-1), so the default 0-20 dB fig2 grid cannot
    # hold them; the curves are evaluated on the full -10...40 dB range that
    # ExperimentConfig accepts. The unitary model must also dominate the
    # general one at every grid point.
    config = replace(
        default_config("fig2", master_seed=1009),
        trials=20_000,
        eta_db_grid=tuple(float(e) for e in range(-10, 41)),
    )
    result = run_experiment(config)
    grid = np.array(config.eta_db_grid)
    n = config.n
    failures = []
    curves = {}
    for row in result.rows:
        curves.setdefault((row.estimator, row.E2), {})[row.eta_db] = row
    for (model, e2), by_eta in curves.items():
        values = [by_eta[eta].air.value for eta in grid]
        am = int(np.argmax(values))
        if not (0 < am < len(grid) - 1):
            failures.append(f"{model} E2={e2:g}: max at grid edge {grid[am]:g} dB")
        if model == "unitary":
            peak_db = 10.0 * np.log10(1.0 / (n * n * e2) - 1.0)
            nearest = grid[int(np.argmin(np.abs(grid - peak_db)))]
            if grid[am] != nearest:
                failures.append(
                    f"unitary E2={e2:g}: max at {grid[am]:g} dB, closed form {peak_db:.2f} dB"
                )
    for e2 in config.E2_grid:
        for eta_db in grid:
            gen = curves[("general", e2)][eta_db]
            uni = curves[("unitary", e2)][eta_db]
            if uni.air.value < gen.air.value - 3 * gen.air.std_error:
                failures.append(f"dominance violated at E2={e2:g}, {eta_db:g} dB")
    _report(9, not failures, "; ".join(failures) or "interior maxima, unitary peak and dominance hold")


def test_criterion_10_gap_vs_pilot_length():
    config = replace(default_config("fig4", master_seed=1010), eta_db_grid=(14.0,), trials=10_000)
    result = run_experiment(config)
    gaps = {}
    errs = {}
    for row in result.rows:
        gaps.setdefault(row.estimator, {})[row.L] = row.gap
        errs.setdefault(row.estimator, {})[row.L] = row.air.std_error
    failures = []
    ratio = gaps["ls"][16] / gaps["ls"][8]
    if abs(ratio - 0.5) > 0.15 * 0.5:
        failures.append(f"ls gap ratio L16/L8 = {ratio:.3f} not 0.5 +- 15%")
    for L in config.L_grid:
        if gaps["kabsch"][L] >= gaps["ls"][L]:
            failures.append(f"kabsch gap not below ls at L={L}")
    for kind in ("ls", "kabsch"):
        Ls = sorted(gaps[kind])
        for a, b in zip(Ls, Ls[1:]):
            margin = 3 * np.hypot(errs[kind][a], errs[kind][b])
            if gaps[kind][b] > gaps[kind][a] + margin:
                failures.append(f"{kind} gap increases from L={a} to L={b}")
    _report(10, not failures, "; ".join(failures) or f"ls gap ratio {ratio:.3f}, ordering holds")
