"""Independent reference forms that the tests check the package against.

The package computes every rate on the identity channel, which rotation
invariance allows (``tests/test_air.py::TestIdentityChannelCoupling``).
The paper's general forms live here instead: the Gaussian-input mutual
information given an arbitrary channel H, the Theorem-1 AIR of an arbitrary
channel and estimate, Corollary 1 of a unitary channel from ``slogdet`` and
``inv``, the information density from the full (B, M, n) distances, the
scalar AWGN mutual information by quadrature, and Monte Carlo averages of
the last ones given a fixed channel, on an alphabet scaled to its SNR from
its points' mean power (:func:`at_snr`). Tests compare a production kernel fed
the rotated estimate U^dagger H_hat with a form here fed (U, H_hat).
The error covariance R_E, which no CSV column reports, is averaged here
over the production draws, so its entries can be checked one by one.

The matrix helpers the general forms and the tests share live here too:
validating a matrix argument (:func:`as_complex_matrix`,
:func:`check_hermitian_psd`), the conjugate transpose (:func:`dagger`) and
the Frobenius norm (:func:`fro_norm`). The package's kernels need none of
them.
"""

import numpy as np

from polair.air import AirEstimate
from polair.channel import Constellation
from polair.estimators import ESTIMATORS, statistic_sampler
from polair.linalg import mc_blocks, sample_cgauss

LN2 = float(np.log(2.0))


def as_complex_matrix(A, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``A`` to a 2-D complex ndarray.

    Rejects empty shapes and non-finite entries.
    """
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and column, got {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def check_hermitian_psd(Q, name: str) -> np.ndarray:
    """Validate ``Q`` as a Hermitian positive semidefinite matrix, to a 1e-10 relative tolerance."""
    Q = as_complex_matrix(Q, name)
    scale = max(1.0, fro_norm(Q))
    if fro_norm(Q - dagger(Q)) > 1e-10 * scale:
        raise ValueError(f"{name} is not Hermitian to tolerance")
    if np.min(np.linalg.eigvalsh(0.5 * (Q + dagger(Q)))) < -1e-10 * scale:
        raise ValueError(f"{name} is not positive semidefinite to tolerance")
    return Q


def dagger(A) -> np.ndarray:
    """Conjugate transpose. Supports stacked (..., m, n) inputs."""
    A = np.asarray(A, dtype=complex)
    return np.conj(np.swapaxes(A, -2, -1))


def fro_norm(A) -> float:
    """Frobenius norm sqrt(sum |a_ij|^2)."""
    A = np.asarray(A, dtype=complex)
    return float(np.sqrt(np.sum(np.abs(A) ** 2)))


def mi_gaussian_given_H(H, Q) -> AirEstimate:
    """Mutual information log2|I + H^dagger H Q| for Gaussian inputs.

    ``Q`` is the input covariance normalized by the noise variance.
    """
    H = as_complex_matrix(H, "H")
    Q = check_hermitian_psd(Q, "Q")
    n = H.shape[1]
    _, logdet = np.linalg.slogdet(np.eye(n) + dagger(H) @ H @ Q)
    return AirEstimate(value=float(logdet) / LN2)


def air_theorem1(H, H_hat, Q, sigma2: float) -> AirEstimate:
    """Mismatched-decoding AIR for a fixed channel H and fixed estimate H_hat.

    With E = H - H_hat, input covariance sigma2 * Q and output covariances
    Lx = H (sigma2 Q) H^dagger + sigma2 I and Lx_hat likewise for H_hat:

        I_q = log2|I + H_hat Q H_hat^dagger|
              - tr(Q E^dagger E) / ln 2
              - tr(I - Lx Lx_hat^-1) / ln 2
    """
    H = as_complex_matrix(H, "H")
    H_hat = as_complex_matrix(H_hat, "H_hat")
    if H.shape != H_hat.shape:
        raise ValueError(f"shape mismatch: H {H.shape}, H_hat {H_hat.shape}")
    Q = check_hermitian_psd(Q, "Q")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    n = H.shape[0]
    eye = np.eye(n)
    lam_s = sigma2 * Q
    lam_x = H @ lam_s @ dagger(H) + sigma2 * eye
    lam_x_hat = H_hat @ lam_s @ dagger(H_hat) + sigma2 * eye
    E = H - H_hat
    _, logdet = np.linalg.slogdet(eye + H_hat @ Q @ dagger(H_hat))
    term1 = float(logdet) / LN2
    term2 = float(np.trace(Q @ dagger(E) @ E).real) / LN2
    term3 = (n - float(np.trace(lam_x @ np.linalg.inv(lam_x_hat)).real)) / LN2
    return AirEstimate(value=term1 - term2 - term3)


def corollary1_reference(H_u, H_hat, eta):
    """Corollary 1 from a batched slogdet and inverse of A = I + eta H_hat H_hat^dagger."""
    n = H_hat.shape[-1]
    A = np.eye(n) + eta * (H_hat @ dagger(H_hat))
    logdet = np.linalg.slogdet(A)[1]
    tr_inv = np.trace(np.linalg.inv(A), axis1=-2, axis2=-1).real
    err = np.sum(np.abs(H_u - H_hat) ** 2, axis=(-2, -1))
    return (logdet - eta * err - n + (1.0 + eta) * tr_inv) / LN2


def reference_density(x, H_dec, idx, points, sigma2):
    """Independent form of the information density: the full (B, M, n) distances.

    ``H_dec`` is (n, n) shared or (B, n, n) per sample. The log-sum-exp is
    np.logaddexp.reduce, not the max-shifted sum of the kernel.
    """
    ref = np.einsum("...ij,mj->...mi", H_dec, points)  # (M, n) or (B, M, n)
    dist = np.sum(np.abs(x[:, None, :] - ref) ** 2, axis=-1)  # (B, M)
    metric = -dist / sigma2
    lse = np.logaddexp.reduce(metric, axis=1)
    num = metric[np.arange(metric.shape[0]), idx]
    return np.log2(points.shape[0]) + (num - lse) / LN2


def scalar_awgn_mi_quadrature(points, sigma2):
    """Independent 1-D oracle for the discrete-input complex AWGN MI.

    For a real constellation the imaginary noise dimension cancels in the
    information density, leaving a real integral with per-dimension noise
    variance sigma2/2, evaluated here by trapezoid quadrature.
    """
    points = np.asarray(points, dtype=float)
    var = sigma2 / 2.0
    span = np.abs(points).max() + 8 * np.sqrt(var)
    u = np.linspace(-span, span, 20_001)
    pdf = lambda c: np.exp(-((u - c) ** 2) / (2 * var)) / np.sqrt(2 * np.pi * var)
    cond = np.array([pdf(c) for c in points])
    mix = cond.mean(axis=0)
    M = len(points)
    integrand = cond / M * np.log2(np.where(cond > 0, cond, 1.0) / mix)
    f = integrand.sum(axis=0)
    return float(0.5 * np.sum((f[1:] + f[:-1]) * np.diff(u)))  # trapezoid rule


def _sample_mean(values) -> AirEstimate:
    std_error = float(values.std(ddof=1) / np.sqrt(values.size))
    return AirEstimate(value=float(values.mean()), std_error=std_error, trials=values.size)


def at_snr(constellation, eta) -> Constellation:
    """The alphabet of ``constellation`` scaled so that its points' complex components have mean power ``eta``.

    The power is averaged over the points themselves, where
    :func:`~polair.air.air_discrete_paired_mc` takes it from the levels; on
    the raw DP-QPSK and DP-16-QAM levels both are exact, so both give the
    same scaled points bit for bit.
    """
    points = constellation.points
    power = np.mean(points.real**2 + points.imag**2)
    return Constellation(constellation.n, constellation.pam_levels * np.sqrt(eta / power))


def mi_discrete_given_H(H, constellation, sigma2, trials, rng) -> AirEstimate:
    """Monte Carlo mutual information of a uniform discrete input on the fixed channel H.

    Each trial sends a uniform point through H with CN(0, sigma2) noise and
    takes its :func:`reference_density` with H as the decoder. Blocks of
    1000 trials bound the (B, M, n) distances to 8 MB for DP-16-QAM.
    """
    points = constellation.points
    values = []
    for start in range(0, trials, 1000):
        b = min(1000, trials - start)
        idx = rng.integers(0, points.shape[0], size=b)
        x = points[idx] @ H.T + sample_cgauss((b, H.shape[0]), sigma2, rng)
        values.append(reference_density(x, H, idx, points, sigma2))
    return _sample_mean(np.concatenate(values))


def synthetic_air_given_U(U, error_per_dof, eta, trials, rng) -> AirEstimate:
    """Average Corollary-1 AIR of the unitary channel U under the synthetic general-model error.

    Each trial estimates U by U - E, E i.i.d. CN(0, 2 n error_per_dof) per
    entry, so tr E[E^dagger E] = n (2 n^2) error_per_dof.
    """
    n = U.shape[-1]
    shape = (trials, n, n)
    E = np.sqrt(n * error_per_dof) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return _sample_mean(corollary1_reference(U, U - E, eta))


def error_covariance(kind, n, eta, L, trials, rng) -> np.ndarray:
    """R_E = E[E^dagger E], E = I - H_hat, of registry kind ``kind`` over the Monte Carlo draws of the rates.

    The blocks and pilot statistics are those of
    ``polair.air.air_corollary4_paired_mc(n, eta, L, trials, rng)``.
    """
    draw, c = statistic_sampler(n, eta, L)

    def step(b, rng):
        E = np.eye(n) - ESTIMATORS[kind](draw(b, rng), c)
        return np.einsum("bij,bik->jk", E.conj(), E)

    return sum(mc_blocks(step, trials, rng)) / trials
