"""Information rates of the unitary MIMO-AWGN channel.

Closed forms for the perfect-CSI capacity and mutual information, the
mismatched-decoding achievable information rate (AIR) for a fixed channel
estimate, its specializations to unitary channels and unitary estimates,
and Monte Carlo estimators for discrete inputs and random channel
estimates.

All rates are in bits per (vector) symbol; logarithms are base 2 at the
interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, Constellation
from .estimators import ESTIMATOR_KINDS, UNITARY_KINDS, get_estimator, statistic_sampler
from .linalg import as_complex_matrix, check_hermitian_psd, dagger, fro_norm, mc_blocks, sample_cgauss

__all__ = [
    "AirEstimate",
    "capacity_perfect",
    "mi_gaussian_given_H",
    "air_theorem1",
    "air_corollary1",
    "air_corollary4",
    "synthetic_estimates",
    "air_synthetic_mc",
    "mi_discrete_mc",
    "air_gaussian_paired_mc",
    "air_discrete_paired_mc",
]

LN2 = float(np.log(2.0))


@dataclass(frozen=True)
class AirEstimate:
    """A rate value in bits/symbol with its Monte Carlo uncertainty.

    ``trials`` is the Monte Carlo sample size; a closed form has one trial
    and no standard error.
    """

    value: float
    std_error: float = 0.0
    trials: int = 1

    def __post_init__(self):
        if not np.isfinite(self.value):
            raise ValueError("value must be finite")
        if self.std_error < 0:
            raise ValueError("std_error must be >= 0")


def _mc_estimate(values: np.ndarray) -> AirEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    if np.all(values == values[0]):
        # A constant sample (a zero synthetic error) is exact: its summed mean
        # could be off by round-off, its spread is zero.
        return AirEstimate(value=float(values[0]), trials=n)
    std_error = float(values.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return AirEstimate(value=float(values.mean()), std_error=std_error, trials=n)


def _paired_mc(step, kinds: tuple[str, ...], trials: int, rng: np.random.Generator) -> dict[str, AirEstimate]:
    """Per-kind rates on shared draws, over the blocks of :func:`~polair.linalg.mc_blocks`.

    ``step(b, block_rng)`` returns ``{kind: (b,) per-trial values}`` for every
    kind in ``kinds``. Returns each kind's estimate and, under keys ``"a-b"``,
    the paired differences, whose standard errors reflect the shared draws.
    """
    blocks = mc_blocks(step, trials, rng)
    values = {k: np.concatenate([block[k] for block in blocks]) for k in kinds}
    out = {k: _mc_estimate(v) for k, v in values.items()}
    for i, a in enumerate(kinds):
        for bname in kinds[i + 1 :]:
            out[f"{a}-{bname}"] = _mc_estimate(values[a] - values[bname])
    return out


def _check_unitary(H: np.ndarray, name: str, tol: float = 1e-8) -> np.ndarray:
    H = as_complex_matrix(H, name)
    n = H.shape[0]
    if H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square, got {H.shape}")
    if fro_norm(H @ dagger(H) - np.eye(n)) > tol:
        raise ValueError(f"{name} is not unitary within {tol}")
    return H


def capacity_perfect(n: int, eta: float) -> AirEstimate:
    """Perfect-CSI capacity n * log2(1 + eta) of the unitary channel."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    return AirEstimate(value=n * np.log2(1.0 + eta))


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


def _corollary1_values(H_u: np.ndarray, H_hat: np.ndarray, eta: float) -> np.ndarray:
    """Vectorized three-term unitary-channel AIR over stacked estimates.

    ``H_u`` and ``H_hat`` broadcast against each other over leading axes.
    The terms need log det A and tr A^-1 of A = I + eta H_hat H_hat^dagger.
    For n = 2, A = [[a, b], [b*, d]] is formed from the rows r_0, r_1 of
    H_hat: a = 1 + eta ||r_0||^2, d = 1 + eta ||r_1||^2, b = eta <r_0, r_1>,
    so det A = a d - |b|^2 and tr A^-1 = (a + d) / det A. For n > 2 they come
    from a batched ``slogdet`` and ``inv``.
    """
    n = H_hat.shape[-1]
    if n == 2:
        r0, r1 = H_hat[..., 0, :], H_hat[..., 1, :]
        a = 1.0 + eta * np.sum(r0.real**2 + r0.imag**2, axis=-1)
        d = 1.0 + eta * np.sum(r1.real**2 + r1.imag**2, axis=-1)
        b = eta * np.sum(r0 * np.conj(r1), axis=-1)
        det = a * d - (b.real**2 + b.imag**2)
        logdet = np.log(det)
        tr_inv = (a + d) / det
    else:
        A = np.eye(n) + eta * (H_hat @ dagger(H_hat))
        logdet = np.linalg.slogdet(A)[1]
        tr_inv = np.trace(np.linalg.inv(A), axis1=-2, axis2=-1).real
    term1 = logdet / LN2
    E = H_u - H_hat
    term2 = eta * np.sum(np.abs(E) ** 2, axis=(-2, -1)) / LN2
    term3 = (n - (1.0 + eta) * tr_inv) / LN2
    return term1 - term2 - term3


def _corollary4_values(H_hat: np.ndarray, eta: float) -> np.ndarray:
    """Corollary 1 on the identity channel for unitary H_hat: n log2(1+eta) - eta ||I - H_hat||_F^2 / ln 2.

    This is Corollary 4 per estimate; H_hat = I gives exactly the capacity.
    """
    n = H_hat.shape[-1]
    E = np.eye(n) - H_hat
    return n * np.log2(1.0 + eta) - eta * np.sum(E.real**2 + E.imag**2, axis=(-2, -1)) / LN2


def air_corollary1(H_u, H_hat, eta: float) -> AirEstimate:
    """AIR of a unitary channel with uniform power loading, fixed estimate."""
    H_u = _check_unitary(H_u, "H_u")
    H_hat = as_complex_matrix(H_hat, "H_hat")
    if H_u.shape != H_hat.shape:
        raise ValueError(f"shape mismatch: H_u {H_u.shape}, H_hat {H_hat.shape}")
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    return AirEstimate(value=float(_corollary1_values(H_u, H_hat, eta)))


def air_corollary4(n: int, eta: float, R_E) -> AirEstimate:
    """Average AIR with a unitary estimate: n log2(1+eta) - eta tr(R_E)/ln 2."""
    if eta <= 0:
        raise ValueError(f"eta must be > 0, got {eta}")
    R_E = check_hermitian_psd(R_E, "R_E")
    if R_E.shape != (n, n):
        raise ValueError(f"R_E must be {n}x{n}, got {R_E.shape}")
    value = n * np.log2(1.0 + eta) - eta * float(np.trace(R_E).real) / LN2
    return AirEstimate(value=value)


def synthetic_estimates(
    H_u: np.ndarray,
    error_per_dof: float,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw channel estimates H_hat = H_u - E under a synthetic error.

    E is i.i.d. circular Gaussian, scaled so that
    tr E[E^dagger E] = n * (2 n^2) * error_per_dof: the general (nonunitary)
    error model of fig2. fig2's unitary curve needs no draws; it is the
    closed form :func:`air_corollary4`.
    """
    if error_per_dof < 0:
        raise ValueError("error_per_dof must be >= 0")
    n = H_u.shape[-1]
    if error_per_dof == 0.0:
        return np.broadcast_to(H_u, (size, n, n)).copy()
    return H_u - sample_cgauss((size, n, n), 2.0 * n * error_per_dof, rng)


def air_synthetic_mc(
    H_u,
    error_per_dof: float,
    eta: float,
    trials: int,
    rng: np.random.Generator,
) -> AirEstimate:
    """Average AIR under the synthetic general-model estimation error."""
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    H_u = _check_unitary(H_u, "H_u")

    def step(b, rng):
        H_hat = synthetic_estimates(H_u, error_per_dof, b, rng)
        return {"general": _corollary1_values(H_u, H_hat, eta)}

    return _paired_mc(step, ("general",), trials, rng)["general"]


def _metric_weights(points: np.ndarray, sigma2: float) -> np.ndarray:
    """Weights of the decoding metric, computed once per constellation.

    The metric of point s is (2 Re<y, s> - s^dagger G s)/sigma2 with
    y = H_dec^dagger x and G = H_dec^dagger H_dec. Its product with per-sample
    features [Re y, Im y, Re G, Im G] takes the weights
    [2 Re s; 2 Im s; -Re P; Im P]/sigma2, P = conj(s) s^T flattened, shape
    (2n + 2n^2, M); the first 2n rows give the cross term alone.
    """
    M, n = points.shape
    outer = (points.conj()[:, :, None] * points[:, None, :]).reshape(M, n * n)
    rows = [2.0 * points.real, 2.0 * points.imag, -outer.real, outer.imag]
    return np.concatenate(rows, axis=1).T / sigma2


def _decoding_metric(H_dec: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Decoding metric -(||x - H_dec s||^2 - ||x||^2)/sigma2 of every point s, shape (B, M).

    ``H_dec`` is a (B, n, n) stack, one decoder per sample; ``weights`` come
    from :func:`_metric_weights`. The per-sample Gram term joins the cross
    term in one matrix product.
    """
    n = x.shape[-1]
    y = np.einsum("...ji,...j->...i", H_dec.conj(), x)
    G = np.einsum("bki,bkj->bij", H_dec.conj(), H_dec).reshape(x.shape[0], n * n)
    return np.concatenate([y.real, y.imag, G.real, G.imag], axis=1) @ weights


def _discrete_values(metric: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-sample mismatched information density for a discrete input.

    ``metric`` is the (B, M) decoding metric from :func:`_decoding_metric`
    and is overwritten; ``idx`` indexes the transmitted point of each
    sample. The ||x||^2 the metric leaves out cancels between the numerator
    and the log-sum-exp.
    """
    peak = metric.max(axis=1)
    num = metric[np.arange(metric.shape[0]), idx] - peak
    metric -= peak[:, None]
    np.exp(metric, out=metric)
    return np.log2(metric.shape[1]) + (num - np.log(metric.sum(axis=1))) / LN2


def _separable_values(y: np.ndarray, s: np.ndarray, levels: np.ndarray, sigma2: float) -> np.ndarray:
    """Per-sample information density of a unitary decoder on a product-PAM input.

    ``y`` is the decoded vector H_dec^dagger x of a unitary H_dec and ``s``
    the transmitted point, each a contiguous complex (B, n) array; ``levels``
    is the constellation's :attr:`~polair.channel.Constellation.pam_levels`,
    and every constellation is their full product over the 2n real
    dimensions. The metric -||x - H_dec s||^2/sigma2 is -||y - s||^2/sigma2,
    a sum over the real dimensions d of -(y_d - s_d)^2/sigma2. So the
    log-sum-exp over the M = side^(2n) points is the sum of 2n log-sum-exps
    over the side levels, and the density is
    2n log2(side) + sum_d (num_d - lse_d)/ln 2.
    """
    y = y.view(float)  # (B, 2n)
    dims = y.shape[1]
    # Levels first, (side, B, 2n): numpy reduces a short leading axis far faster than a short last one.
    metric = y - levels[:, None, None]
    np.square(metric, out=metric)
    metric *= -1.0 / sigma2
    peak = metric.max(axis=0)
    num = y - s.view(float)
    np.square(num, out=num)
    num *= -1.0 / sigma2
    num -= peak
    metric -= peak
    np.exp(metric, out=metric)
    num -= np.log(metric.sum(axis=0))
    # The sum over the 2n dimensions as a product with ones: numpy's sum over a short last axis is slower.
    return dims * np.log2(levels.size) + num @ np.full(dims, 1.0 / LN2)


def mi_discrete_mc(
    H,
    constellation: Constellation,
    sigma2: float,
    trials: int,
    rng: np.random.Generator,
) -> AirEstimate:
    """Monte Carlo mutual information for a uniform discrete input, given H."""
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    if sigma2 <= 0:
        raise ValueError(f"sigma2 must be > 0, got {sigma2}")
    H = as_complex_matrix(H, "H")
    points = constellation.points
    sent = points @ H.T  # (M, n) noiseless receptions
    weights = _metric_weights(points, sigma2)

    def step(b, rng):
        idx = rng.integers(0, points.shape[0], size=b)
        x = sent[idx] + sample_cgauss((b, H.shape[0]), sigma2, rng)
        return {"mi": _discrete_values(_decoding_metric(np.broadcast_to(H, (b, *H.shape)), x, weights), idx)}

    return _paired_mc(step, ("mi",), trials, rng)["mi"]


def air_discrete_paired_mc(
    constellation: Constellation,
    params: ChannelParams,
    L: int,
    trials: int,
    rng: np.random.Generator,
    kinds: tuple[str, ...] = ESTIMATOR_KINDS,
) -> dict[str, AirEstimate]:
    """Average discrete-input AIR for several estimators on shared draws, with the perfect-CSI reference.

    Each trial draws one pilot statistic from ``L`` pilots
    (:func:`~polair.estimators.statistic_sampler`; ``L`` must be a multiple
    of n and at least n), one data symbol and its noise on the identity
    channel, which by rotation invariance gives the rates of every unitary
    channel. Every requested estimator (``"ls"``, ``"kabsch"``) decodes the
    same realization, and so does the perfect-CSI reference, returned under
    ``"perfect"`` for any ``kinds``: the mutual information, whose decoder is
    the channel itself, the identity. Every constellation is a product of
    PAM levels, so a unitary decoder's density is separable over the real
    dimensions (:func:`_separable_values`); ``ls`` takes the full (B, M)
    metric. Paired differences are reported under keys ``"a-b"``, among
    them ``"<kind>-perfect"``. ``"perfect"`` in ``kinds`` names the
    reference, which is returned anyway.
    """
    if trials < 1000:
        raise ValueError(f"trials must be >= 1000, got {trials}")
    kinds = tuple(kind for kind in kinds if kind != "perfect")
    estimators = {kind: get_estimator(kind) for kind in kinds}
    draw, c = statistic_sampler(params, L)
    points, levels = constellation.points, constellation.pam_levels
    weights = _metric_weights(points, params.sigma2)

    def step(b, rng):
        A = draw(b, rng)
        idx = rng.integers(0, points.shape[0], size=b)
        s = points[idx]
        x = s + sample_cgauss((b, params.n), params.sigma2, rng)
        out = {}
        for kind, estimate in estimators.items():
            H_hat = estimate(A, c)
            if kind in UNITARY_KINDS:
                y = np.einsum("...ji,...j->...i", H_hat.conj(), x)
                out[kind] = _separable_values(y, s, levels, params.sigma2)
            else:  # the Gram term of a nonunitary H_hat couples the components
                out[kind] = _discrete_values(_decoding_metric(H_hat, x, weights), idx)
        out["perfect"] = _separable_values(x, s, levels, params.sigma2)
        return out

    return _paired_mc(step, (*kinds, "perfect"), trials, rng)


def air_gaussian_paired_mc(
    params: ChannelParams,
    L: int,
    trials: int,
    rng: np.random.Generator,
    kinds: tuple[str, ...] = ESTIMATOR_KINDS,
) -> dict[str, AirEstimate]:
    """Average Gaussian-input AIR for several estimators on shared draws.

    Per trial, one pilot statistic from ``L`` pilots on the identity channel
    (as in :func:`air_discrete_paired_mc`) feeds all requested estimators.
    The AIR of a unitary estimate is Corollary 4 of its own error; that of
    any other is the closed three-term unitary-channel expression. The
    perfect-CSI reference is the closed form :func:`capacity_perfect`.
    Paired differences are under keys ``"a-b"``.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    estimators = {kind: get_estimator(kind) for kind in kinds}
    draw, c = statistic_sampler(params, L)
    eta, eye = params.eta, np.eye(params.n)

    def step(b, rng):
        A = draw(b, rng)
        out = {}
        for kind, estimate in estimators.items():
            H_hat = estimate(A, c)
            out[kind] = _corollary4_values(H_hat, eta) if kind in UNITARY_KINDS else _corollary1_values(eye, H_hat, eta)
        return out

    return _paired_mc(step, kinds, trials, rng)
