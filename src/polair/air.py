"""Information rates of the unitary MIMO-AWGN channel.

Closed forms for the perfect-CSI capacity and for the mismatched-decoding
achievable information rate (AIR) of a channel estimate on a unitary
channel (Corollary 1) and of a unitary estimate (Corollary 4), and Monte
Carlo estimators for discrete inputs and random channel estimates.

Every rate is invariant under a common rotation of the channel, so every
kernel here runs on the identity channel: an estimate H_hat of a unitary
channel U enters as U^dagger H_hat. The paper's general forms (Theorem 1
for an arbitrary fixed channel, the mutual information given H) are kept
as test oracles, in ``tests/oracles.py``.

The noise has unit variance per complex dimension, so every rate depends
on the dimension n and the per-channel SNR eta alone. All rates are in bits
per (vector) symbol; logarithms are base 2 at the interface.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import Constellation, check_dimension
from .estimators import ESTIMATOR_KINDS, UNITARY_KINDS, get_estimator, statistic_sampler
from .linalg import check_positive, check_trials, dagger_last, matmul_last, mc_blocks, sample_cgauss, sq_fro_last

__all__ = [
    "AirEstimate",
    "capacity_perfect",
    "air_corollary4",
    "synthetic_estimates",
    "air_synthetic_mc",
    "air_gaussian_paired_mc",
    "air_corollary4_paired_mc",
    "air_discrete_paired_mc",
]

LN2 = float(np.log(2.0))
# The fewest trials a Monte Carlo rate takes; a discrete input's density needs more to sample its tails.
MIN_TRIALS = 100
MIN_DISCRETE_TRIALS = 1000


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
        if not (np.isfinite(self.std_error) and self.std_error >= 0):
            raise ValueError("std_error must be finite and >= 0")
        check_trials(self.trials, 1)


def _mc_estimate(values: np.ndarray) -> AirEstimate:
    values = np.asarray(values, dtype=float)
    n = values.size
    if np.all(values == values[0]):
        # A constant sample (a zero synthetic error) is exact: its summed mean
        # could be off by round-off, its spread is zero.
        return AirEstimate(value=float(values[0]), trials=n)
    std_error = float(values.std(ddof=1) / np.sqrt(n))
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


def capacity_perfect(n: int, eta: float) -> AirEstimate:
    """Perfect-CSI capacity n * log2(1 + eta) of the unitary channel."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_positive("eta", eta)
    return AirEstimate(value=n * np.log2(1.0 + eta))


def _sq_error(H_hat: np.ndarray) -> np.ndarray:
    """Squared error ||I - H_hat||_F^2 of each matrix of a (..., n, n) stack.

    The 2 n^2 squared real parts of each E = I - H_hat are summed as a
    product with ones: numpy's sum over short trailing axes is slower.
    """
    n = H_hat.shape[-1]
    E = np.subtract(np.eye(n), H_hat, order="C", dtype=complex).reshape(-1, n * n).view(float)
    np.square(E, out=E)
    return (E @ np.ones(2 * n * n)).reshape(H_hat.shape[:-2])


def _corollary1_values(H_hat: np.ndarray, eta: float) -> np.ndarray:
    """Vectorized three-term unitary-channel AIR over stacked estimates of the identity channel.

    The estimation error is E = I - H_hat. The terms need log det A and
    tr A^-1 of A = I + eta H_hat H_hat^dagger. For n = 2,
    A = [[a, b], [b*, d]] is formed entry by entry from the rows r_0, r_1 of
    H_hat: a = 1 + eta ||r_0||^2, d = 1 + eta ||r_1||^2, b = eta <r_0, r_1>,
    so det A = a d - |b|^2 and tr A^-1 = (a + d) / det A. For n > 2 they come
    from a batch-last Cholesky factor, A = L L^dagger (A >= I, so it exists):
    log det A = 2 sum_i log L_ii and tr A^-1 = ||L^-1||_F^2, with L^-1 by
    forward substitution.
    """
    n = H_hat.shape[-1]
    if n == 2:  # entry by entry: numpy's sum over a 2-long last axis costs more than the sums themselves
        h00, h01, h10, h11 = H_hat[..., 0, 0], H_hat[..., 0, 1], H_hat[..., 1, 0], H_hat[..., 1, 1]
        a = 1.0 + eta * ((h00.real**2 + h00.imag**2) + (h01.real**2 + h01.imag**2))
        d = 1.0 + eta * ((h10.real**2 + h10.imag**2) + (h11.real**2 + h11.imag**2))
        b = eta * (h00 * np.conj(h10) + h01 * np.conj(h11))
        det = a * d - (b.real**2 + b.imag**2)
        logdet = np.log(det)
        tr_inv = (a + d) / det
    else:
        H = np.ascontiguousarray(np.moveaxis(H_hat, (-2, -1), (0, 1)))
        G = eta * matmul_last(H, dagger_last(H))  # A = I + G
        L = np.zeros_like(G)  # below the diagonal; the diagonal is the real d
        d = np.empty(G.shape[1:])
        for j in range(n):  # column j of A = L L^dagger
            col = G[j:, j] - np.sum(L[j:, :j] * np.conj(L[j, :j]), axis=1)
            d[j] = np.sqrt(1.0 + col[0].real)
            L[j + 1 :, j] = col[1:] / d[j]
        L_inv = np.zeros_like(L)
        for i in range(n):  # row i of L^-1, by forward substitution
            L_inv[i, i] = 1.0 / d[i]
            L_inv[i, :i] = np.sum(L[i, :i, None] * L_inv[:i, :i], axis=0) / -d[i]
        logdet = 2.0 * np.sum(np.log(d), axis=0)
        tr_inv = sq_fro_last(L_inv)
    term1 = logdet / LN2
    term2 = eta * _sq_error(H_hat) / LN2
    term3 = (n - (1.0 + eta) * tr_inv) / LN2
    return term1 - term2 - term3


def _corollary4_values(H_hat: np.ndarray, eta: float) -> np.ndarray:
    """Corollary 1 on the identity channel for unitary H_hat: n log2(1+eta) - eta ||I - H_hat||_F^2 / ln 2.

    This is Corollary 4 per estimate; H_hat = I gives exactly the capacity.
    """
    return H_hat.shape[-1] * np.log2(1.0 + eta) - eta * _sq_error(H_hat) / LN2


def air_corollary4(n: int, eta: float, tr_R_E: float) -> AirEstimate:
    """Average AIR with a unitary estimate: n log2(1+eta) - eta tr_R_E/ln 2.

    The bound depends on R_E = E[E^dagger E] only through its trace
    ``tr_R_E``, finite and >= 0; its first term is :func:`capacity_perfect`.
    """
    capacity = capacity_perfect(n, eta).value
    if not (np.isfinite(tr_R_E) and tr_R_E >= 0):
        raise ValueError(f"tr_R_E must be finite and >= 0, got {tr_R_E}")
    return AirEstimate(capacity - eta * tr_R_E / LN2)


def synthetic_estimates(n: int, error_per_dof: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw estimates H_hat = I - E of the n x n identity channel under a synthetic error.

    E is i.i.d. circular Gaussian, scaled so that
    tr E[E^dagger E] = n * (2 n^2) * error_per_dof: the general (nonunitary)
    error model of fig2. fig2's unitary curve needs no draws; it is the
    closed form :func:`air_corollary4` of tr(R_E) = n^3 * error_per_dof.
    """
    if not (0 <= error_per_dof < np.inf):  # NaN fails both comparisons
        raise ValueError(f"error_per_dof must be finite and >= 0, got {error_per_dof}")
    if error_per_dof == 0.0:
        return np.tile(np.eye(n, dtype=complex), (size, 1, 1))
    return np.eye(n) - sample_cgauss((size, n, n), 2.0 * n * error_per_dof, rng)


def air_synthetic_mc(n: int, error_per_dof: float, eta: float, trials: int, rng: np.random.Generator) -> AirEstimate:
    """Average AIR of the n x n unitary channel under the synthetic general-model estimation error.

    The error is spherically symmetric, so the identity channel gives the
    average of every unitary channel.
    """
    check_dimension(n)
    check_trials(trials, MIN_TRIALS)
    check_positive("eta", eta)

    def step(b, rng):
        return {"general": _corollary1_values(synthetic_estimates(n, error_per_dof, b, rng), eta)}

    return _paired_mc(step, ("general",), trials, rng)["general"]


def _metric_weights(points: np.ndarray) -> np.ndarray:
    """Weights of the decoding metric, computed once per constellation.

    The metric of point s is 2 Re<y, s> - s^dagger G s with
    y = H_dec^dagger x and G = H_dec^dagger H_dec. Its product with per-sample
    features [Re y, Im y, Re G, Im G] takes the weights
    [2 Re s; 2 Im s; -Re P; Im P], P = conj(s) s^T flattened, shape
    (2n + 2n^2, M); the first 2n rows give the cross term alone.
    """
    M, n = points.shape
    outer = (points.conj()[:, :, None] * points[:, None, :]).reshape(M, n * n)
    rows = [2.0 * points.real, 2.0 * points.imag, -outer.real, outer.imag]
    return np.concatenate(rows, axis=1).T


def _decoded(H_dec: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Decoded vectors y = H_dec^dagger x of a (B, n, n) decoder stack and (B, n) received vectors."""
    return np.einsum("...ji,...j->...i", H_dec.conj(), x)


def _decoding_metric(H_dec: np.ndarray, x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Decoding metric ||x||^2 - ||x - H_dec s||^2 of every point s, shape (B, M).

    ``H_dec`` is a (B, n, n) stack, one decoder per sample; ``weights`` come
    from :func:`_metric_weights`. The Gram matrices G = H_dec^dagger H_dec
    come from one batch-last copy of the stack
    (:func:`~polair.linalg.matmul_last`), and the per-sample Gram term joins
    the cross term in one matrix product.
    """
    n = x.shape[-1]
    y = _decoded(H_dec, x)
    H = np.ascontiguousarray(np.moveaxis(H_dec, 0, -1))
    G = matmul_last(dagger_last(H), H).reshape(n * n, -1).T
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


def _separable_values(y: np.ndarray, s: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """Per-sample information density of a unitary decoder on a product-PAM input.

    ``y`` is the decoded vector H_dec^dagger x of a unitary H_dec and ``s``
    the transmitted point, each a contiguous complex (B, n) array; ``levels``
    is the constellation's :attr:`~polair.channel.Constellation.pam_levels`,
    and every constellation is their full product over the 2n real
    dimensions. The metric -||x - H_dec s||^2 is -||y - s||^2, a sum over
    the real dimensions d of -(y_d - s_d)^2. So the log-sum-exp over the
    M = side^(2n) points is the sum of 2n log-sum-exps over the side
    levels, and the density is 2n log2(side) + sum_d (num_d - lse_d)/ln 2.
    """
    y = y.view(float)  # (B, 2n)
    dims = y.shape[1]
    # Levels first, (side, B, 2n): numpy reduces a short leading axis far faster than a short last one.
    metric = y - levels[:, None, None]
    np.square(metric, out=metric)
    metric *= -1.0
    peak = metric.max(axis=0)
    num = y - s.view(float)
    np.square(num, out=num)
    num *= -1.0
    num -= peak
    metric -= peak
    np.exp(metric, out=metric)
    num -= np.log(metric.sum(axis=0))
    # The sum over the 2n dimensions as a product with ones: numpy's sum over a short last axis is slower.
    return dims * np.log2(levels.size) + num @ np.full(dims, 1.0 / LN2)


def air_discrete_paired_mc(
    constellation: Constellation,
    eta: float,
    L: int,
    trials: int,
    rng: np.random.Generator,
    kinds: tuple[str, ...] = ESTIMATOR_KINDS,
) -> dict[str, AirEstimate]:
    """Average discrete-input AIR for several estimators on shared draws, with the perfect-CSI reference.

    ``constellation`` gives the dimension n and must have been built at the
    per-channel SNR ``eta``. Each trial draws one pilot statistic from
    ``L`` pilots (:func:`~polair.estimators.statistic_sampler`; ``L`` must
    be a multiple of n and at least n), one data symbol and its noise on the identity
    channel, which by rotation invariance gives the rates of every unitary
    channel. Every requested estimator (``"ls"``, ``"kabsch"``) decodes the
    same realization, and so does the perfect-CSI reference, returned under
    ``"perfect"`` for any ``kinds``: the mutual information, whose decoder is
    the channel itself, the identity. Every constellation is a product of
    PAM levels, so a unitary decoder's density is separable over the real
    dimensions (:func:`_separable_values`); ``ls`` takes the full (B, M)
    metric. Paired differences are reported under keys ``"a-b"``, among
    them ``"<kind>-perfect"``.
    """
    check_trials(trials, MIN_DISCRETE_TRIALS)
    estimators = {kind: get_estimator(kind) for kind in kinds}
    n, points, levels = constellation.n, constellation.points, constellation.pam_levels
    draw, c = statistic_sampler(n, eta, L)
    weights = _metric_weights(points)

    def step(b, rng):
        A = draw(b, rng)
        idx = rng.integers(0, points.shape[0], size=b)
        s = points[idx]
        x = s + sample_cgauss((b, n), 1.0, rng)
        out = {}
        for kind, estimate in estimators.items():
            H_hat = estimate(A, c)
            if kind in UNITARY_KINDS:
                out[kind] = _separable_values(_decoded(H_hat, x), s, levels)
            else:  # the Gram term of a nonunitary H_hat couples the components
                out[kind] = _discrete_values(_decoding_metric(H_hat, x, weights), idx)
        out["perfect"] = _separable_values(x, s, levels)
        return out

    return _paired_mc(step, (*kinds, "perfect"), trials, rng)


def _statistic_paired_mc(n: int, eta: float, L: int, trials: int, rng, kinds, rate) -> dict[str, AirEstimate]:
    """:func:`_paired_mc` of ``rate(kind, H_hat)``, every kind estimating from one pilot statistic per trial.

    The statistic comes from ``L`` pilots on the identity channel
    (:func:`~polair.estimators.statistic_sampler`; ``L`` must be a multiple
    of n and at least n).
    """
    check_trials(trials, MIN_TRIALS)
    estimators = {kind: get_estimator(kind) for kind in kinds}
    draw, c = statistic_sampler(n, eta, L)

    def step(b, rng):
        A = draw(b, rng)
        return {kind: rate(kind, estimate(A, c)) for kind, estimate in estimators.items()}

    return _paired_mc(step, kinds, trials, rng)


def air_gaussian_paired_mc(
    n: int,
    eta: float,
    L: int,
    trials: int,
    rng: np.random.Generator,
    kinds: tuple[str, ...] = ESTIMATOR_KINDS,
) -> dict[str, AirEstimate]:
    """Average Gaussian-input AIR for several estimators on shared draws.

    One pilot statistic per trial (:func:`_statistic_paired_mc`) feeds every
    requested estimator. The AIR of a unitary estimate is Corollary 4 of its
    own error; that of any other is the closed three-term unitary-channel
    expression. The perfect-CSI reference is the closed form
    :func:`capacity_perfect`. Paired differences are under keys ``"a-b"``.
    """
    def rate(kind, H_hat):
        return _corollary4_values(H_hat, eta) if kind in UNITARY_KINDS else _corollary1_values(H_hat, eta)

    return _statistic_paired_mc(n, eta, L, trials, rng, kinds, rate)


def air_corollary4_paired_mc(
    n: int,
    eta: float,
    L: int,
    trials: int,
    rng: np.random.Generator,
    kinds: tuple[str, ...] = ESTIMATOR_KINDS,
) -> dict[str, AirEstimate]:
    """Average Corollary-4 bound n log2(1+eta) - eta ||I - H_hat||_F^2 / ln 2 of every estimator, on shared draws.

    The draws are those of :func:`air_gaussian_paired_mc`, and every kind,
    ``ls`` too, takes the bound of its own error E = I - H_hat, whose mean is
    n log2(1+eta) - eta tr(R_E) / ln 2, R_E = E[E^dagger E].
    """
    return _statistic_paired_mc(n, eta, L, trials, rng, kinds, lambda _, H_hat: _corollary4_values(H_hat, eta))
