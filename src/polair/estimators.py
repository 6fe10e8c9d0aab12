"""Data-aided channel estimation from the pilot statistic.

Every estimator reads the received pilots X only through the n x n statistic
A = X D^dagger, the only function of X in the Gaussian pilot likelihood
||X - H D||_F^2. With the orthogonal pilots of
:func:`~polair.channel.make_pilots`, D D^dagger = c I, c = P L / n. Two
estimators are provided, as plain functions vectorized over stacked
statistics:

* least squares (LS), :func:`estimate_ls`: ``H = A / c``, which is
  X D^dagger (D D^dagger)^-1, the unconstrained minimizer of
  ||X - H D||_F^2, with 2 n^2 real degrees of freedom;
* Kabsch, :func:`estimate_kabsch`: ``H = U V^dagger``, the unitary polar
  factor of A = U S V^dagger, the minimizer of the same cost over the
  unitary group, with n^2 degrees of freedom. For n = 2 it is the exact
  closed form ``(A + (det A/|det A|) adj(A)^dagger) / (s_1 + s_2)``; for
  n > 2 it comes from an inverse-free Newton-Schulz iteration run on the
  whole stack at once, with the SVD only for the singular or
  ill-conditioned matrices it does not converge on.

:data:`ESTIMATORS` is the one registry of estimator kinds,
``{kind: (A, c) -> H_hat}``, holding ``ls`` and ``kabsch``. The kinds in
:data:`UNITARY_KINDS` give unitary estimates and have n^2 real degrees of
freedom; the others have 2 n^2. Everything that dispatches on a kind (the
Monte Carlo rates and error statistics in :mod:`polair.air`) reads the
registry. The perfect-CSI reference the rates are compared with is not
an estimator; :func:`polair.air.air_discrete_paired_mc` computes it itself.

The noise has unit variance, so c = eta L at per-channel SNR eta. On the
identity channel, X = D + N and A = c I + N D^dagger. The rows of D are
orthogonal with squared norm c, so N D^dagger is i.i.d. CN(0, c). Each
Monte Carlo step therefore draws A directly as c I + sqrt(c) Z, Z i.i.d.
CN(0, 1) n x n (:func:`statistic_sampler`): n^2 noise entries per trial in
place of n L, and no pilots. It draws A once per block and hands it to
every kind. The law of A, and so of every estimate, is that of the n x L
pilot block.
"""

from __future__ import annotations

import numpy as np

from .channel import check_pilot_args
from .linalg import dagger_last, matmul_last, sample_cgauss, sq_fro_last

__all__ = [
    "ESTIMATORS",
    "ESTIMATOR_KINDS",
    "UNITARY_KINDS",
    "get_estimator",
    "estimate_ls",
    "estimate_kabsch",
]


def statistic_sampler(n: int, eta: float, L: int):
    """``(draw, c)``: ``draw(b, rng)`` is a (b, n, n) stack of pilot statistics from ``L`` pilots, c = eta L.

    Each is A = c I + sqrt(c) Z, Z i.i.d. CN(0, 1), drawn as one CN(0, c)
    array plus c on the diagonal. Arguments that ``make_pilots(n, L, n * eta)``
    rejects raise the same ``ValueError``; the n x L pilots are not built.
    """
    check_pilot_args(n, L, n * eta)
    c = eta * L
    diagonal = c * np.eye(n)

    def draw(b, rng):
        A = sample_cgauss((b, n, n), c, rng)
        A += diagonal
        return A

    return draw, c


def estimate_ls(A, c: float) -> np.ndarray:
    """Least-squares channel estimate A / c from the pilot statistic A = X D^dagger, D D^dagger = c I.

    ``A`` may be one n x n statistic or a stack (..., n, n).
    """
    return np.asarray(A, dtype=complex) / c


def estimate_kabsch(A) -> np.ndarray:
    """Unitary (orthogonal Procrustes) channel estimate from the pilot statistic A = X D^dagger.

    Returns the unitary polar factor U V^dagger of A = U S V^dagger, an SVD;
    ``A`` may be one n x n statistic or a stack (..., n, n). For n = 2 it is
    the closed form (A + (d/|d|) adj(A)^dagger) / sqrt(||A||_F^2 + 2|d|),
    d = det A, whose denominator is s_1 + s_2 (Higham 1986); A is first
    scaled by its largest entry modulus so that no square overflows or
    underflows. For n > 2 it is the Newton-Schulz iteration of
    :func:`_polar_newton_schulz`, which agrees with U V^dagger to round-off,
    gives each matrix of a stack the bits it gets alone, and hands a
    singular or ill-conditioned A to the SVD. The output is unitary for
    every finite input: a singular A (d = 0) takes the phase 1, one of the
    equally valid minimizers on the degenerate subspace, and A = 0 gives the
    identity, as the SVD does.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-1] != 2:
        return _polar_newton_schulz(A)
    scale = np.abs(A).max(axis=(-2, -1), keepdims=True)
    # A = 0 becomes I, whose polar factor is I; every other A gets a largest entry of modulus 1.
    A = np.divide(A, scale, out=np.broadcast_to(np.eye(2, dtype=complex), A.shape).copy(), where=scale > 0)
    a, b, c, e = A[..., 0, 0], A[..., 0, 1], A[..., 1, 0], A[..., 1, 1]
    d = a * e - b * c
    abs_d = np.abs(d)
    phase = np.divide(d, abs_d, out=np.ones_like(d), where=d != 0)
    norm = np.sqrt(np.sum(A.real**2 + A.imag**2, axis=(-2, -1)) + 2.0 * abs_d)
    polar = np.stack([np.conj(e), -np.conj(c), -np.conj(b), np.conj(a)], axis=-1).reshape(A.shape)  # adj(A)^dagger
    # In place: every (..., 2, 2) temporary is as large as a whole Monte Carlo block.
    polar *= phase[..., None, None]
    polar += A
    polar /= norm[..., None, None]
    return polar


NS_TOL = 1e-5  # ||I - X^dagger X||_F below which one more third-order step reaches round-off
NS_MAX_STEPS = 10  # a matrix not converged by then takes the SVD


def _polar_newton_schulz(A: np.ndarray) -> np.ndarray:
    """Unitary polar factors of a stack (..., n, n) by an inverse-free Newton-Schulz iteration.

    The stack is worked on batch-last (see :func:`~polair.linalg.matmul_last`),
    one whole-stack array operation per step in place of one LAPACK call per
    matrix. Each A is scaled by its largest entry modulus, so that no square
    overflows, and then by (2/||A^dagger A||_F)^(1/2), so that every singular
    value s has s^2 <= 2. The step X <- X (I + R/2 + 3 R^2/8),
    R = I - X^dagger X, keeps the singular vectors of A and maps each s to
    s (1 + r/2 + 3 r^2/8), r = 1 - s^2: |r| never grows on s^2 in (0, 2] and
    shrinks as 5 r^3/8 near 0, so every s tends to 1 and X to U V^dagger.
    A matrix takes its last step once ||R||_F < :data:`NS_TOL` and then
    leaves the active set. Those still active after :data:`NS_MAX_STEPS`
    steps (a singular A keeps s = 0; an ill-conditioned one grows its small
    s only about 3.5-fold per step), and A = 0 or a non-finite A, take
    ``np.linalg.svd`` and U V^dagger.
    """
    n = A.shape[-1]
    flat = A.reshape(-1, n, n)
    polar = np.empty_like(flat)
    svd = np.ones(len(flat), dtype=bool)
    scale = np.abs(flat).max(axis=(1, 2))
    idx = np.flatnonzero(np.isfinite(scale) & (scale > 0))
    X = np.ascontiguousarray(flat[idx].transpose(1, 2, 0))
    X /= scale[idx]
    R = matmul_last(dagger_last(X), X)
    alpha = 2.0 / np.sqrt(sq_fro_last(R))
    X *= np.sqrt(alpha)
    R *= -alpha  # I - X^dagger X of the scaled X, once 1 is on the diagonal
    diagonal = np.diag_indices(n)
    R[diagonal] += 1.0
    for _ in range(NS_MAX_STEPS):
        last = sq_fro_last(R) < NS_TOL**2
        T = 0.375 * R
        T[diagonal] += 0.5
        P = matmul_last(R, T)  # R/2 + 3 R^2/8
        del R, T  # at most five stack-sized arrays are alive at once
        P[diagonal] += 1.0
        X = matmul_last(X, P)
        del P
        if last.any():
            polar[idx[last]] = X[..., last].transpose(2, 0, 1)
            svd[idx[last]] = False
            X, idx = X[..., ~last], idx[~last]
        if not idx.size:
            break
        R = matmul_last(dagger_last(X), X)
        R *= -1.0
        R[diagonal] += 1.0
    if svd.any():
        U, _, Vh = np.linalg.svd(flat[svd])
        polar[svd] = U @ Vh
    return polar.reshape(A.shape)


# The entries look estimate_ls and estimate_kabsch up as module globals at
# call time, so a wrapped or patched module attribute is what gets called.
# An entry sees only the pilot statistic A and its scale c.
ESTIMATORS = {
    "ls": lambda A, c: estimate_ls(A, c),
    "kabsch": lambda A, c: estimate_kabsch(A),
}
UNITARY_KINDS = frozenset({"kabsch"})
ESTIMATOR_KINDS = tuple(ESTIMATORS)


def get_estimator(kind: str):
    """The registry entry of ``kind``; an unknown kind raises ``ValueError``."""
    if kind not in ESTIMATORS:
        raise ValueError(f"unknown estimator kind {kind!r}")
    return ESTIMATORS[kind]
