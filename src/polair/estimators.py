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
  whole stack at once, with the SVD only for the zero, singular or
  ill-conditioned matrices it does not converge on. Each A is first divided
  by its largest |Re| or |Im| entry part; a non-finite A raises.

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
from .linalg import check_positive, dagger_last, matmul_last, sample_cgauss, sq_fro_last

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
    array plus c on the diagonal, with no n x L pilots. ``make_pilots``'s
    rules on n and L hold, and ``eta`` must be finite and > 0.
    """
    check_pilot_args(n, L)
    check_positive("eta", eta)
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
    ``A`` may be one n x n statistic or a stack (..., n, n). Each A is first
    divided by its largest entry part (:func:`_largest_part`), which is
    finite for every finite A, so that no square overflows or underflows;
    the polar factor does not change under scaling. For n = 2 it is the
    closed form (A + (d/|d|) adj(A)^dagger) / sqrt(||A||_F^2 + 2|d|),
    d = det A, whose denominator is s_1 + s_2 (Higham 1986), computed entry
    by entry. For n > 2 it is the Newton-Schulz iteration of
    :func:`_polar_newton_schulz`, which agrees with U V^dagger to round-off
    and hands a singular or ill-conditioned A to the SVD. Either way each
    matrix of a stack gets the bits it gets alone, whatever the stack's
    memory layout. The output is unitary for every finite input: a singular
    A (d = 0) takes the phase 1, one of the equally valid minimizers on the
    degenerate subspace, and A = 0 gives the identity, as the SVD does. A
    non-finite A, alone or in a stack, raises ``ValueError`` at every n.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-1] != 2:
        return _polar_newton_schulz(A)
    # Entry by entry, on the four strided entry views of a stack: numpy pays
    # far more per call to reduce a 2-long trailing axis. A single matrix is a
    # stack of one, so that its entries are arrays, not numpy scalars, whose
    # complex product can round differently from the array loop's. With a
    # broadcast (stride-0) operand it can warn of a false overflow: copy first.
    flat = np.ascontiguousarray(A.reshape(-1, 2, 2))
    a, b, c, e = flat[:, 0, 0], flat[:, 0, 1], flat[:, 1, 0], flat[:, 1, 1]
    scale = _largest_part(np.ascontiguousarray(flat.transpose(1, 2, 0)))
    # A = 0 becomes I, whose polar factor is I; every other A gets a largest entry part of at most 1.
    # The floor keeps the reciprocal of a subnormal scale finite.
    zero = scale == 0
    inv_scale = 1.0 / np.maximum(scale, np.finfo(float).tiny)
    a, b, c, e = a * inv_scale + zero, b * inv_scale, c * inv_scale, e * inv_scale + zero
    d = a * e - b * c
    abs_d = np.abs(d)
    # numpy divides by a complex through its reciprocal, which a subnormal |d| would overflow.
    normal = abs_d >= np.finfo(float).tiny
    phase = np.divide(d, abs_d, out=np.ones_like(d), where=normal)
    if not normal.all():
        lifted = d[~normal] * 2.0**600  # exact, and normal unless d = 0
        phase[~normal] = np.divide(lifted, np.abs(lifted), out=np.ones_like(lifted), where=lifted != 0)
    inv_norm = 1.0 / np.sqrt(
        a.real**2 + a.imag**2 + b.real**2 + b.imag**2 + c.real**2 + c.imag**2 + e.real**2 + e.imag**2 + 2.0 * abs_d
    )
    polar = np.empty_like(flat)  # (A + phase adj(A)^dagger) / norm, adj(A)^dagger = [[e*, -c*], [-b*, a*]]
    polar[:, 0, 0] = (a + phase * np.conj(e)) * inv_norm
    polar[:, 0, 1] = (b - phase * np.conj(c)) * inv_norm
    polar[:, 1, 0] = (c - phase * np.conj(b)) * inv_norm
    polar[:, 1, 1] = (e + phase * np.conj(a)) * inv_norm
    return polar.reshape(A.shape)


def _largest_part(X: np.ndarray) -> np.ndarray:
    """The largest |Re| or |Im| entry part of each matrix of a C-contiguous batch-last stack (n, n, B).

    Unlike the largest entry modulus, it is finite for every finite matrix.
    A NaN or infinite part, in any matrix, raises ``ValueError``.
    """
    # Re and Im interleaved along the stack axis; numpy reduces short trailing axes slowly.
    parts = np.abs(X.view(float)).max(axis=(0, 1))
    scale = np.maximum(parts[0::2], parts[1::2])
    if not np.isfinite(scale).all():
        raise ValueError("A must be finite")
    return scale


NS_TOL = 1e-5  # ||I - X^dagger X||_F below which one more third-order step reaches round-off
NS_MAX_STEPS = 10  # a matrix not converged by then takes the SVD


def _polar_newton_schulz(A: np.ndarray) -> np.ndarray:
    """Unitary polar factors of a stack (..., n, n) by an inverse-free Newton-Schulz iteration.

    The stack is worked on batch-last (see :func:`~polair.linalg.matmul_last`),
    one whole-stack array operation per step in place of one LAPACK call per
    matrix. Each A is divided by its largest entry part
    (:func:`_largest_part`), so that no square overflows, and then scaled by
    (2/||A^dagger A||_F)^(1/2), so that every singular value s has s^2 <= 2.
    The step X <- X (I + R/2 + 3 R^2/8), R = I - X^dagger X, keeps the
    singular vectors of A and maps each s to s (1 + r/2 + 3 r^2/8),
    r = 1 - s^2: |r| never grows on s^2 in (0, 2] and shrinks as 5 r^3/8
    near 0, so every s tends to 1 and X to U V^dagger.
    A matrix takes its last step once ||R||_F < :data:`NS_TOL` and then
    leaves the active set. Those still active after :data:`NS_MAX_STEPS`
    steps (a singular A keeps s = 0; an ill-conditioned one grows its small
    s only about 3.5-fold per step), and A = 0, take ``np.linalg.svd`` of
    the scaled A and U V^dagger, so that LAPACK never sees an unscaled A.
    """
    n = A.shape[-1]
    flat = A.reshape(-1, n, n)
    polar = np.empty_like(flat)
    svd = np.ones(len(flat), dtype=bool)
    X = np.ascontiguousarray(flat.transpose(1, 2, 0))
    scale = _largest_part(X)
    idx = np.flatnonzero(scale > 0)
    # take and compress keep X batch-last contiguous; X[..., idx] would return a strided copy.
    X = np.take(X, idx, axis=-1)
    # numpy divides by a complex through its reciprocal, which a subnormal scale would overflow.
    scale = np.maximum(scale, np.finfo(float).tiny)
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
            X, idx = np.compress(~last, X, axis=-1), idx[~last]
        if not idx.size:
            break
        R = matmul_last(dagger_last(X), X)
        R *= -1.0
        R[diagonal] += 1.0
    if svd.any():
        U, _, Vh = np.linalg.svd(flat[svd] / scale[svd, None, None])
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
