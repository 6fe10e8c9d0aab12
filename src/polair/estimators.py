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
  n > 2 it comes from a batched SVD.

:data:`ESTIMATORS` is the one registry of estimator kinds,
``{kind: (A, c) -> H_hat}``, holding ``ls`` and ``kabsch``. The kinds in
:data:`UNITARY_KINDS` give unitary estimates and have n^2 real degrees of
freedom; the others have 2 n^2. Everything that dispatches on a kind (the
error covariance here, the Monte Carlo rates in :mod:`polair.air`) reads
the registry. The perfect-CSI reference the rates are compared with is not
an estimator; :func:`polair.air.air_discrete_paired_mc` computes it itself.

On the identity channel, X = D + N and A = c I + N D^dagger. For any n x n
D' with D' D'^dagger = c I, Z = N D^dagger D'/c is again i.i.d.
CN(0, sigma2) and (D' + Z) D'^dagger = A. So each Monte Carlo step draws
the n x n block X' = D' + Z, with the pilots of :func:`statistic_pilots`,
in place of the n x L block (n^2 noise entries per trial in place of n L),
forms A once per block (:func:`statistic_sampler`) and hands it to every
kind. The law of A, and so of every estimate, is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, check_pilot_args, make_pilots
from .linalg import check_hermitian_psd, dagger, mc_blocks, sample_cgauss

__all__ = [
    "ESTIMATORS",
    "ESTIMATOR_KINDS",
    "UNITARY_KINDS",
    "get_estimator",
    "ErrorStats",
    "estimate_ls",
    "estimate_kabsch",
    "empirical_error_covariance",
]


def statistic_pilots(n: int, L: int, power: float) -> np.ndarray:
    """n x n pilots with the Gram matrix of ``make_pilots(n, L, power)``, (P L / n) I_n.

    What the Monte Carlo steps estimate from: a draw X' = D' + Z with Z i.i.d.
    CN(0, sigma2) gives A = X' D'^dagger the law it has from the n x L block
    (see the module docstring). An L that ``make_pilots(n, L, power)``
    rejects raises the same ``ValueError``; the n x L pilots are not built.
    """
    check_pilot_args(n, L, power)
    return make_pilots(n, n, power * L / n)


def statistic_sampler(params: ChannelParams, L: int):
    """``(draw, c)``: ``draw(b, rng)`` is a (b, n, n) stack of pilot statistics from ``L`` pilots, c = P L / n.

    Each is A = (D' + Z) D'^dagger, Z i.i.d. CN(0, sigma2), with the pilots
    D' of :func:`statistic_pilots`.
    """
    n = params.n
    D = statistic_pilots(n, L, params.power)
    D_dag = dagger(D)

    def draw(b, rng):
        X = sample_cgauss((b, n, n), params.sigma2, rng)
        X += D
        return np.tensordot(X, D_dag, axes=1)

    return draw, params.power * L / n


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
    underflows. For n > 2 it is computed from the SVD. The output is unitary
    for every finite input: a singular A (d = 0) takes the phase 1, one of
    the equally valid minimizers on the degenerate subspace, and A = 0 gives
    the identity, as the SVD does.
    """
    A = np.asarray(A, dtype=complex)
    if A.shape[-1] != 2:
        U, _, Vh = np.linalg.svd(A)
        return U @ Vh
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


@dataclass(frozen=True)
class ErrorStats:
    """Empirical error covariance R_E = E[E^dagger E] and derived scalars.

    ``dof`` is the estimator's number of real degrees of freedom;
    ``trace_stderr`` is the standard error of tr(R_E) as the mean of the
    per-trial ||E_t||_F^2.
    """

    kind: str
    R_E: np.ndarray = field(repr=False)
    trials: int
    dof: int
    trace_stderr: float

    def __post_init__(self):
        check_hermitian_psd(self.R_E, "R_E")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    @property
    def n(self) -> int:
        return self.R_E.shape[0]

    @property
    def trace_re(self) -> float:
        return float(np.trace(self.R_E).real)

    @property
    def error_per_dof(self) -> float:
        """Per-DOF error trace(R_E) / (n * dof)."""
        return self.trace_re / (self.n * self.dof)


def empirical_error_covariance(
    kinds: tuple[str, ...],
    params: ChannelParams,
    L: int,
    trials: int,
    rng: np.random.Generator,
) -> dict[str, ErrorStats]:
    """Average E^dagger E over independent pilot-noise draws, per estimator kind.

    The channel is the identity: E has the same law for every unitary H, as
    H^dagger times the noise is again i.i.d. Gaussian. Each trial draws the
    pilot statistic of :func:`statistic_sampler`, which has its law from L
    pilots; ``L`` must be a multiple of n and at least n. Every kind
    (``"ls"``, ``"kabsch"``) estimates from the same statistic; per-block
    Gram sums add in block order, and the per-trial ||E_t||_F^2 give
    ``trace_stderr``.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    estimators = {kind: get_estimator(kind) for kind in kinds}
    n = params.n
    draw, c = statistic_sampler(params, L)

    def step(b, rng):
        A = draw(b, rng)
        out = {}
        for kind, estimate in estimators.items():
            E = np.eye(n) - estimate(A, c)
            out[kind] = np.einsum("bij,bik->jk", np.conj(E), E), np.sum(E.real**2 + E.imag**2, axis=(1, 2))
        return out

    blocks = mc_blocks(step, trials, rng)
    out = {}
    for kind in estimators:
        R = sum(block[kind][0] for block in blocks) / trials
        R = 0.5 * (R + dagger(R))  # symmetrize away accumulation round-off
        sq_norms = np.concatenate([block[kind][1] for block in blocks])
        out[kind] = ErrorStats(
            kind=kind,
            R_E=R,
            trials=trials,
            dof=n * n if kind in UNITARY_KINDS else 2 * n * n,
            trace_stderr=float(sq_norms.std(ddof=1) / np.sqrt(trials)),
        )
    return out
