"""Data-aided channel estimation from pilot blocks.

Two estimators are provided:

* least squares (LS): ``H = X D^dagger (D D^dagger)^-1``, the unconstrained
  minimizer of ||X - H D||_F^2, with 2 n^2 real degrees of freedom;
* Kabsch: ``H = U V^dagger``, the unitary polar factor of ``A = X D^dagger``
  (A = U S V^dagger), the minimizer of the same cost over the unitary
  group, with n^2 degrees of freedom. For n = 2 it is the exact closed form
  ``(A + (det A/|det A|) adj(A)^dagger) / (s_1 + s_2)``; for n > 2 it comes
  from a batched SVD.

Both are plain functions, :func:`estimate_ls` and :func:`estimate_kabsch`,
vectorized over stacked pilot blocks.

:data:`ESTIMATORS` is the one registry of estimator kinds,
``{kind: (X, pilots) -> H_hat}``; besides ``ls`` and ``kabsch`` it holds
the perfect-CSI stub ``perfect``, which returns the identity: every Monte
Carlo step runs on the identity channel (see :mod:`polair.air`). The
kinds in :data:`UNITARY_KINDS` give unitary estimates and have n^2 real
degrees of freedom; the others have 2 n^2. Everything that dispatches on a
kind (the error covariance here, the Monte Carlo rates in
:mod:`polair.air`) reads the registry.

Every kind is a function of the received pilots X only through the n x n
statistic A = X D^dagger: the Gaussian pilot likelihood ||X - H D||_F^2
depends on X through it alone. With the orthogonal pilots of
:func:`~polair.channel.make_pilots` (D D^dagger = c I, c = P L / n),
A = c I + N D^dagger. For any n x n D' with D' D'^dagger = c I,
Z = N D^dagger D'/c is again i.i.d. CN(0, sigma2) and (D' + Z) D'^dagger = A.
So the Monte Carlo steps draw the n x n block X' = D' + Z, with the pilots
of :func:`statistic_pilots`, in place of the n x L block: n^2 noise entries
per trial in place of n L, and the law of every estimate is unchanged. A
new kind must keep this property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelParams, PilotMatrix, make_pilots
from .linalg import SingularMatrixError, check_hermitian_psd, dagger, fro_norm, mc_blocks, sample_cgauss

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


def _pilot_arrays(pilots: PilotMatrix) -> tuple[np.ndarray, np.ndarray]:
    D = pilots.D
    gram = D @ dagger(D)
    sv = np.linalg.svd(gram, compute_uv=False)
    if sv[-1] < 1e-13 * max(fro_norm(gram), np.finfo(float).tiny):
        raise SingularMatrixError("pilot Gram matrix D D^dagger is singular")
    return D, np.linalg.inv(gram)


def statistic_pilots(n: int, L: int, power: float) -> PilotMatrix:
    """n x n pilots with the Gram matrix of ``make_pilots(n, L, power)``, (P L / n) I_n.

    What the Monte Carlo steps estimate from: a draw X' = D' + Z with Z i.i.d.
    CN(0, sigma2) gives every registry kind the law it has from the n x L
    block (see the module docstring). An L that ``make_pilots(n, L, power)``
    rejects raises the same ``ValueError``.
    """
    make_pilots(n, L, power)  # only to reject an L that the n x L pilots do not admit
    return make_pilots(n, n, power * L / n)


def estimate_ls(X, pilots: PilotMatrix) -> np.ndarray:
    """Least-squares channel estimate from received pilots.

    ``X`` may be a single n x L block or a stack (..., n, L); the estimate
    has matching leading dimensions.
    """
    X = np.asarray(X, dtype=complex)
    D, gram_inv = _pilot_arrays(pilots)
    if X.shape[-1] != D.shape[1] or X.shape[-2] != D.shape[0]:
        raise ValueError(f"X trailing dims must be {D.shape}, got {X.shape}")
    return np.einsum("...il,lj->...ij", X, dagger(D) @ gram_inv)  # one einsum beats two batched matmuls


def estimate_kabsch(X, pilots: PilotMatrix) -> np.ndarray:
    """Unitary (orthogonal Procrustes) channel estimate from received pilots.

    Returns the unitary polar factor U V^dagger of A = X D^dagger, where
    A = U S V^dagger is an SVD. For n = 2 it is the closed form
    (A + (d/|d|) adj(A)^dagger) / sqrt(||A||_F^2 + 2|d|), d = det A, whose
    denominator is s_1 + s_2 (Higham 1986); A is first scaled by its largest
    entry modulus so that no square overflows or underflows. For n > 2 it is
    computed from the SVD. The output is unitary for every finite input: a
    singular A (d = 0) takes the phase 1, one of the equally valid
    minimizers on the degenerate subspace, and A = 0 gives the identity, as
    the SVD does.
    """
    X = np.asarray(X, dtype=complex)
    D = pilots.D
    if X.shape[-1] != D.shape[1] or X.shape[-2] != D.shape[0]:
        raise ValueError(f"X trailing dims must be {D.shape}, got {X.shape}")
    if D.shape[0] != 2:
        U, _, Vh = np.linalg.svd(X @ dagger(D))
        return U @ Vh
    # einsum is several times faster than a batched matmul on 2 x L blocks.
    A = np.einsum("...il,jl->...ij", X, np.conj(D))
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
# Every entry must depend on X only through X D^dagger: the Monte Carlo steps
# call it with the n x n pilots of statistic_pilots, not the n x L ones.
ESTIMATORS = {
    "ls": lambda X, pilots: estimate_ls(X, pilots),
    "kabsch": lambda X, pilots: estimate_kabsch(X, pilots),
    "perfect": lambda X, pilots: np.eye(pilots.n),
}
UNITARY_KINDS = frozenset({"kabsch", "perfect"})  # these decode with energy ||s||^2
ESTIMATOR_KINDS = tuple(k for k in ESTIMATORS if k != "perfect")  # the pilot-based kinds


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
    n x n pilot block of :func:`statistic_pilots`, which gives every kind the
    law of its estimate from L pilots; ``L`` must be a multiple of n and at
    least n. Every kind (``"ls"``, ``"kabsch"``) estimates from the same
    draws; per-block Gram sums add in block order, and the per-trial
    ||E_t||_F^2 give ``trace_stderr``.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    estimators = {kind: get_estimator(kind) for kind in kinds}
    if "perfect" in estimators:
        raise ValueError("'perfect' is not a pilot-based estimator kind")
    n = params.n
    pilots = statistic_pilots(n, L, params.power)

    def step(b, rng):
        X = sample_cgauss((b, n, n), params.sigma2, rng)
        X += pilots.D
        out = {}
        for kind, estimate in estimators.items():
            E = np.eye(n) - estimate(X, pilots)
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
