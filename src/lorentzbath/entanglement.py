"""Two-qubit concurrence of the qubit/single-photon-mode state.

The three-level state on (|e,0>, |g,1>, |g,0>) embeds into the two-qubit
space ordered (|e,1>, |e,0>, |g,1>, |g,0>) by padding the never-populated
|e,1> level with zeros.  For states of this X-like form the Wootters
concurrence collapses to twice the |e,0><g,1| coherence.

Every function takes one state or a ``(..., d, d)`` stack of them and acts
over the leading axes; for one state a concurrence is a ``float``.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError, FormError, _Record
from .model import DensityMatrix3, _freeze_density

X_FORM_TOL = 1e-8

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


class TwoQubitDensity(_Record, hide=("matrix",)):
    """Validated 4x4 density matrix, or stack of them, on (|e,1>, |e,0>, |g,1>, |g,0>)."""

    matrix: np.ndarray

    def __post_init__(self):
        _freeze_density(self, 4)


def embed(rho: DensityMatrix3) -> TwoQubitDensity:
    """Pad the empty |e,1> level; rho_{e0,g1} lands in the (2,3) block entry."""
    m = np.zeros(rho.matrix.shape[:-2] + (4, 4), dtype=complex)
    m[..., 1:, 1:] = rho.matrix
    m.flags.writeable = False
    padded = object.__new__(TwoQubitDensity)  # rho is valid, so is rho with a zero row and column
    object.__setattr__(padded, "matrix", m)
    return padded


def wootters_concurrence(rho: TwoQubitDensity) -> float:
    """Concurrence from the Hermitian form R = sqrt(rho) rho~ sqrt(rho).

    rho~ is the spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).
    With M = sqrt(rho) YY conj(sqrt(rho)) one has R = M M-dagger, so the
    Wootters lambdas (square roots of the eigenvalues of the Hermitian R) are
    exactly the singular values of M.  Taking them from an SVD instead of
    rooting eigvalsh(R) matters on the rank-deficient states this model
    produces: eigenvalue noise eps under a square root becomes sqrt(eps) and
    would swamp the 1e-10 agreement the closed form is held to.  Clipping of
    negative rho eigenvalues in [-1e-9, 0) happens before the matrix root;
    C = max(0, l1 - l2 - l3 - l4) with l descending.
    """
    m = rho.matrix
    try:
        evals, vecs = np.linalg.eigh(m)
        evals = np.where(evals < 0.0, 0.0, evals)
        sqrt_rho = (vecs * np.sqrt(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        flip_half = sqrt_rho @ _YY @ sqrt_rho.conj()
        lam = np.linalg.svd(flip_half, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on:\n{m!r}") from exc
    c = np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
    return float(c) if c.ndim == 0 else c


def xstate_concurrence(rho: DensityMatrix3) -> float:
    """Shortcut 2|rho_{e0,g1}| valid when |g,0> carries no coherence."""
    m = rho.matrix
    leak = np.maximum(np.abs(m[..., 0, 2]), np.abs(m[..., 1, 2])).reshape(-1)
    if (leak > X_FORM_TOL).any():
        i = int(np.argmax(leak > X_FORM_TOL))
        exc = FormError(f"|g,0> coherences of magnitude {leak[i]} break the X form at index {i}")
        exc.index = i  # flat position in the stack, as validate_density sets it
        raise exc
    c = 2.0 * np.abs(m[..., 0, 1])
    return float(c) if c.ndim == 0 else c
