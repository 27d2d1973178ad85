"""Two-qubit Wootters concurrence of the qubit/single-photon-mode state.

A :class:`~lorentzbath.model.DensityMatrix3` on (|e,0>, |g,1>, |g,0>) is the
two-qubit state on (|e,1>, |e,0>, |g,1>, |g,0>) with the never-populated
|e,1> level left out.  For every such state the Wootters concurrence is
exactly twice the |e,0><g,1| coherence, which is
:func:`~lorentzbath.model.xstate_concurrence`; the full formula here exists
to confirm that.  :func:`_wootters` takes one padded state or a stack of
them, and this is the only module that hands a state to numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError
from .model import DensityMatrix3

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def wootters_concurrence(rho: DensityMatrix3) -> float:
    """Concurrence of one state (see :func:`_wootters`)."""
    return float(_wootters(_padded([rho])[0]))


def _padded(states) -> np.ndarray:
    """The ``(n, 4, 4)`` stack of n states, each padded with the empty |e,1>
    level: row and column 0 are zero and rho_{e0,g1} lands in entry (1, 2)."""
    m = np.zeros((len(states), 4, 4), dtype=complex)
    m[:, 1:, 1:] = [rho.matrix for rho in states]
    return m


def _wootters(m):
    """Concurrence of a 4x4 density matrix, or of each in a ``(..., 4, 4)``
    stack, from the Hermitian form R = sqrt(rho) rho~ sqrt(rho).

    rho~ is the spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).
    With M = sqrt(rho) YY conj(sqrt(rho)) one has R = M M-dagger, so the
    Wootters lambdas (square roots of the eigenvalues of the Hermitian R) are
    exactly the singular values of M.  Taking them from an SVD instead of
    rooting eigvalsh(R) matters on the rank-deficient states this model
    produces: eigenvalue noise eps under a square root becomes sqrt(eps) and
    would swamp the 1e-10 agreement the closed form is held to.  Clipping of
    negative rho eigenvalues in [-1e-9, 0) happens before the matrix root;
    C = max(0, l1 - l2 - l3 - l4) with l descending.  LAPACK takes a stack
    one matrix at a time, so each concurrence has the bits of its own call.
    """
    try:
        evals, vecs = np.linalg.eigh(m)
        evals = np.where(evals < 0.0, 0.0, evals)
        sqrt_rho = (vecs * np.sqrt(evals)[..., None, :]) @ vecs.conj().swapaxes(-1, -2)
        lam = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on:\n{m!r}") from exc
    return np.maximum(0.0, lam[..., 0] - lam[..., 1] - lam[..., 2] - lam[..., 3])
