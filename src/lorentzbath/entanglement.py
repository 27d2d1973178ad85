"""Two-qubit Wootters concurrence of the qubit/single-photon-mode state.

A :class:`~lorentzbath.model.DensityMatrix3` on (|e,0>, |g,1>, |g,0>) is the
two-qubit state on (|e,1>, |e,0>, |g,1>, |g,0>) with the never-populated
|e,1> level left out.  For this X-like form the Wootters concurrence
collapses to twice the |e,0><g,1| coherence, which is
:func:`~lorentzbath.model.xstate_concurrence`; the full formula here exists
to confirm that.  It takes one state, and is the only module that hands a
state to numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import EigensolverError
from .model import DensityMatrix3

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_SIGMA_Y, _SIGMA_Y)


def wootters_concurrence(rho: DensityMatrix3) -> float:
    """Concurrence of one state, padded with the empty |e,1> level: rho_{e0,g1}
    lands in the (1, 2) entry of the 4x4 matrix (see :func:`_wootters`)."""
    m = np.zeros((4, 4), dtype=complex)
    m[1:, 1:] = rho.matrix
    return _wootters(m)


def _wootters(m) -> float:
    """Concurrence of a 4x4 density matrix from the Hermitian form
    R = sqrt(rho) rho~ sqrt(rho).

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
    try:
        evals, vecs = np.linalg.eigh(m)
        evals = np.where(evals < 0.0, 0.0, evals)
        sqrt_rho = (vecs * np.sqrt(evals)) @ vecs.conj().T
        lam = np.linalg.svd(sqrt_rho @ _YY @ sqrt_rho.conj(), compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigensolver failed on:\n{m!r}") from exc
    return float(np.maximum(0.0, lam[0] - lam[1] - lam[2] - lam[3]))
