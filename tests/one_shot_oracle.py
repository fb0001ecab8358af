"""The one-shot S formulas that the banded builders replaced.

Each builds its whole rank^2 result from full-size temporaries in a single
numpy expression.  The banded builders form every entry as the same product
of the same floats in the same order, so the tests compare the two bit for
bit.
"""

import numpy as np


def s_matrix(factors):
    """pipeline._s_matrix as one gather per factor:
    S = prod_f (W_f^T * W_f[0, :])[J_f][:, J_f]."""
    S = None
    for W, J in factors:
        Sf = W.T * W[0, :]
        if J is not None:
            Sf = Sf.take(J, 0).take(J, 1)
        S = Sf if S is None else S * Sf
    return S


def graded_product_s(X, Y):
    """The S-matrix of catalog.graded_product(X, Y) as one product of two
    gathered matrices, with the same label order (even block first)."""
    gx, gy = np.array(X.grading), np.array(Y.grading)
    ii, jj = np.nonzero(gx[:, None] == gy)
    order = np.argsort(gx[ii], kind="stable")
    ii, jj = ii[order], jj[order]
    return X.s_tilde.take(ii, 0).take(ii, 1) * Y.s_tilde.take(jj, 0).take(jj, 1)


def torus_weights(T, trace):
    """The torus candidate's weight table W[beta, alpha] with full-size
    index temporaries; trace[n] = 2cos(2 pi n / N)."""
    k = np.arange(1, T.r + 1, dtype=np.int64)
    W = np.ones((T.r + 2, T.r + 2))
    W[:2, 2:] = 2.0
    W[2:, 2:] = trace[T.m * (np.outer(k, k) % T.N) % T.N]
    return W


def transparent_labels(D, tol=1e-9):
    """catalog.find_transparent's row test on the whole S at once: the labels
    whose row is within tol * max(|S|max, 1) of S[i, 0] / dims[0] * dims."""
    S = D.s_tilde
    coeff = S[:, 0] / D.dims[0]
    dev = np.abs(S - coeff[:, None] * D.dims).max(axis=1)
    return tuple(D.labels[i] for i in np.flatnonzero(dev <= tol * max(np.abs(S).max(), 1.0)))
