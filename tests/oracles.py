"""Independent oracles for the fit engines.

Everything here is deliberately coded against raw power sums and solved by
routines that share nothing with the package's solvers: determinants by
Laplace expansion with Cramer ratios for small systems, and a plain
Gauss-Jordan sweep (no partial pivoting) for the rest.
"""

import numpy as np


def power_sum(x, y, a, b):
    return float(np.sum(np.power(x, a) * np.power(y, b)))


def gram_from_sums(x, y, exps):
    """Normal-equation matrix for a unit-constant fit over monomial
    exponent pairs, assembled entry by entry from raw sums."""
    m = len(exps)
    G = np.empty((m, m))
    rhs = np.empty(m)
    for k, (ak, bk) in enumerate(exps):
        rhs[k] = power_sum(x, y, ak, bk)
        for j, (aj, bj) in enumerate(exps):
            G[k, j] = power_sum(x, y, ak + aj, bk + bj)
    return G, rhs


def rotation_system_from_sums(x, y, exps, pivot):
    """Normal equations for regressing the pivot monomial on an intercept
    plus the remaining monomials."""
    cols = [(0.0, 0.0)] + [e for i, e in enumerate(exps) if i != pivot]
    ap, bp = exps[pivot]
    m = len(cols)
    G = np.empty((m, m))
    rhs = np.empty(m)
    for k, (ak, bk) in enumerate(cols):
        rhs[k] = power_sum(x, y, ak + ap, bk + bp)
        for j, (aj, bj) in enumerate(cols):
            G[k, j] = power_sum(x, y, ak + aj, bk + bj)
    return G, rhs


def det_laplace(A):
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return A[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(A, 0, axis=0), j, axis=1)
        total += ((-1.0) ** j) * A[0, j] * det_laplace(minor)
    return total


def cramer_full(A, b):
    """Cramer's rule with Laplace determinants; exact-arithmetic style."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    d = det_laplace(A)
    out = np.empty(len(b))
    for j in range(len(b)):
        Aj = A.copy()
        Aj[:, j] = b
        out[j] = det_laplace(Aj) / d
    return out


def gauss_jordan(A, b):
    """Gauss-Jordan without partial pivoting (row swap only on a zero
    pivot); independent of the package's elimination path."""
    A = np.array(A, dtype=float)
    b = np.array(b, dtype=float)
    n = len(b)
    for k in range(n):
        if A[k, k] == 0.0:
            for r in range(k + 1, n):
                if A[r, k] != 0.0:
                    A[[k, r]] = A[[r, k]]
                    b[[k, r]] = b[[r, k]]
                    break
        piv = A[k, k]
        A[k] /= piv
        b[k] /= piv
        for i in range(n):
            if i != k and A[i, k] != 0.0:
                factor = A[i, k]
                A[i] -= factor * A[k]
                b[i] -= factor * b[k]
    return b


def solve_oracle(G, rhs):
    """Cramer expansion for m <= 3, Gauss-Jordan for larger systems."""
    if G.shape[0] <= 3:
        return cramer_full(G, rhs)
    return gauss_jordan(G, rhs)


def nonresponse_oracle(x, y, exps):
    G, rhs = gram_from_sums(x, y, exps)
    return solve_oracle(G, rhs)


def rotation_oracle(x, y, exps, pivot):
    G, rhs = rotation_system_from_sums(x, y, exps, pivot)
    return solve_oracle(G, rhs)
