"""Moments of the signal-weighted empirical spectral measures of an
instance, the oracles of the induced-measure checks."""

import numpy as np

from rectoamp.model import ProblemInstance


def signal_moments(inst: ProblemInstance):
    """(mom_nu1, mom_nu2, nu2_zero_mass) of the signal-weighted empirical
    measures of Y Y^T and Y^T Y, as quadratic forms in Y: no factorization.

    mom_nu1[k] = u*^T (Y Y^T)^k u* / M and mom_nu2[k] = v*^T (Y^T Y)^k v* / N
    for k = 0..3, from three products with Y or Y^T per side; mom_nu2[0] =
    |v*|^2 / N holds the null space's mass too.  With Y = U diag(sigma) V^T,
    <v_i, v*> = (U^T Y v*)_i / sigma_i, so the mass at 0 is
    (|v*|^2 - sum_i <v_i, v*>^2) / N = (|v*|^2 - (Y v*)^T (Y Y^T)^-1 (Y v*)) / N,
    one dense solve with the Gram matrix, which must be nonsingular.
    """
    Y, u, v = inst.Y, inst.u_star, inst.v_star
    a = Y.T @ u                 # Y^T u*
    b = Y @ a                   # (Y Y^T) u*
    c = Y.T @ b                 # Y^T (Y Y^T) u*
    p = Y @ v                   # Y v*
    q = Y.T @ p                 # (Y^T Y) v*
    r = Y @ q                   # Y (Y^T Y) v*
    mom_nu1 = np.array([u @ u, a @ a, b @ b, c @ c]) / inst.M
    mom_nu2 = np.array([v @ v, p @ p, q @ q, r @ r]) / inst.N
    nu2_zero_mass = float(v @ v - p @ np.linalg.solve(Y @ Y.T, p)) / inst.N
    return mom_nu1, mom_nu2, nu2_zero_mass
