"""Free Poincare constants on truncated polynomial spaces.

The optimal constant C_opt(X) is the least C with

    ||P(X) - phi(P(X))||_2^2  <=  C sum_i ||(d_i P)(X)||_2^2

over all polynomials P.  On the span of nonconstant monomials of degree
at most d this becomes a generalized Rayleigh quotient of two Hermitian
PSD forms: the centered covariance S and the Dirichlet energy E.  The
largest generalized eigenvalue C_d (restricted to the complement of E's
null space) is a lower bound on C_opt that is nondecreasing in d; the
coordinate polynomial t_i alone achieves the variance of x_i, so
C_1 equals the largest eigenvalue of the covariance matrix.

Null directions of E with positive variance would force C_opt = inf;
genuine bounded states always satisfy C_opt <= 4 n ||X||^2 (improved to
2 n ||X||^2 for tracial states), so such directions are reported as
witnesses of an invalid moment table rather than silently dropped.

``biane_gap_check`` combines both solvers: for centered X with
sum_i phi(x_i^2) = n the optimal constant dominates
1 + sigma^2 / n, where sigma is the Stein discrepancy for the quadratic
potential, so any valid upper bound on C_opt must exceed the computable
1 + sigma_d^2 / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InadmissibleProblemError, InvalidStateError
from .states import (
    coordinate_moments,
    covariance_gram,
    dirichlet_gram,
    operator_norm_estimate,
    words_up_to,
)

PINV_TOL = 1e-10
PSD_TOL = 1e-8
WITNESS_TOL = 1e-8


@dataclass(frozen=True)
class VoiculescuBound:
    """Norm-based upper bounds 2 n ||X||^2 (tracial) and 4 n ||X||^2.

    ``certified`` is True when every coordinate carried an upper norm
    estimate; otherwise the bounds use lower norm estimates and may
    undershoot the true bounds.  ``applicable`` picks the variant
    matching the state's traciality flag.
    """

    tracial_sq: float
    general_sq: float
    certified: bool
    tracial_applies: bool
    norm_estimates: tuple

    @property
    def applicable(self):
        return self.tracial_sq if self.tracial_applies else self.general_sq


def voiculescu_bound(phi, norm_order=None):
    """Upper bounds on C_opt from operator-norm estimates.

    ``norm_order`` is the even moment order used for the lower norm
    estimates (default: largest even order within budget, capped at 12).
    """
    if norm_order is None:
        norm_order = min(phi.max_order - phi.max_order % 2, 12)
    estimates = tuple(
        operator_norm_estimate(phi, i, norm_order)
        for i in range(1, phi.nvars + 1)
    )
    certified = all(e.upper is not None for e in estimates)
    norm = max(e.best() for e in estimates)
    n = phi.nvars
    return VoiculescuBound(
        tracial_sq=2.0 * n * norm * norm,
        general_sq=4.0 * n * norm * norm,
        certified=certified,
        tracial_applies=phi.tracial,
        norm_estimates=estimates,
    )


@dataclass(frozen=True)
class PoincareEstimate:
    degree: int
    c_lower: float
    null_dim: int
    infinite_ratio_witnesses: int
    voiculescu: VoiculescuBound


def poincare_lower_bound(phi, degree, pinv_tol=PINV_TOL, psd_tol=PSD_TOL,
                         norm_order=None):
    """Largest generalized Rayleigh quotient over degree <= d polynomials.

    Assembles S and E over the complex span of nonconstant monomials,
    verifies both are Hermitian PSD within tolerance, projects out E's
    null space with a relative eigenvalue cutoff and solves the reduced
    Hermitian eigenproblem.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    phi.check_order(2 * degree)
    words = words_up_to(phi.nvars, degree, min_len=1)

    s_mat = covariance_gram(phi, words)
    e_mat = dirichlet_gram(phi, words)
    s_mat = _require_hermitian(s_mat, "covariance form")
    e_mat = _require_hermitian(e_mat, "Dirichlet form")

    s_eigs = np.linalg.eigvalsh(s_mat)
    s_scale = max(abs(s_eigs).max(initial=0.0), 1.0)
    if s_eigs.min(initial=0.0) < -psd_tol * s_scale:
        raise InvalidStateError(
            f"covariance form indefinite: eigenvalue {s_eigs.min():.3e}"
        )

    e_eigs, e_vecs = np.linalg.eigh(e_mat)
    e_scale = max(e_eigs.max(initial=0.0), 0.0)
    if e_eigs.min(initial=0.0) < -psd_tol * max(e_scale, 1.0):
        raise InvalidStateError(
            f"Dirichlet form indefinite: eigenvalue {e_eigs.min():.3e}"
        )

    keep = e_eigs > pinv_tol * max(e_scale, 1e-300)
    null_dim = int((~keep).sum())

    witnesses = 0
    if null_dim:
        null_vecs = e_vecs[:, ~keep]
        s_on_null = np.einsum(
            "ia,ij,jb->ab", null_vecs.conj(), s_mat, null_vecs
        )
        witnesses = int(
            (np.diag(s_on_null).real > WITNESS_TOL).sum()
        )

    if keep.any():
        w = e_vecs[:, keep] / np.sqrt(e_eigs[keep])
        reduced = w.conj().T @ s_mat @ w
        reduced = (reduced + reduced.conj().T) / 2
        c_lower = float(np.linalg.eigvalsh(reduced).max())
        c_lower = max(c_lower, 0.0)
    else:
        c_lower = 0.0

    return PoincareEstimate(
        degree=degree,
        c_lower=c_lower,
        null_dim=null_dim,
        infinite_ratio_witnesses=witnesses,
        voiculescu=voiculescu_bound(phi, norm_order=norm_order),
    )


def _require_hermitian(mat, what, tol=1e-8):
    scale = max(np.abs(mat).max(initial=0.0), 1.0)
    if np.abs(mat - mat.conj().T).max(initial=0.0) > tol * scale:
        raise InvalidStateError(f"{what} is not Hermitian (invalid state)")
    return (mat + mat.conj().T) / 2


@dataclass(frozen=True)
class BianeGapReport:
    """No-contradiction check of C_opt >= 1 + sigma^2 / n.

    ``implied_c_lower`` is the computable 1 + sigma_d^2 / n;
    ``margin`` is the gap between the applicable norm-based upper bound
    and it.  ``consistent`` means the upper bound exceeds the implied
    lower bound within tolerance.
    """

    degree: int
    c_lower: float
    sigma_sq_lower: float
    implied_c_lower: float
    voiculescu_upper: float
    certified_upper: bool
    margin: float
    consistent: bool


def biane_gap_check(phi, degree, tol=1e-6, hypothesis_tol=1e-8):
    """Check the discrepancy-reinforced lower bound against upper bounds.

    Requires a centered state with sum_i phi(x_i^2) = n.
    """
    from .algebra import quadratic_potential
    from .stein import SteinProblem, minimal_kernel

    n = phi.nvars
    means, second = coordinate_moments(phi)
    for i, mean in enumerate(means, 1):
        if abs(mean) > hypothesis_tol:
            raise InadmissibleProblemError(
                f"state is not centered: phi(x_{i}) = {mean}"
            )
    total_var = sum(second[i][i].real for i in range(n))
    if abs(total_var - n) > hypothesis_tol:
        raise InadmissibleProblemError(
            f"sum of variances is {total_var}, expected n = {n}"
        )

    est = poincare_lower_bound(phi, degree)
    prob = SteinProblem(phi, quadratic_potential(n))
    mk = minimal_kernel(prob, degree)
    implied = 1.0 + mk.sigma_sq / n
    upper = est.voiculescu.applicable
    margin = upper - implied
    return BianeGapReport(
        degree=degree,
        c_lower=est.c_lower,
        sigma_sq_lower=mk.sigma_sq,
        implied_c_lower=implied,
        voiculescu_upper=upper,
        certified_upper=est.voiculescu.certified,
        margin=margin,
        consistent=margin >= -tol,
    )
