"""Free Poincare constants on truncated polynomial spaces.

The optimal constant C_opt(X) is the least C with

    ||P(X) - phi(P(X))||_2^2  <=  C sum_i ||(d_i P)(X)||_2^2

over all polynomials P.  On the span of nonconstant monomials of degree
at most d this becomes a generalized Rayleigh quotient of two Hermitian
PSD forms, the centered covariance S, read from the state's moment
matrix (``states.covariance_gram``), and the Dirichlet energy E.  Its
largest value C_d off E's null space is a lower bound on C_opt that is
nondecreasing in d; C_1 is the largest eigenvalue of the covariance.

``TruncatedForms`` factors E over the nonconstant words of degree <= D
in graded order, once, by ``states.graded_cholesky``, which also checks
a state's moment matrix; its relations count in ``null_dim``.  With T
the kept rows and columns of L, every d <= D reads the leading block
T_d: C_d is the top eigenvalue of T_d^-1 S T_d^-H, nondecreasing by
Cauchy interlacing, and ``stein.minimal_kernel`` reads the same T_d^-1.
A state caches its forms per ``pinv_tol`` at the largest degree asked,
so a Poincare bound and a minimal kernel share one factorization.

A relation with positive variance would force C_opt = inf, while
bounded states have C_opt <= 4 n ||X||^2 (2 n ||X||^2 if tracial), so
such directions are reported as witnesses of an invalid moment table
rather than silently dropped.

``biane_gap_check`` combines both solvers: for centered X with
sum_i phi(x_i^2) = n the optimal constant dominates
1 + sigma^2 / n, where sigma is the Stein discrepancy for the quadratic
potential, so any valid upper bound on C_opt must exceed the computable
1 + sigma_d^2 / n.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InadmissibleProblemError
from .states import (
    MAX_FORM_BYTES,
    PINV_TOL,
    coordinate_moments,
    covariance_gram,
    dirichlet_gram,
    form_bytes,
    graded_cholesky,
    moment_matrix,
    operator_norm_estimate,
    word_count,
    words_up_to,
)

WITNESS_TOL = 1e-8
GAP_TOL = 1e-6
HYPOTHESIS_TOL = 1e-8


def check_form_budget(nvars, degree):
    """Raise ``BudgetExceededError`` when forms over the words of degree
    <= ``degree`` in ``nvars`` variables pass ``MAX_FORM_BYTES``."""
    size = form_bytes(nvars, degree)
    if size > MAX_FORM_BYTES:
        raise BudgetExceededError(
            f"forms over the words of degree <= {degree} in {nvars} "
            f"variables take {size} bytes each, over {MAX_FORM_BYTES}",
            needed=size, available=MAX_FORM_BYTES)


class TruncatedForms:
    """E over the nonconstant words of degree <= ``degree``, factored as
    L (``factor``) with every s_k in ``schur``, the non-relation pivots
    in ``kept`` and T^-1 (``inverse``, by forward substitution).  Forms
    over more than ``MAX_FORM_BYTES`` bytes raise ``BudgetExceededError``
    before any word is enumerated (``check_form_budget``)."""

    def __init__(self, phi, degree, pinv_tol=PINV_TOL):
        self.nvars, self.degree = phi.nvars, degree
        check_form_budget(phi.nvars, degree)
        self.words = words_up_to(phi.nvars, degree, min_len=1)
        gram = dirichlet_gram(phi, self.words)
        self.factor, self.schur, self.kept = graded_cholesky(
            gram, self.words, "Dirichlet form", pinv_tol)
        t = self.factor[np.ix_(self.kept, self.kept)]
        self.inverse = np.zeros_like(t)
        for i in range(len(t)):
            self.inverse[i, i] = 1.0
            self.inverse[i] -= t[i, :i] @ self.inverse[:i]
            self.inverse[i] /= t[i, i]

    @classmethod
    def of(cls, phi, degree, pinv_tol=PINV_TOL):
        """The forms ``phi`` caches for this ``pinv_tol``, rebuilt only
        when ``degree`` exceeds every degree asked so far."""
        cache = vars(phi).setdefault("_truncated_forms", {})
        forms = cache.get(pinv_tol)
        if forms is None or forms.degree < degree:
            forms = cache[pinv_tol] = cls(phi, degree, pinv_tol)
        return forms

    def block(self, degree):
        """(m, kept, T_d^-1) of the m nonconstant words of degree <= d."""
        m = word_count(self.nvars, degree)
        kept = self.kept[self.kept < m]
        return m, kept, self.inverse[:len(kept), :len(kept)]


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
    estimates = tuple(operator_norm_estimate(phi, i, norm_order)
                      for i in range(1, phi.nvars + 1))
    n, norm = phi.nvars, max(e.best() for e in estimates)
    return VoiculescuBound(
        tracial_sq=2.0 * n * norm * norm,
        general_sq=4.0 * n * norm * norm,
        certified=all(e.upper is not None for e in estimates),
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


def poincare_lower_bound(phi, degree, pinv_tol=PINV_TOL, norm_order=None):
    """Largest generalized Rayleigh quotient over degree <= d polynomials.

    Relation j has the null vector n_j = e_j - T_d^-H l_j (l_j: row j of
    L at the kept pivots) of energy s_j, a witness when its variance
    exceeds ``WITNESS_TOL`` |n_j|^2 and |s_j| / ``WITNESS_TOL``: a ratio
    over 1e8, which a relation declared by a large ``pinv_tol`` misses.
    S is read from the state's moment matrix, which a state not yet
    validated gathers and checks here over the words of degree <= d,
    after the budget checks and before the Dirichlet form reads its
    leading block.
    """
    if degree < 1:
        raise ValueError("degree must be >= 1")
    phi.check_order(2 * degree)
    check_form_budget(phi.nvars, degree)
    moment_matrix(phi, degree)
    forms = TruncatedForms.of(phi, degree, pinv_tol)
    m, kept, inv = forms.block(degree)
    s_mat = covariance_gram(phi, forms.words[:m])

    relations = np.delete(np.arange(m), kept)
    null_vecs = np.zeros((m, len(relations)), dtype=complex)
    null_vecs[relations, np.arange(len(relations))] = 1.0
    null_vecs[kept] = -inv.conj().T @ forms.factor[np.ix_(relations, kept)].T.conj()
    variances = (null_vecs.conj() * (s_mat @ null_vecs)).sum(axis=0).real
    witnesses = int((
        (variances > WITNESS_TOL * (np.abs(null_vecs) ** 2).sum(axis=0))
        & (np.abs(forms.schur[relations]) <= WITNESS_TOL * variances)
    ).sum())

    reduced = inv @ s_mat[np.ix_(kept, kept)] @ inv.conj().T
    return PoincareEstimate(
        degree=degree,
        c_lower=max(float(np.linalg.eigvalsh(reduced).max(initial=0.0)), 0.0),
        null_dim=len(relations),
        infinite_ratio_witnesses=witnesses,
        voiculescu=voiculescu_bound(phi, norm_order=norm_order),
    )


@dataclass(frozen=True)
class BianeGapReport:
    """No-contradiction check of C_opt >= 1 + sigma^2 / n.

    ``implied_c_lower`` is the computable 1 + sigma_d^2 / n;
    ``margin`` is the gap between the applicable norm-based upper bound
    and it.  ``consistent`` means the upper bound exceeds the implied
    lower bound within ``GAP_TOL``.
    """

    degree: int
    c_lower: float
    sigma_sq_lower: float
    implied_c_lower: float
    voiculescu_upper: float
    certified_upper: bool
    margin: float
    consistent: bool


def biane_gap_check(phi, degree):
    """Check the discrepancy-reinforced lower bound against upper bounds.

    Requires a centered state with sum_i phi(x_i^2) = n, within
    ``HYPOTHESIS_TOL``.
    """
    from .algebra import quadratic_potential
    from .stein import SteinProblem, minimal_kernel

    n = phi.nvars
    means, second = coordinate_moments(phi)
    for i, mean in enumerate(means, 1):
        if abs(mean) > HYPOTHESIS_TOL:
            raise InadmissibleProblemError(
                f"state is not centered: phi(x_{i}) = {mean}")
    total_var = sum(second[i][i].real for i in range(n))
    if abs(total_var - n) > HYPOTHESIS_TOL:
        raise InadmissibleProblemError(
            f"sum of variances is {total_var}, expected n = {n}")

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
        consistent=margin >= -GAP_TOL,
    )
