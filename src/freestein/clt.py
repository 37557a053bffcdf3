"""Free central limit experiments in cumulant space.

Summing k freely independent copies of a centered tuple and rescaling
by k^{-1/2} multiplies every free cumulant of order m by k^{1 - m/2}:
cumulants are additive under free convolution and homogeneous under
scaling.  A pure-covariance spec is therefore a fixed point, and any
centered identity-covariance spec flows to it.

``clt_rate_table`` tracks, for each copy count k, the maximum fourth
moment of the rescaled tuple and the truncated Stein discrepancy lower
bound sigma_d for the quadratic potential, and compares sigma_d against
C / sqrt(k) with the constant

    C = sqrt( n * min(C_up - 1, (n + n m4 - 1) / 2) ),

where m4 is the maximum fourth moment of the base tuple and C_up an
upper bound on its optimal Poincare constant when one is available
(norm-based; otherwise the fourth-moment branch alone is used).  The
fourth-moment branch is fully computable from moments, and the bound
check reported per row refers to it.

The fourth-moment branch squared, n (n + n m4 - 1)/2, is the quoted
constant (n^2 + n^2 m4 - n)/2.  The explicit-kernel route in ``stein``
only backs the larger (n^2 + n^2 m4)/2: for n = 1 the quoted constant
lies 1/2 below ||K - I||^2 = (1 + m4)/2, so it is not a bound on the
explicit-kernel distance, and whether it bounds the discrepancy itself
is not settled here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import quadratic_potential
from .errors import InadmissibleProblemError
# poincare_lower_bound is unused; the benchmark's layer tracer wraps it here
from .poincare import poincare_lower_bound, voiculescu_bound
from .states import CumulantState
from .stein import SteinProblem, minimal_kernel

BASE_TOL = 1e-9
BOUND_SLACK = 1e-6


def rescale_cumulants(base, k):
    """Cumulant spec of k^{-1/2} (X^(1) + ... + X^(k)) for free iid copies.

    kappa_Y(w) = k^{1 - |w|/2} kappa_X(w); order-2 cumulants are fixed.
    The spec shares the checked ``base``'s words, block code map and
    ``cyclic`` flag and scales its value array (``CumulantSpec._scaled``):
    one real positive factor per length keeps the values exactly
    Hermitian, and exactly cyclic when the base is, and rounding can
    make two distinct values equal, never two equal ones distinct.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return base
    return base._scaled(lambda m: float(k) ** (1.0 - m / 2.0))


def _max_m4(phi):
    """The largest phi(t_i^4), read in one batch."""
    n = phi.nvars
    return max(phi.word_moments([(i,) * 4 for i in range(1, n + 1)])
               .real.tolist())


@dataclass(frozen=True)
class CltExperiment:
    """Base state (centered, identity covariance), copy counts, degree."""

    base: CumulantState
    ks: tuple
    degree: int

    def __post_init__(self):
        if not isinstance(self.base, CumulantState):
            raise TypeError("base must be a CumulantState, not "
                            f"{type(self.base).__name__}")
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if not self.ks or any(k < 1 for k in self.ks):
            raise ValueError("copy counts must be positive")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        spec = self.base.spec
        for i in range(1, spec.nvars + 1):
            if abs(spec.value((i,))) > BASE_TOL:
                raise InadmissibleProblemError(
                    f"base spec is not centered: kappa({i}) != 0")
            for j in range(1, spec.nvars + 1):
                want = 1.0 if i == j else 0.0
                if abs(spec.value((i, j)) - want) > BASE_TOL:
                    raise InadmissibleProblemError(
                        "base spec covariance is not the identity: "
                        f"kappa({i},{j}) = {spec.value((i, j))}")


@dataclass(frozen=True)
class CltRow:
    k: int
    m4: float
    sigma_lower: float
    theorem_constant: float
    bound_over_sqrt_k: float
    ratio: float
    within_m4_bound: bool


def theorem_constant(base):
    """sqrt(n * min(C_up - 1, (n + n m4 - 1)/2)) from the base state.

    The state's ``norm_upper``, if any, gives per-coordinate operator-norm
    upper bounds for the Poincare branch, which takes the norm bound
    that applies to the base state (tracial or general).  The m4 branch
    squared is the quoted constant (n^2 + n^2 m4 - n)/2; the
    explicit-kernel distance only backs (n^2 + n^2 m4)/2, which is 1/2
    larger for n = 1 (see the module docstring).  Returns the constant,
    m4 and the m4 branch.
    """
    n = base.nvars
    m4 = _max_m4(base)
    branch_m4 = (n + n * m4 - 1) / 2.0
    branch_c = np.inf
    if base.norm_upper is not None:
        vb = voiculescu_bound(base, norm_order=4)
        if vb.certified:
            branch_c = vb.applicable - 1.0
    return float(np.sqrt(n * min(branch_c, branch_m4))), m4, branch_m4


def clt_rate_table(exp):
    """One row per copy count; see the module docstring for columns."""
    n = exp.base.nvars
    const, m4_base, branch_m4 = theorem_constant(exp.base)
    const_m4 = float(np.sqrt(n * branch_m4))
    potential = quadratic_potential(n)

    rows = []
    for k in exp.ks:
        state = (exp.base if k == 1
                 else CumulantState(rescale_cumulants(exp.base.spec, k)))
        m4_k = _max_m4(state)
        prob = SteinProblem(state, potential)
        mk = minimal_kernel(prob, exp.degree)
        sigma = float(np.sqrt(max(mk.sigma_sq, 0.0)))
        bound = const / np.sqrt(k)
        bound_m4 = const_m4 / np.sqrt(k)
        rows.append(
            CltRow(
                k=k,
                m4=m4_k,
                sigma_lower=sigma,
                theorem_constant=const,
                bound_over_sqrt_k=float(bound),
                ratio=float(sigma / bound) if bound > 0 else float("nan"),
                within_m4_bound=sigma <= bound_m4 + BOUND_SLACK,
            )
        )
    return rows


CSV_HEADER = "k,m4_Yk,sigma_d_lower,theorem_constant,bound_over_sqrt_k,ratio"


def rows_to_csv(rows):
    """CSV with 17-significant-digit floats, one row per copy count."""
    lines = [CSV_HEADER] + [
        ",".join([str(r.k)] + [format(x, ".17g") for x in (
            r.m4, r.sigma_lower, r.theorem_constant, r.bound_over_sqrt_k,
            r.ratio)])
        for r in rows]
    return "\n".join(lines) + "\n"
