"""Stein kernels of polynomial potentials and their distance to the identity.

A kernel for the state phi and potential v is a matrix A over the
tensor square with

    <Dv(X) - phi(Dv(X)), P(X)>  =  <A, (JP)(X)>     for every tuple P,

where Dv is the cyclic gradient and JP the Jacobian.  The explicit
kernel ``algebra.explicit_kernel(v)`` satisfies this identity for every
tracial state; for a non-tracial phi the residual equals the
commutator defect 1/2 sum_i [phi(g_i P_i*) - phi(P_i* g_i)] with
g = Dv(X), which does not vanish in general.  ``stein_residual``
evaluates the defect of any candidate matrix on a test tuple.

``minimal_kernel`` approaches the kernel of least distance to the
identity block (1 (x) 1) I_n by projecting D = A0 - I onto the span of
Jacobians of monomial tuples of degree <= d.  With r_P = <D, JP> and
T the kept block of the Cholesky factor of the Gram G_{PQ} = <JQ, JP>
(``poincare.TruncatedForms``), the coefficients are c = T^-H T^-1 r and
sigma_d^2 = |T^-1 r|^2 is the squared norm of the projection: a lower
bound on the squared Stein discrepancy, nondecreasing in d as a sum
over a growing leading block.  Since any two kernels
differ by an element orthogonal to the Jacobian span, the minimal
kernel estimate is I + sum_P c_P (JP)(X) = A0 - (unprojected part), and
A0 minus the estimate stays orthogonal to every basis Jacobian.

Jacobians of tuples concentrated in different coordinate slots are
orthogonal, and the slot-s block of G does not depend on s, so the
Gram is assembled once over words and reused for every slot.  G, r,
the residual's two sides and the generic distance all come from the one
pairing gather of ``states``: a term c (p (x) q) of D_sk against the
term w[:k] (x) w[k+1:] of d_k w contributes
c phi(p rev(w[:k])) phi(rev(w[k+1:]) q) to r_s.  Only the represented
kernel, ``MinimalKernelResult.kernel``, is assembled exactly, on first
access, since it is exact output.  The Jacobian is linear, so that
kernel is I + J(P) for the one tuple P_s = sum_w c_{s,w} w, built by
one ``algebra.jacobian`` call.  A word is fixed by its prefix, letter
and suffix, so no two words share a term of d_k P_s.  The exact
sharp-product assembly of G and r, and the per-monomial assembly of
the kernel, stay in the tests as oracles.

``explicit_kernel_distance_sq`` evaluates ||A0 - I||^2 twice for the
quadratic potential on centered states -- generically through the
matrix pairing and through the closed-form moment expansion

    1/4 sum_ij [ 2 phi(x_i x_j^2 x_i) + 2 phi(x_i x_j)^2
                 + 2 phi(x_j x_i)^2 + 2 phi(x_i^2) phi(x_j^2) ]
    - 2 sum_i phi(x_i^2) + n

-- and insists they agree.  For centered states with identity
covariance the expansion is bounded by (n^2 + n^2 m4)/2 with
m4 = max_i phi(x_i^4), with equality for every unit-variance single
coordinate; the smaller constant (n^2 + n^2 m4 - n)/2 is reported
alongside for comparison but can undershoot the true distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    KernelMatrix,
    NcPoly,
    cyclic_gradient,
    explicit_kernel,
    jacobian,
    partial_derivative,  # unused; the benchmark's layer tracer wraps it here
    quadratic_potential,
)
from .errors import (
    ConsistencyError,
    InadmissibleProblemError,
    InvalidStateError,
)
from .poincare import PINV_TOL, TruncatedForms
from .states import (
    coordinate_moments,
    dirichlet_gram,  # re-exported; the benchmark's layer tracer wraps it here
    inner_matrix,
    inner_tuple,
    jacobian_terms,
    max_fourth_moment,
    moment_of_poly,
    pairing_gather,
    tensor_moment,  # re-exported; the benchmark's layer tracer wraps it here
    tensor_terms,
    word_codes,
    words_up_to,
)

CENTERING_TOL = 1e-9
AGREE_TOL = 1e-9
BOUND_SLACK = 1e-8


# a defect depends on v alone, so the problems of one potential (the copy
# counts of a CLT rate table, the ops of one run) share it
@lru_cache(maxsize=16)
def _kernel_defect(v):
    return explicit_kernel(v) - KernelMatrix.identity(v.nvars)


class SteinProblem:
    """A state phi together with a potential v.

    Stores the cyclic gradient, its componentwise means
    c_i = phi((D_i v)(X)) and the centering defect ||c||_2.  The problem
    is admissible when every |c_i| is below tolerance; only admissible
    problems define a kernel in the strict sense, but the centered
    identity holds regardless.
    """

    def __init__(self, phi, v, centering_tol=CENTERING_TOL):
        if phi.nvars != v.nvars:
            raise ValueError("state/potential nvars mismatch")
        self.phi = phi
        self.v = v
        self.n = v.nvars
        self.gradient = cyclic_gradient(v)
        self.gradient_means = tuple(
            moment_of_poly(phi, g) for g in self.gradient
        )
        self.centering_tol = centering_tol
        self.centering_defect = float(
            np.sqrt(sum(abs(c) ** 2 for c in self.gradient_means))
        )

    @cached_property
    def kernel_defect(self):
        """A0 - I for the explicit kernel A0 of v, read by both
        ``minimal_kernel`` and ``explicit_kernel_distance_sq``."""
        return _kernel_defect(self.v)

    @property
    def admissible(self):
        return all(abs(c) <= self.centering_tol for c in self.gradient_means)

    def require_admissible(self):
        if not self.admissible:
            raise InadmissibleProblemError(
                f"centering defect {self.centering_defect:.3e} exceeds "
                f"{self.centering_tol:.1e}: phi(Dv(X)) != 0"
            )


def stein_residual(prob, a, ps):
    """Defect of the centered Stein identity on one test tuple.

    Returns <Dv(X) - phi(Dv(X)), P(X)> - <A, (JP)(X)>; zero (to
    rounding) iff the candidate matrix A satisfies the identity on P.
    Constant tuples give exactly zero because both sides vanish after
    centering.
    """
    phi = prob.phi
    if len(ps) != prob.n:
        raise ValueError("test tuple length must equal nvars")
    if a.size != prob.n or a.nvars != prob.n:
        raise ValueError("kernel matrix shape mismatch")
    centered = [g - NcPoly(prob.n, {(): mean})
                for g, mean in zip(prob.gradient, prob.gradient_means)]
    return inner_tuple(phi, centered, ps) - inner_matrix(phi, a, jacobian(ps))


@dataclass(frozen=True)
class ExplicitKernelDistance:
    """||A0 - I||^2 for the explicit kernel, with fourth-moment constants.

    ``closed_form_sq`` is None unless the quadratic/centered fast path
    applies.  ``m4_bound_sq`` is (n^2 + n^2 m4 - n)/2 and
    ``m4_bound_sharp_sq`` is (n^2 + n^2 m4)/2; only the latter bounds
    ``distance_sq`` for isotropic states.
    """

    distance_sq: float
    closed_form_sq: float | None
    m4: float
    m4_bound_sq: float
    m4_bound_sharp_sq: float


def _is_centered(means, tol=1e-9):
    return all(abs(m) <= tol for m in means)


def explicit_kernel_distance_sq(prob):
    """Distance squared from the explicit kernel to the identity block,
    through the matrix pairing.  For the quadratic potential on a
    centered state the closed-form expansion is evaluated too, and a
    drift between the two beyond ``AGREE_TOL`` raises ConsistencyError.
    """
    phi, n = prob.phi, prob.n
    closed = None
    if (prob.v == quadratic_potential(n)
            and _is_centered(coordinate_moments(phi)[0])):
        closed = _closed_form_distance_sq(phi, n)

    diff = prob.kernel_defect
    generic_c = inner_matrix(phi, diff, diff)
    if abs(generic_c.imag) > 1e-8 * max(1.0, abs(generic_c.real)):
        raise InvalidStateError(
            f"distance pairing is not real: {generic_c} (invalid state)")
    generic = generic_c.real
    if (closed is not None
            and abs(closed - generic) > AGREE_TOL * max(1.0, abs(generic))):
        raise ConsistencyError(
            f"closed-form distance {closed!r} and pairing distance "
            f"{generic!r} disagree beyond {AGREE_TOL:.1e}")

    m4 = max_fourth_moment(phi)
    return ExplicitKernelDistance(
        distance_sq=generic,
        closed_form_sq=closed,
        m4=m4,
        m4_bound_sq=(n * n + n * n * m4 - n) / 2.0,
        m4_bound_sharp_sq=(n * n + n * n * m4) / 2.0,
    )


def _closed_form_distance_sq(phi, n):
    phi.check_order(4)
    z = coordinate_moments(phi)[1]
    t = phi.word_moments([(i, j, j, i) for i in range(1, n + 1)
                          for j in range(1, n + 1)]).tolist()
    total = 0j
    for i in range(n):
        for j in range(n):
            total += (2 * t[i * n + j] + 2 * z[i][j] * z[i][j]
                      + 2 * z[j][i] * z[j][i] + 2 * (z[i][i] * z[j][j]))
    value = total / 4.0 - 2.0 * sum(z[i][i] for i in range(n)) + n
    return value.real


@dataclass(frozen=True)
class TruncationBasis:
    """Monomial tuples e_{w, s}: word w of length <= degree placed in
    coordinate slot s, ordered by (graded-lex word, slot)."""

    nvars: int
    degree: int
    elements: tuple  # of (slot, word) pairs, slots 1-based

    @classmethod
    def build(cls, nvars, degree):
        words = words_up_to(nvars, degree)
        elements = tuple(
            (slot, w) for w in words for slot in range(1, nvars + 1)
        )
        return cls(nvars=nvars, degree=degree, elements=elements)

    @property
    def words(self):
        return words_up_to(self.nvars, self.degree)

    def __len__(self):
        return len(self.elements)


@dataclass(frozen=True)
class MinimalKernelResult:
    """Projection of A0 - I onto the degree-d Jacobian span.

    ``sigma_sq`` is the squared projection norm (lower bound on the
    squared discrepancy), ``coefficients`` the least-squares solution
    over ``basis.elements``, ``kernel`` the represented minimal kernel
    I + sum c_P (JP)(X), assembled exactly on first access.
    """

    basis: TruncationBasis
    coefficients: np.ndarray
    sigma_sq: float
    gram_rank: int
    null_dim: int

    @cached_property
    def kernel(self):
        """I + J(P) with P_s = sum_w c_{s,w} w, the slot-s coefficients."""
        n = self.basis.nvars
        words = self.basis.words
        ps = tuple(NcPoly(n, dict(zip(words, self.coefficients[slot::n].tolist())))
                   for slot in range(n))
        return KernelMatrix.identity(n) + jacobian(ps)


def kernel_rhs(prob, words):
    """r[s, b] = <A0 - I, J e_{w_b, s}>: row s of the kernel defect
    A0 - I against the Jacobian row of w_b, entry (s, k) keyed by the
    letter k, one ``pairing_gather`` over the monomials ``words``."""
    n = prob.n
    diff_terms = tensor_terms([(s, k, q.terms)
                               for s, row in enumerate(prob.kernel_defect.rows)
                               for k, q in enumerate(row, 1)], n)
    return pairing_gather(prob.phi, diff_terms,
                          jacobian_terms(*word_codes(words, n), n),
                          (n, len(words)))


def minimal_kernel(prob, degree, pinv_tol=PINV_TOL):
    """Least-squares minimal Stein kernel over the truncated basis.

    Solves every slot with the state's ``poincare.TruncatedForms`` (slot
    blocks coincide).  The constant word and the relations of the pivot
    rule get coefficient 0 and count in ``null_dim``.
    """
    prob.require_admissible()
    phi, n = prob.phi, prob.n
    if degree < 0:
        raise ValueError("degree must be >= 0")

    basis = TruncationBasis.build(n, degree)
    deg_v = prob.v.degree()
    phi.check_order(max(2 * max(degree - 1, 0), deg_v + max(degree - 1, 0), 2))

    forms = TruncatedForms.of(phi, degree, pinv_tol)
    m, kept, inv = forms.block(degree)
    words = forms.words[:m]

    y = kernel_rhs(prob, words)[:, kept] @ inv.T
    # basis.elements order is (word-major, slot-minor); word 0 is constant
    coefficients = np.zeros((len(words) + 1, n), dtype=complex)
    coefficients[kept + 1] = inv.conj().T @ y.T
    return MinimalKernelResult(
        basis=basis,
        coefficients=coefficients.ravel(),
        sigma_sq=float((np.abs(y) ** 2).sum()),
        gram_rank=n * len(kept),
        null_dim=n * (len(words) + 1 - len(kept)),
    )


@dataclass(frozen=True)
class DiscrepancyReport:
    """Lower bound and the two upper bounds on the squared discrepancy.

    ``upper_poincare_sq = n + C ||Dv(X)||^2 - 2 Re<Dv(X), X>`` uses the
    supplied constant C; it is a certified upper bound only when C is a
    genuine upper bound on the optimal Poincare constant, which the
    caller indicates with ``c_is_upper``.  ``simplified_sq`` is
    n (C - 1), reported when v is quadratic and the state is centered
    with identity covariance.
    """

    degree: int
    sigma_lower_sq: float
    upper_explicit_sq: float
    upper_poincare_sq: float
    simplified_sq: float | None
    c_opt_used: float
    c_is_upper: bool
    gram_rank: int
    null_dim: int
    centering_defect: float


def discrepancy_bounds(prob, degree, c_opt, c_is_upper=False,
                       pinv_tol=PINV_TOL):
    """Combine the truncated lower bound with both upper bounds.

    ``pinv_tol`` is passed to ``minimal_kernel``.  Raises
    ConsistencyError when a certified upper bound falls below the lower
    bound beyond ``BOUND_SLACK`` (possible only for invalid states).
    """
    prob.require_admissible()
    phi, n = prob.phi, prob.n

    mk = minimal_kernel(prob, degree, pinv_tol=pinv_tol)
    dist = explicit_kernel_distance_sq(prob)

    grad_sq = inner_tuple(phi, prob.gradient, prob.gradient).real
    coords = tuple(NcPoly.gen(i, n) for i in range(1, n + 1))
    grad_x = inner_tuple(phi, prob.gradient, coords).real
    upper_poincare = n + c_opt * grad_sq - 2.0 * grad_x

    simplified = None
    if prob.v == quadratic_potential(n):
        means, second = coordinate_moments(phi)
        iso = all(abs(second[i][j] - (1.0 if i == j else 0.0)) <= 1e-8
                  for i in range(n) for j in range(n))
        if _is_centered(means) and iso:
            simplified = n * (c_opt - 1.0)

    if mk.sigma_sq > dist.distance_sq + BOUND_SLACK:
        raise ConsistencyError(
            f"projection lower bound {mk.sigma_sq} exceeds the explicit "
            f"kernel distance {dist.distance_sq}")
    if c_is_upper and mk.sigma_sq > upper_poincare + BOUND_SLACK:
        raise ConsistencyError(
            f"projection lower bound {mk.sigma_sq} exceeds the certified "
            f"Poincare-route bound {upper_poincare}")

    return DiscrepancyReport(
        degree=degree,
        sigma_lower_sq=mk.sigma_sq,
        upper_explicit_sq=dist.distance_sq,
        upper_poincare_sq=upper_poincare,
        simplified_sq=simplified,
        c_opt_used=c_opt,
        c_is_upper=c_is_upper,
        gram_rank=mk.gram_rank,
        null_dim=mk.null_dim,
        centering_defect=prob.centering_defect,
    )
