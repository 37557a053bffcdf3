"""Poincare constant estimates, Voiculescu bounds, the gap inequality."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import (
    BudgetExceededError,
    InadmissibleProblemError,
    InvalidStateError,
    MomentTable,
    SteinProblem,
    biane_gap_check,
    centered_free_poisson,
    minimal_kernel,
    moment_table_from_matrices,
    poincare_lower_bound,
    quadratic_potential,
    semicircular,
    voiculescu_bound,
)
from freestein.states import words_up_to

import bruteforce
from conftest import trace_state


def test_semicircular_constant_is_one():
    for n in (1, 2):
        sc = semicircular(n)
        for d in (1, 2, 3, 4):
            est = poincare_lower_bound(sc, d)
            assert est.c_lower == pytest.approx(1.0, abs=1e-6)
            assert est.infinite_ratio_witnesses == 0


def test_linear_degree_gives_covariance_eigenvalue(np_rng):
    # independent route: centered covariance assembled from the matrices
    phi, mats = trace_state(np_rng, 2, 6, 4)
    size = mats[0].shape[0]
    centered = [m - (np.trace(m) / size) * np.eye(size) for m in mats]
    cov = np.array(
        [
            [np.trace(cb @ ca) / size for cb in centered]
            for ca in centered
        ]
    )
    want = float(np.linalg.eigvalsh((cov + cov.conj().T) / 2).max())
    est = poincare_lower_bound(phi, 1)
    assert est.c_lower == pytest.approx(want, rel=1e-10)


def test_monotone_in_degree(np_rng):
    states = [semicircular(1), centered_free_poisson(1),
              trace_state(np_rng, 2, 5, 8)[0]]
    for phi in states:
        values = [poincare_lower_bound(phi, d).c_lower for d in (1, 2, 3, 4)]
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-8


def test_coordinate_achieves_variance():
    fp = centered_free_poisson(1)
    est = poincare_lower_bound(fp, 1)
    assert est.c_lower == pytest.approx(fp.moment((1, 1)).real, abs=1e-12)


def test_voiculescu_bounds():
    sc = semicircular(1)
    vb = voiculescu_bound(sc)
    assert vb.certified
    assert vb.tracial_applies
    assert vb.tracial_sq == pytest.approx(8.0)
    assert vb.general_sq == pytest.approx(16.0)

    sc2 = semicircular(2)
    vb2 = voiculescu_bound(sc2)
    assert vb2.tracial_sq == pytest.approx(16.0)

    # degenerate point mass at 0
    dead = MomentTable(1, 4, {}, tracial=True)
    vbd = voiculescu_bound(dead, norm_order=4)
    assert vbd.tracial_sq == pytest.approx(0.0)
    est = poincare_lower_bound(dead, 2)
    assert est.c_lower == pytest.approx(0.0)


def test_uncertified_without_norm_hints():
    from freestein import CumulantState

    phi = CumulantState(semicircular(1).spec)  # no norm hints attached
    vb = voiculescu_bound(phi, norm_order=4)
    assert not vb.certified
    assert vb.norm_estimates[0].upper is None
    assert vb.norm_estimates[0].lower == pytest.approx(2.0 ** 0.25, rel=1e-12)


def test_c_d_below_certified_upper(np_rng):
    # matrix trace states carry exact spectral norms
    for _ in range(5):
        phi, _ = trace_state(np_rng, 2, 6, 8)
        est = poincare_lower_bound(phi, 3)
        assert est.voiculescu.certified
        assert est.c_lower <= est.voiculescu.applicable + 1e-6


def test_infinite_ratio_witness_flagged():
    # fake table: no variance in t, but positive variance in t^2 with a
    # vanishing Dirichlet entry; impossible for a genuine bounded state
    table = MomentTable(1, 4, {(1, 1, 1, 1): 1.0}, tracial=True)
    est = poincare_lower_bound(table, 2)
    assert est.infinite_ratio_witnesses >= 1


def test_biane_gap_semicircular():
    sc = semicircular(1)
    rep = biane_gap_check(sc, 3)
    assert rep.sigma_sq_lower == pytest.approx(0.0, abs=1e-8)
    assert rep.implied_c_lower == pytest.approx(1.0, abs=1e-8)
    assert rep.c_lower == pytest.approx(1.0, abs=1e-6)
    assert rep.consistent
    assert rep.certified_upper


def test_biane_gap_free_poisson():
    fp = centered_free_poisson(1)
    for d in (1, 2, 3, 4):
        rep = biane_gap_check(fp, d)
        assert rep.consistent
        assert rep.voiculescu_upper == pytest.approx(18.0)
        assert rep.margin > 0
        assert rep.implied_c_lower <= rep.voiculescu_upper + 1e-6


def test_biane_gap_hypotheses_enforced():
    # scaled coordinate: variance 4 violates sum phi(x_i^2) = n
    from freestein import CumulantSpec, CumulantState

    scaled = CumulantState(CumulantSpec(1, {(1, 1): 4.0}))
    with pytest.raises(InadmissibleProblemError):
        biane_gap_check(scaled, 2)


# ---------------------------------------------------------------------------
# the degree sweep of the graded Cholesky


def _free_poisson_table(max_order):
    """Exact integer moments of the centered free Poisson law, the law of
    g^2 - 1 for a standard semicircular g: sum_j (-1)^(m-j) C(m, j) Cat_j."""
    def moment(m):
        return sum((-1) ** (m - j) * math.comb(m, j)
                   * (math.comb(2 * j, j) // (j + 1)) for j in range(m + 1))
    entries = {(1,) * m: float(moment(m)) for m in range(1, max_order + 1)}
    return MomentTable(1, max_order, entries, tracial=True, norm_upper=(3.0,))


def test_free_poisson_sweep_holds_to_degree_18():
    # sigma_d^2 = 1/2 from d = 2 on, and C_d converges to 1.7903130286;
    # an eigenvalue cutoff of the monomial Gram lost both from d ~ 11
    table = _free_poisson_table(36)
    prob = SteinProblem(table, quadratic_potential(1))
    c_lower = {}
    for d in range(1, 19):
        mk = minimal_kernel(prob, d)
        est = poincare_lower_bound(table, d)
        if d >= 2:
            assert abs(mk.sigma_sq - 0.5) <= 1e-12, d
        assert (est.null_dim, est.infinite_ratio_witnesses) == (0, 0)
        assert mk.null_dim == 1  # the constant word only
        c_lower[d] = est.c_lower
    for d in range(8, 19):
        assert abs(c_lower[d] - 1.7903130286) <= 1e-9, d
        if d > 8:
            # interlacing, up to the rounding of the eigensolve
            assert c_lower[d] >= c_lower[d - 1] - 1e-14, d
    with pytest.raises(BudgetExceededError):
        minimal_kernel(prob, 20)
    with pytest.raises(BudgetExceededError):
        poincare_lower_bound(table, 20)


def test_negative_pivot_raises_budget_error():
    # kept as a pivot, the float d = 19 direction leaves the d = 20 pivot
    # at -2.4e-13 of its diagonal: double precision has run out
    table = _free_poisson_table(40)
    with pytest.raises(BudgetExceededError, match="degree 20"):
        poincare_lower_bound(table, 20, pinv_tol=1e-14)


def test_indefinite_dirichlet_form_raises():
    # phi(t^2) = -1 gives t^2 the Dirichlet energy 2 phi(t^2) < 0
    table = MomentTable(1, 4, {(1, 1): -1.0}, tracial=True)
    with pytest.raises(InvalidStateError, match="indefinite"):
        poincare_lower_bound(table, 2)


def _traceless_hermitian(draw, size):
    """N X - tr(X) I for an N x N Hermitian X with small Gaussian-integer
    entries: still integer, Hermitian and traceless."""
    entry = st.integers(-2, 2)
    mat = [[0j] * size for _ in range(size)]
    for i in range(size):
        mat[i][i] = complex(draw(entry))
        for j in range(i + 1, size):
            mat[i][j] = complex(draw(entry), draw(entry))
            mat[j][i] = mat[i][j].conjugate()
    trace = sum(mat[i][i] for i in range(size))
    return [[size * mat[i][j] - (trace if i == j else 0)
             for j in range(size)] for i in range(size)]


@st.composite
def integer_trace_states(draw):
    nvars = draw(st.integers(1, 2))
    size = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 6 if nvars == 1 else 4))
    return [_traceless_hermitian(draw, size) for _ in range(nvars)], degree


@settings(max_examples=40, deadline=None, database=None)
@given(integer_trace_states())
def test_relations_match_exact_rank(case):
    mats, degree = case
    n = len(mats)
    phi = moment_table_from_matrices([np.array(m) for m in mats], 2 * degree)
    prob = SteinProblem(phi, quadratic_potential(n))
    moments = bruteforce.exact_trace_moments(mats, 2 * degree)
    sigma_sq, c_lower = [], []
    for d in range(1, degree + 1):
        words = words_up_to(n, d, min_len=1)
        rank = bruteforce.exact_rank(bruteforce.exact_dirichlet_gram(moments, words))
        est = poincare_lower_bound(phi, d)
        mk = minimal_kernel(prob, d)
        assert est.null_dim == len(words) - rank
        assert est.infinite_ratio_witnesses == 0
        assert mk.null_dim == n * (len(words) + 1 - rank)
        sigma_sq.append(mk.sigma_sq)
        c_lower.append(est.c_lower)
    for values in (sigma_sq, c_lower):
        for lo, hi in zip(values, values[1:]):
            assert hi >= lo - 1e-12 * max(1.0, abs(lo))
