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
    discrepancy_bounds,
    minimal_kernel,
    moment_table_from_matrices,
    poincare_lower_bound,
    quadratic_potential,
    semicircular,
    states,
    validate_state,
    voiculescu_bound,
)
from freestein.partitions import catalan
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


def test_oversized_degree_is_refused_before_the_moment_matrix(monkeypatch):
    from freestein import poincare

    def refuse(*args):
        raise AssertionError("a moment matrix was built")

    # the words of degree <= 14 in 2 variables would take 17 GB per form
    monkeypatch.setattr(poincare, "moment_matrix", refuse)
    monkeypatch.setattr(states, "moment_matrix", refuse)
    with pytest.raises(BudgetExceededError) as info:
        poincare_lower_bound(MomentTable(2, 40, {}, tracial=True), 14)
    assert (info.value.needed, info.value.available) == (
        16 * 32766 ** 2, states.MAX_FORM_BYTES)


def test_moment_matrix_passes_states_at_the_float_floor():
    # its moment matrix over 1, t, ..., t^20 has relative pivots down to
    # 3e-14, two of them relations
    assert validate_state(_free_poisson_table(40)) == []
    # The trace state of one 16 x 16 Hermitian matrix: its Hankel over
    # 1, t, ..., t^20 has rank 16, and the pivots past the rank read the
    # float floor on either side of 0, at seed 4 down to -6.7e-14 of the
    # diagonal, which is a relation.  Their relations' Schur columns stay
    # below 1e-25 of delta_k delta_j, far inside PSD_TOL
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        table = moment_table_from_matrices([(a + a.conj().T) / 8], 40)
        assert validate_state(table) == [], seed
    # phi(t^2) = phi(t)^2 - 1e-12 leaves the pivot of t at -1e-10 of its
    # diagonal, in the float floor; -1e-9 leaves it at -1e-7, past
    # PSD_TOL = 1e-8
    floor = MomentTable(1, 2, {(1,): 0.1, (1, 1): 0.01 - 1e-12})
    assert validate_state(floor) == []
    below = MomentTable(1, 2, {(1,): 0.1, (1, 1): 0.01 - 1e-9})
    assert "at word (1,)" in validate_state(below)[0]


def test_covariance_is_read_from_the_moment_matrix(monkeypatch):
    # S[a, b] = phi(w_b rev w_a) - phi(w_b) conj phi(w_a), with no gather
    # once the state has its moment matrix
    phi = centered_free_poisson(2, 8)
    assert validate_state(phi) == []

    def refuse(*args):
        raise AssertionError("the covariance gathered its own moments")

    monkeypatch.setattr(states, "pairing_gather", refuse)
    words = words_up_to(2, 4, min_len=1)
    want = np.array([[phi.moment(b + a[::-1])
                      - phi.moment(b) * phi.moment(a).conjugate()
                      for b in words] for a in words])
    assert np.abs(states.covariance_gram(phi, words) - want).max() < 1e-12
    # the leading block serves a shorter basis
    assert np.array_equal(states.covariance_gram(phi, words[:6]),
                          states.covariance_gram(phi, words)[:6, :6])


def test_unvalidated_state_reads_its_moment_matrix_to_the_degree():
    # a bound at degree 2 gathers H over the 7 words of length <= 2, not
    # the 127 of length <= 6 that validation factors
    phi = centered_free_poisson(2, 12)
    poincare_lower_bound(phi, 2)
    assert phi._moment_matrix.shape == (7, 7)
    assert validate_state(phi) == []
    assert phi._moment_matrix.shape == (127, 127)
    assert states.moment_matrix(phi, 2).shape == (7, 7)


def test_indefinite_dirichlet_form_raises():
    # phi(t^2) = -1 gives t^2 the Dirichlet energy 2 phi(t^2) < 0
    table = MomentTable(1, 4, {(1, 1): -1.0}, tracial=True)
    with pytest.raises(InvalidStateError, match="indefinite"):
        poincare_lower_bound(table, 2)


class _Unchecked(states.MomentFunctional):
    """Word values with 0 elsewhere, through the base class's batches:
    a functional built outside ``states``, which no table or spec check
    sees, so only the Hermitian guards of the forms stand in its way."""

    def __init__(self, nvars, max_order, values):
        super().__init__(nvars, max_order, tracial=False)
        self.values = values

    def moment(self, word):
        self._check_word(tuple(word))
        return complex(self.values.get(tuple(word), 0))


def _semicircle_entries(max_order):
    return {(1,) * k: catalan(k // 2) * (k % 2 == 0)
            for k in range(max_order + 1)}


def test_non_hermitian_dirichlet_gather_raises():
    # semicircle moments to order 8 with phi(t^5) = 0.3i: the table is
    # refused when built; unchecked, the Dirichlet gather over the words
    # of degree <= 4 reads t^5 and is non-Hermitian by 1.2 off its diagonal
    entries = _semicircle_entries(8)
    entries[(1,) * 5] = 0.3j
    with pytest.raises(InvalidStateError, match="Hermitian symmetry fails"):
        MomentTable(1, 8, entries)
    phi = _Unchecked(1, 8, entries)
    assert validate_state(phi) == []
    prob = SteinProblem(phi, quadratic_potential(1))
    with pytest.raises(InvalidStateError, match="Dirichlet form"):
        minimal_kernel(prob, 4)
    with pytest.raises(InvalidStateError, match="Dirichlet form"):
        discrepancy_bounds(prob, 4, 1.0)


def test_non_hermitian_covariance_raises():
    # phi(t^3) = 0.3i: the Dirichlet form at degree 2 reads words of
    # length <= 2 and is Hermitian, the covariance of t and t^2 reads t^3
    entries = _semicircle_entries(4)
    entries[(1,) * 3] = 0.3j
    with pytest.raises(InvalidStateError, match="covariance form"):
        poincare_lower_bound(_Unchecked(1, 4, entries), 2)


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


@settings(max_examples=40)
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
