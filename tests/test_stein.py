"""Stein identity, explicit-kernel distance, minimal kernels and bounds."""

import random
from fractions import Fraction

import numpy as np
import pytest

from freestein import (
    ConsistencyError,
    CumulantSpec,
    CumulantState,
    InadmissibleProblemError,
    KernelMatrix,
    NcPoly,
    SteinProblem,
    discrepancy_bounds,
    explicit_kernel,
    BudgetExceededError,
    explicit_kernel_distance_sq,
    inner_matrix,
    inner_tuple,
    jacobian,
    minimal_kernel,
    moment_table_from_matrices,
    quadratic_potential,
    semicircular,
    centered_free_poisson,
    stein_residual,
)
from freestein import serialize, stein
from freestein.stein import TruncationBasis
from freestein.states import dirichlet_gram, words_up_to

import bruteforce
from conftest import (
    rand_cumulant_state,
    rand_hermitian,
    rand_poly,
    rand_selfadjoint_poly,
    rand_tensor,
    trace_state,
)


def t(i, n):
    return NcPoly.gen(i, n)


# ---------------------------------------------------------------------------
# the Stein identity


def test_identity_kernel_for_semicircular(rng):
    # free integration by parts: the identity block is a kernel for the
    # quadratic potential at the semicircular state
    for n in (1, 2):
        sc = semicircular(n)
        prob = SteinProblem(sc, quadratic_potential(n))
        assert prob.admissible
        ident = KernelMatrix.identity(n)
        for _ in range(15):
            ps = tuple(rand_poly(rng, n, 5, terms=4) for _ in range(n))
            assert abs(stein_residual(prob, ident, ps)) < 1e-10


def test_constant_tuple_residual_exactly_zero():
    sc = semicircular(2)
    prob = SteinProblem(sc, quadratic_potential(2))
    consts = tuple(NcPoly.one(2).scale(3) for _ in range(2))
    assert stein_residual(prob, KernelMatrix.identity(2), consts) == 0


def test_explicit_kernel_identity_random_states(rng, np_rng):
    # residual vanishes for every tracial state, potential and test
    # tuple; exercises both the cumulant and the table backends
    # including states with nonzero centering defect
    cases = 0
    for n in (1, 2):
        states = [
            rand_cumulant_state(rng, n, 7, cyclic=True),
            trace_state(np_rng, n, 5, 7)[0],
        ]
        for phi in states:
            for _ in range(8):
                v = rand_selfadjoint_poly(rng, n, 4, terms=3)
                prob = SteinProblem(phi, v)
                a = explicit_kernel(v)
                ps = tuple(rand_poly(rng, n, 4, terms=3) for _ in range(n))
                assert abs(stein_residual(prob, a, ps)) < 1e-10
                cases += 1
    assert cases == 32


def test_nontracial_states_show_the_commutator_defect(np_rng):
    # the pairing identity needs traciality: for a density-matrix state
    # the residual equals 1/2 sum_i [phi(g_i P_i*) - phi(P_i* g_i)],
    # which vanishes iff the state is tracial on the products involved
    from freestein import MomentTable, moment_of_poly
    import random

    size, n = 5, 2
    g = np_rng.standard_normal((size, size)) + 1j * np_rng.standard_normal(
        (size, size)
    )
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    mats = [rand_hermitian(np_rng, size, norm=1.0) for _ in range(n)]

    def phi_word(w):
        acc = np.eye(size, dtype=complex)
        for letter in w:
            acc = acc @ mats[letter - 1]
        return complex(np.trace(rho @ acc))

    entries = {w: phi_word(w) for w in words_up_to(n, 8, min_len=1)}
    phi = MomentTable(n, 8, entries, tracial=False)

    rng = random.Random(17)
    saw_nonzero = False
    for _ in range(6):
        v = rand_selfadjoint_poly(rng, n, 3, terms=3)
        prob = SteinProblem(phi, v)
        a = explicit_kernel(v)
        ps = tuple(rand_poly(rng, n, 3, terms=3) for _ in range(n))
        res = stein_residual(prob, a, ps)
        defect = 0j
        for grad, p in zip(prob.gradient, ps):
            defect += 0.5 * (
                moment_of_poly(phi, grad * p.star())
                - moment_of_poly(phi, p.star() * grad)
            )
        assert res == pytest.approx(defect, rel=1e-10, abs=1e-12)
        saw_nonzero = saw_nonzero or abs(res) > 1e-3
    assert saw_nonzero


def test_explicit_kernel_identity_in_matrix_model(np_rng):
    # end-to-end against dense tensor algebra on a concrete trace state
    n = 2
    size = 6
    phi, mats = trace_state(np_rng, n, size, 10)
    rng = random.Random(3)
    v = rand_selfadjoint_poly(rng, n, 3, terms=3)
    prob = SteinProblem(phi, v)
    a = explicit_kernel(v)
    a_mats = bruteforce.kernel_matrices(a, mats, size)
    for _ in range(5):
        ps = tuple(rand_poly(rng, n, 3, terms=3) for _ in range(n))
        jp_mats = bruteforce.kernel_matrices(jacobian(ps), mats, size)
        brute = bruteforce.kernel_pairing(a_mats, jp_mats, size)
        symbolic = inner_matrix(phi, a, jacobian(ps))
        assert symbolic == pytest.approx(brute, rel=1e-10, abs=1e-10)
        assert abs(stein_residual(prob, a, ps)) < 1e-10


# ---------------------------------------------------------------------------
# explicit kernel distance


def test_distance_semicircular_point():
    sc = semicircular(1)
    prob = SteinProblem(sc, quadratic_potential(1))
    d = explicit_kernel_distance_sq(prob)
    assert d.closed_form_sq == pytest.approx(1.5, abs=1e-12)
    assert d.distance_sq == pytest.approx(1.5, abs=1e-12)
    assert d.m4 == pytest.approx(2.0)
    assert d.m4_bound_sq == pytest.approx(1.0)
    assert d.m4_bound_sharp_sq == pytest.approx(1.5)
    # unit-variance single coordinate: distance equals the sharp constant
    assert d.distance_sq == pytest.approx(d.m4_bound_sharp_sq, abs=1e-12)


def test_distance_free_poisson_point():
    fp = centered_free_poisson(1)
    prob = SteinProblem(fp, quadratic_potential(1))
    d = explicit_kernel_distance_sq(prob)
    assert d.m4 == pytest.approx(3.0)
    assert d.distance_sq == pytest.approx(2.0, abs=1e-12)
    assert d.closed_form_sq == pytest.approx(2.0, abs=1e-12)
    assert d.m4_bound_sq == pytest.approx(1.5)
    assert d.m4_bound_sharp_sq == pytest.approx(2.0)


def _isotropic_trace_state(np_rng, n, size, max_order):
    """Trace state with exactly centered, exactly isotropic coordinates:
    Gram-Schmidt over traceless Hermitian matrices in the trace inner
    product (real coefficients keep everything Hermitian).  Returns the
    state and its matrices."""
    mats = []
    while len(mats) < n:
        h = rand_hermitian(np_rng, size)
        h = h - (np.trace(h) / size) * np.eye(size)
        for m in mats:
            h = h - (np.trace(h @ m).real / np.trace(m @ m).real) * m
        norm = np.sqrt(np.trace(h @ h).real / size)
        if norm > 1e-6:
            mats.append(h / norm)
    return moment_table_from_matrices(mats, max_order), mats


def test_distance_two_routes_agree_on_random_isotropic_states(np_rng):
    # both library routes against dense kron arithmetic on the realised
    # K - I, and for one coordinate against (1 + phi(x^4))/2
    size = 6
    for n in (1, 2):
        a0 = explicit_kernel(quadratic_potential(n))
        diff = a0 - KernelMatrix.identity(n)
        for _ in range(10):
            phi, mats = _isotropic_trace_state(np_rng, n, size, 4)
            prob = SteinProblem(phi, quadratic_potential(n))
            d = explicit_kernel_distance_sq(prob)
            assert d.closed_form_sq == pytest.approx(
                d.distance_sq, rel=1e-9, abs=1e-9
            )
            diff_mats = bruteforce.kernel_matrices(diff, mats, size)
            dense = bruteforce.kernel_pairing(diff_mats, diff_mats, size)
            assert abs(dense.imag) <= 1e-12
            assert d.distance_sq == pytest.approx(
                dense.real, rel=1e-12, abs=1e-12
            )
            if n == 1:
                m4 = np.trace(np.linalg.matrix_power(mats[0], 4)).real / size
                assert d.distance_sq == pytest.approx(
                    (1.0 + m4) / 2.0, rel=1e-12, abs=1e-12
                )
            assert d.distance_sq <= d.m4_bound_sharp_sq + 1e-9


def test_distance_closed_requires_centering(np_rng):
    phi, _ = trace_state(np_rng, 1, 5, 4)  # not centered
    prob = SteinProblem(phi, quadratic_potential(1))
    with pytest.raises(InadmissibleProblemError):
        explicit_kernel_distance_sq(prob, method="closed")
    # auto falls back to the generic pairing
    d = explicit_kernel_distance_sq(prob)
    assert d.closed_form_sq is None
    assert d.distance_sq >= 0


# ---------------------------------------------------------------------------
# minimal kernel


def test_truncation_basis_size():
    for n, d in ((1, 3), (2, 2), (3, 2)):
        basis = TruncationBasis.build(n, d)
        assert len(basis) == n * sum(n ** k for k in range(d + 1))


def test_minimal_kernel_semicircular_zero(rng):
    for n in (1, 2):
        sc = semicircular(n)
        prob = SteinProblem(sc, quadratic_potential(n))
        for d in range(0, 5 if n == 1 else 4):
            mk = minimal_kernel(prob, d)
            assert mk.sigma_sq <= 1e-8
        # the represented kernel collapses to the identity block
        mk = minimal_kernel(prob, 3)
        ident = KernelMatrix.identity(n)
        gap = inner_matrix(sc, mk.kernel - ident, mk.kernel - ident)
        assert abs(gap) < 1e-12


def test_minimal_kernel_free_poisson_sequence():
    fp = centered_free_poisson(1)
    prob = SteinProblem(fp, quadratic_potential(1))
    sigmas = [minimal_kernel(prob, d).sigma_sq for d in (0, 1, 2, 3, 4)]
    assert sigmas[0] == pytest.approx(0.0, abs=1e-12)
    assert sigmas[1] == pytest.approx(0.0, abs=1e-10)
    assert sigmas[2] == pytest.approx(0.5, abs=1e-9)
    for lo, hi in zip(sigmas, sigmas[1:]):
        assert hi >= lo - 1e-9
    dist = explicit_kernel_distance_sq(prob)
    assert all(s <= dist.m4_bound_sharp_sq + 1e-9 for s in sigmas)


def test_minimal_kernel_orthogonality_and_kernelhood(rng):
    # explicit minus minimal is orthogonal to every basis Jacobian, and
    # the minimal kernel satisfies the identity on tuples within degree
    fp = centered_free_poisson(1)
    prob = SteinProblem(fp, quadratic_potential(1))
    d = 3
    mk = minimal_kernel(prob, d)
    a0 = explicit_kernel(prob.v)
    diff = a0 - mk.kernel
    n = 1
    for w in words_up_to(n, d):
        for slot in range(n):
            basis_tuple = tuple(
                NcPoly.monomial(w, n) if s == slot else NcPoly.zero(n)
                for s in range(n)
            )
            val = inner_matrix(fp, diff, jacobian(basis_tuple))
            assert abs(val) < 1e-8
    for _ in range(10):
        ps = tuple(rand_poly(rng, n, d, terms=3) for _ in range(n))
        assert abs(stein_residual(prob, mk.kernel, ps)) < 1e-8


def test_minimal_kernel_rank_reporting():
    sc = semicircular(2)
    prob = SteinProblem(sc, quadratic_potential(2))
    mk = minimal_kernel(prob, 2)
    words = words_up_to(2, 2)
    # constants are null directions of the Jacobian Gram
    assert mk.null_dim == 2
    assert mk.gram_rank == 2 * (len(words) - 1)


def _per_monomial_kernel(mk):
    n = mk.basis.nvars
    return bruteforce.monomial_minimal_kernel(
        n, mk.basis.words, [mk.coefficients[slot::n] for slot in range(n)])


@pytest.mark.parametrize("n, degrees", [(1, (0, 1, 3, 6)), (2, (0, 1, 2, 4)),
                                        (3, (1, 2, 3))])
def test_minimal_kernel_is_identity_plus_jacobian(rng, n, degrees):
    # I + J(P) equals the per-monomial sum exactly, on coefficients with
    # zeros, a -1 on t_s in slot s that cancels the identity entry, and
    # complex floats (each converts to an exact rational)
    for d in degrees:
        basis = TruncationBasis.build(n, d)
        for _ in range(3):
            coefficients = np.array(
                [rng.choice((0.0, 0.0, 1.0, -0.5j,
                             complex(rng.gauss(0, 1), rng.gauss(0, 1))))
                 for _ in range(len(basis))], dtype=complex)
            if d >= 1:
                for slot in range(n):
                    # element (slot, word (slot + 1,)): words are graded-lex
                    coefficients[(1 + slot) * n + slot] = -1.0
            mk = stein.MinimalKernelResult(
                basis=basis, coefficients=coefficients, sigma_sq=0.0,
                gram_rank=0, null_dim=0)
            assert mk.kernel == _per_monomial_kernel(mk)
            if d >= 1:
                assert all(((), ()) not in mk.kernel.entry(s, s).terms
                           for s in range(n))


@pytest.mark.parametrize("n, degree", [(1, 6), (2, 4), (3, 3), (3, 5)])
def test_solved_minimal_kernel_matches_per_monomial_assembly(n, degree):
    # the solved coefficients are 0 on the constant word; the serialized
    # kernels agree byte for byte
    prob = SteinProblem(centered_free_poisson(n, 12), quadratic_potential(n))
    mk = minimal_kernel(prob, degree)
    want = _per_monomial_kernel(mk)
    assert mk.kernel == want
    assert (serialize.dumps(serialize.kernel_to_obj(mk.kernel))
            == serialize.dumps(serialize.kernel_to_obj(want)))


def test_inadmissible_problem_rejected():
    sc = semicircular(1)
    prob = SteinProblem(sc, t(1, 1))  # D(t) = 1, phi(1) = 1 != 0
    assert not prob.admissible
    assert prob.centering_defect == pytest.approx(1.0)
    with pytest.raises(InadmissibleProblemError):
        minimal_kernel(prob, 2)


# ---------------------------------------------------------------------------
# discrepancy bounds


def test_discrepancy_bounds_semicircular():
    n = 2
    sc = semicircular(n)
    prob = SteinProblem(sc, quadratic_potential(n))
    rep = discrepancy_bounds(prob, 3, c_opt=1.0, c_is_upper=True)
    assert rep.sigma_lower_sq <= 1e-8
    assert rep.upper_poincare_sq == pytest.approx(0.0, abs=1e-9)
    assert rep.simplified_sq == pytest.approx(0.0, abs=1e-12)
    assert rep.upper_explicit_sq == pytest.approx(5.0, abs=1e-9)


def test_discrepancy_bounds_free_poisson():
    fp = centered_free_poisson(1)
    prob = SteinProblem(fp, quadratic_potential(1))
    rep = discrepancy_bounds(prob, 3, c_opt=18.0, c_is_upper=True)
    assert rep.sigma_lower_sq == pytest.approx(0.5, abs=1e-9)
    assert rep.upper_explicit_sq == pytest.approx(2.0, abs=1e-9)
    assert rep.simplified_sq == pytest.approx(17.0)
    assert rep.sigma_lower_sq <= min(rep.upper_explicit_sq,
                                     rep.upper_poincare_sq) + 1e-8


def test_discrepancy_bounds_constant_potential():
    # Dv = 0: the explicit kernel vanishes and the truncated bound is the
    # squared projection of -I; the Poincare-route bound degenerates to n
    n = 1
    sc = semicircular(n)
    prob = SteinProblem(sc, NcPoly.one(n).scale(4))
    rep = discrepancy_bounds(prob, 2, c_opt=1.0, c_is_upper=True)
    assert rep.upper_poincare_sq == pytest.approx(n)
    assert rep.centering_defect == 0.0
    # projection of A0 - I = -I onto the Jacobian span: I is the Jacobian
    # of the coordinates, so the projection has norm at least 1
    assert rep.sigma_lower_sq == pytest.approx(1.0, abs=1e-9)


def test_discrepancy_bounds_builds_the_explicit_kernel_once(monkeypatch):
    calls = []

    def counted(v):
        calls.append(v)
        return explicit_kernel(v)

    # the name the minimal kernel and the distance resolve at call time
    monkeypatch.setattr(stein, "explicit_kernel", counted)
    phi, _ = trace_state(np.random.default_rng(11), 2, 6, 6, centered=True)
    prob = SteinProblem(phi, quadratic_potential(2))
    rep = discrepancy_bounds(prob, 3, c_opt=2.5)
    assert len(calls) == 1
    # the report as computed before the kernel was shared
    assert rep.sigma_lower_sq == pytest.approx(0.7097971743781807, rel=1e-12)
    assert rep.upper_explicit_sq == pytest.approx(1.6596312868055998,
                                                  rel=1e-12)
    assert rep.upper_poincare_sq == pytest.approx(2.4600352713293554,
                                                  rel=1e-12)
    assert rep.simplified_sq is None
    assert (rep.gram_rank, rep.null_dim) == (28, 2)
    assert rep.centering_defect < 1e-15


def test_certified_violation_raises(np_rng):
    fp = centered_free_poisson(1)
    prob = SteinProblem(fp, quadratic_potential(1))
    with pytest.raises(ConsistencyError):
        discrepancy_bounds(prob, 3, c_opt=1.0, c_is_upper=True)


def test_minimal_kernel_against_dense_model(np_rng):
    # assemble the same least-squares problem with dense kron matrices
    # on a centered trace state and compare the projection norm
    n, size, degree = 2, 5, 2
    phi, mats = trace_state(np_rng, n, size, 10, centered=True)
    prob = SteinProblem(phi, quadratic_potential(n))
    assert prob.admissible
    mk = minimal_kernel(prob, degree)

    basis_tuples = []
    for w in words_up_to(n, degree):
        for slot in range(n):
            basis_tuples.append(
                tuple(
                    NcPoly.monomial(w, n) if s == slot else NcPoly.zero(n)
                    for s in range(n)
                )
            )
    jac_mats = [
        bruteforce.kernel_matrices(jacobian(ps), mats, size)
        for ps in basis_tuples
    ]
    a0 = explicit_kernel(prob.v)
    diff = a0 - KernelMatrix.identity(n)
    diff_mats = bruteforce.kernel_matrices(diff, mats, size)

    dim = len(basis_tuples)
    gram = np.empty((dim, dim), dtype=complex)
    rhs = np.empty(dim, dtype=complex)
    for a in range(dim):
        rhs[a] = bruteforce.kernel_pairing(diff_mats, jac_mats[a], size)
        for b in range(dim):
            gram[a, b] = bruteforce.kernel_pairing(jac_mats[b], jac_mats[a], size)
    gram = (gram + gram.conj().T) / 2
    sigma_dense = float(
        (rhs.conj() @ np.linalg.pinv(gram, hermitian=True, rcond=1e-10) @ rhs).real
    )
    assert mk.sigma_sq == pytest.approx(sigma_dense, rel=1e-9, abs=1e-9)

    # the represented kernel sits at exactly the projection distance
    gap = inner_matrix(phi, mk.kernel - KernelMatrix.identity(n),
                       mk.kernel - KernelMatrix.identity(n))
    assert gap.real == pytest.approx(mk.sigma_sq, rel=1e-8, abs=1e-9)


def test_stein_residual_budget_error():
    from freestein import BudgetExceededError

    sc = semicircular(1, max_order=4)
    prob = SteinProblem(sc, quadratic_potential(1))
    a = explicit_kernel(prob.v)
    with pytest.raises(BudgetExceededError):
        stein_residual(prob, a, (NcPoly.gen(1, 1) ** 4,))


# ---------------------------------------------------------------------------
# word-index Gram assembly against the exact sharp-product oracle


def _dense_hermitian_state(nvars, max_order, seed):
    """Centered state with identity covariance in which every word of
    length >= 3 has a complex cumulant.  kappa(rev w) = conj kappa(w)
    keeps it a *-state; nothing makes kappa cyclic, so it is not
    tracial."""
    rng = random.Random(seed)
    kappa = {(i, i): 1.0 for i in range(1, nvars + 1)}
    for w in words_up_to(nvars, max_order, min_len=3):
        if w not in kappa:
            scale = 0.4 / 2 ** (len(w) - 2)
            v = complex(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
            kappa[w] = complex(v.real, 0.0) if w == w[::-1] else v
            kappa[w[::-1]] = kappa[w].conjugate()
    return CumulantState(CumulantSpec(nvars, kappa, max_order=max_order))


def _oracle_trace_state(nvars, size, degree):
    phi, _ = trace_state(np.random.default_rng(31 + nvars), nvars, size,
                         max(2 * degree - 2, degree + 1), centered=True)
    return phi


ORACLE_CASES = {
    "trace-n1-d4": lambda: (_oracle_trace_state(1, 6, 4), 4),
    "trace-n2-d3": lambda: (_oracle_trace_state(2, 5, 3), 3),
    "trace-n3-d3": lambda: (_oracle_trace_state(3, 5, 3), 3),
    "cumulant-dense-n2-d4": lambda: (_dense_hermitian_state(2, 6, seed=3), 4),
}


def _assert_rel(value, ref, rel=1e-12):
    scale = np.abs(np.asarray(ref)).max()
    assert np.abs(np.asarray(value) - ref).max() <= rel * scale


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_word_index_assembly_matches_sharp_oracle(case):
    phi, d = ORACLE_CASES[case]()
    n = phi.nvars
    assert phi.tracial == case.startswith("trace")
    with_unit = words_up_to(n, d)
    for words in (with_unit, with_unit[1:], with_unit[::-1]):
        ref = bruteforce.sharp_dirichlet_gram(phi, words)
        _assert_rel(dirichlet_gram(phi, words), ref)

    prob = SteinProblem(phi, quadratic_potential(n))
    mk = minimal_kernel(prob, d)
    sigma_sq, coefficients = bruteforce.sharp_minimal_kernel(prob, d)
    assert sigma_sq > 1e-3
    _assert_rel(mk.sigma_sq, sigma_sq)
    _assert_rel(mk.coefficients, coefficients)

    # random complex kernels and tuples whose pairings fit the budget
    rng = random.Random(len(case))
    leg = phi.max_order // 2

    def kernel():
        return KernelMatrix(tuple(tuple(rand_tensor(rng, n, leg) for _ in range(n))
                                  for _ in range(n)))

    for _ in range(3):
        a, b = kernel(), kernel()
        ps = tuple(rand_poly(rng, n, leg) for _ in range(n))
        rs = tuple(rand_poly(rng, n, leg) for _ in range(n))
        _assert_rel(inner_matrix(phi, a, b), bruteforce.sharp_inner_matrix(phi, a, b))
        _assert_rel(inner_tuple(phi, ps, rs),
                    bruteforce.product_inner_tuple(phi, ps, rs))
        _assert_rel(stein_residual(prob, a, ps),
                    bruteforce.sharp_stein_residual(prob, a, ps))


def test_grams_raise_budget_error_one_order_short():
    d = 3
    phi, _ = trace_state(np.random.default_rng(5), 2, 4, 2 * (d - 1) - 1,
                         centered=True)
    diff = explicit_kernel(quadratic_potential(2)) - KernelMatrix.identity(2)
    squares = (t(1, 2) * t(1, 2), t(2, 2))
    for build in (lambda: dirichlet_gram(phi, words_up_to(2, d)),
                  lambda: minimal_kernel(SteinProblem(phi, quadratic_potential(2)), d),
                  lambda: inner_matrix(phi, diff, diff),
                  lambda: inner_tuple(phi, squares, squares)):
        with pytest.raises(BudgetExceededError) as info:
            build()
        assert (info.value.needed, info.value.available) == (4, 3)


def test_minimal_kernel_pairs_legs_of_unequal_length():
    # the kernel of t^6 / 6 has legs of length 6 that meet only the short
    # Jacobian legs; pairing them with each other would need order 12
    sc = semicircular(1, max_order=6)
    prob = SteinProblem(sc, NcPoly.monomial((1,) * 6, 1, Fraction(1, 6)))
    assert minimal_kernel(prob, 1).sigma_sq == pytest.approx(16.0, rel=1e-12)
    with pytest.raises(BudgetExceededError,
                       match="needs word moments of length 7, backend supports 6"):
        minimal_kernel(prob, 2)
