"""Moment backends, cumulant calculus, pairings and validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import (
    BudgetExceededError,
    CumulantSpec,
    CumulantState,
    InvalidStateError,
    KernelMatrix,
    MomentTable,
    NcPoly,
    ParseError,
    TensorPoly,
    centered_free_poisson,
    check_state,
    cumulants_to_moment,
    explicit_kernel,
    inner_matrix,
    inner_tuple,
    jacobian,
    moment_of_poly,
    moments_to_cumulants,
    operator_norm_estimate,
    quadratic_potential,
    semicircular,
    serialize,
    states,
    tensor_moment,
    validate_state,
)
from freestein.partitions import catalan
from freestein.states import word_codes, words_up_to

import bruteforce
from bruteforce import bracelets_up_to
from conftest import (
    rand_cumulant_spec,
    rand_cumulant_state,
    rand_poly,
    rand_tensor,
    trace_state,
)


def t(i, n):
    return NcPoly.gen(i, n)


# ---------------------------------------------------------------------------
# cumulants -> moments


def test_semicircular_moments_are_catalan():
    sc = semicircular(1)
    for m in range(0, 6):
        assert sc.moment((1,) * (2 * m)) == pytest.approx(catalan(m), abs=1e-12)
        if m:
            assert sc.moment((1,) * (2 * m - 1)) == pytest.approx(0.0, abs=1e-12)


def test_spec_moment_examples():
    sc = semicircular(1)
    assert cumulants_to_moment(sc.spec, (1, 1, 1, 1)) == pytest.approx(2.0)
    assert cumulants_to_moment(sc.spec, (1,) * 6) == pytest.approx(5.0)
    spec = CumulantSpec(1, {(1, 1): 0.7, (1, 1, 1): 0.3})
    assert cumulants_to_moment(spec, (1,)) == 0


def test_spec_moment_checks_letters_and_order():
    spec = semicircular(2).spec
    for word in ((5, 5), (0, 1), (1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            cumulants_to_moment(spec, word)
    with pytest.raises(BudgetExceededError):
        cumulants_to_moment(spec, (1,) * (spec.max_order + 1))


def test_free_family_mixed_moments_vanish():
    sc = semicircular(2)
    assert sc.moment((1, 2, 1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert sc.moment((1, 2)) == pytest.approx(0.0, abs=1e-12)
    assert sc.moment((1, 1, 2, 2)) == pytest.approx(1.0, abs=1e-12)


def test_cumulant_state_is_tracial_for_builtin_specs():
    assert semicircular(2).tracial
    assert centered_free_poisson(1).tracial
    lopsided = CumulantSpec(2, {(1, 2): 1j, (2, 1): -1j})
    assert not CumulantState(lopsided).tracial


@st.composite
def symmetry_specs(draw, cyclic):
    """Random spec that is exactly cyclic or not.  Every one-letter spec
    is cyclic, so only the cyclic case draws one letter."""
    nvars = draw(st.integers(1, 2)) if cyclic else 2
    order = draw(st.integers(3, 6))
    rng = draw(st.randoms(use_true_random=False))
    kappa = dict(rand_cumulant_spec(rng, nvars, order, cyclic=cyclic).kappa)
    if not cyclic:
        c = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.1, 0.5)))
        # kappa(121) = 0 is not its rotation kappa(112)
        kappa.pop((1, 2, 1), None)
        kappa[1, 1, 2], kappa[2, 1, 1] = c, c.conjugate()
    return CumulantSpec(nvars, kappa, max_order=order)


# the ids name the (cyclic, Hermitian) class modes; every spec is
# Hermitian
MODES = {"argnames": "cyclic", "argvalues": [True, False],
         "ids": ["True-True", "False-True"]}


@pytest.mark.parametrize(**MODES)
@settings(max_examples=20)
@given(data=st.data())
def test_class_moments_match_oracle(cyclic, data):
    # each class is filled from whichever member is asked first
    spec = data.draw(symmetry_specs(cyclic))
    assert spec.cyclic == cyclic
    state = CumulantState(spec)
    words = data.draw(st.permutations(
        words_up_to(spec.nvars, spec.max_order, min_len=1)))
    for w in words:
        assert abs(state.moment(w) - bruteforce.brute_moment(spec.kappa, w)) \
            <= 1e-12


def _count_recursions(monkeypatch):
    calls = []
    first_block_sum = states._first_block_sum

    def counted(blocks, kappa, nvars, word, gaps):
        calls.append(word)
        return first_block_sum(blocks, kappa, nvars, word, gaps)

    monkeypatch.setattr(states, "_first_block_sum", counted)
    return calls


def test_one_recursion_per_class(monkeypatch, rng):
    calls = _count_recursions(monkeypatch)
    words = words_up_to(2, 8, min_len=1)
    fp = centered_free_poisson(2, 8)
    for w in words:
        fp.moment(w)
    # once per bracelet class, on its representative
    assert sorted(calls) == sorted(bracelets_up_to(2, 8, min_len=1))
    assert len(calls) == 84

    spec = rand_cumulant_spec(rng, 2, 8)
    assert not spec.cyclic
    calls.clear()
    state = CumulantState(spec)
    for w in words:
        state.moment(w)
    assert sorted(calls) == sorted({min(w, w[::-1]) for w in words})


@pytest.mark.parametrize("batch", [True, False], ids=["batch", "words"])
def test_class_store_holds_one_value_per_class(monkeypatch, rng, batch):
    # after every word up to max_order is read, the evaluations and the
    # stored class values (the empty word's besides) equal the classes
    calls = _count_recursions(monkeypatch)
    spec = rand_cumulant_spec(rng, 3, 5)
    assert not spec.cyclic
    words = words_up_to(3, 5, min_len=1)
    reversal = len({min(w, w[::-1]) for w in words})
    for state, classes in ((centered_free_poisson(2, 8), 84),
                           (CumulantState(spec), reversal)):
        calls.clear()
        words = words_up_to(state.nvars, state.max_order, min_len=1)
        if batch:
            state.word_moments(words[::-1])
        else:
            for w in words[::-1]:
                state.moment(w)
        assert len(calls) == len(state._memo) - 1 == classes
        assert all(w in state._memo for w in words)
    assert len(bracelets_up_to(2, 8, min_len=1)) == 84


@pytest.mark.parametrize("cap", [states._INDEX_CAP, 40, 1])
def test_class_store_matches_the_word_memo(monkeypatch, rng, cap):
    # byte for byte, signed zeros included, on every word, in and past
    # the class index, against a memo keyed by word tuple
    monkeypatch.setattr(states, "_INDEX_CAP", cap)
    specs = [rand_cumulant_spec(rng, n, order, cyclic=cyclic)
             for n, order in ((1, 8), (2, 6), (3, 4)) for cyclic in (True, False)]
    # words whose prefixes (2,), (1, 2), (2, 2), (2, 1) and (2, 1, 1) are
    # not stored, which the recursion walks through
    sparse = CumulantSpec(2, {(1,): 0.2, (1, 1): 1.0, (1, 2, 2): 0.3j,
                              (2, 2, 1): -0.3j, (2, 1, 1, 2): 0.1}, 6)
    assert list(sparse.blocks.values()).count(-1) == 5
    specs += [centered_free_poisson(2, 6).spec, _dense_hermitian_spec(2, 6, 3),
              sparse]
    for spec in specs:
        words = words_up_to(spec.nvars, spec.max_order)
        oracle = bruteforce.WordMemoState(spec)
        want = [repr(oracle.moment(w)) for w in words]
        state = CumulantState(spec)
        assert list(map(repr, state.word_moments(words).tolist())) == want
        assert len(state._index.slot) <= cap
        lone = CumulantState(spec)
        assert [repr(lone.moment(w)) for w in words[::-1]] == want[::-1]
        assert len(state._memo) == len(lone._memo) == oracle.evaluations + 1


def _many_letters():
    """A non-cyclic spec over 30 letters, to order 12, and a long word
    whose gaps reach few classes."""
    kappa = {(i, i): 1.0 for i in range(1, 31)}
    kappa.update({(i, j, i): 0.1 for i in (1, 2, 3) for j in (1, 2, 3)})
    return (CumulantSpec(30, kappa, max_order=12),
            (1, 2, 1, 1, 3, 1, 2, 2, 1, 3, 3, 1))


def test_lone_long_moment_at_many_letters_runs_past_the_index(monkeypatch):
    # one word of length 12 pays for no length of the class index (30
    # codes of length 1 against the 12 gaps of that length it reads), so
    # it and the classes its gaps reach are canonicalized and evaluated
    # one by one
    monkeypatch.setattr(states, "_INDEXES", {})
    spec, word = _many_letters()
    state = CumulantState(spec)
    assert (repr(state.moment(word))
            == repr(bruteforce.WordMemoState(spec).moment(word)))
    assert state._index.top == 0 and len(state._both) == 2
    assert states._INDEXES[30, False].top == 0
    assert 1 < len(state._memo) < 100


def test_memo_membership_grows_nothing(monkeypatch):
    monkeypatch.setattr(states, "_INDEXES", {})
    spec, word = _many_letters()
    state = CumulantState(spec)
    index, cells = state._index, len(state._both)
    for _ in range(2):
        assert word not in state._memo and (1, 1) not in state._memo
        assert state._index is index and len(state._both) == cells
        assert not state._far and len(state._memo) == 1
    state.moment(word)
    # the class holds the reversal too, and the read grew nothing
    assert word in state._memo and word[::-1] in state._memo
    assert (4, 5) not in state._memo
    assert state._index is index and len(state._both) == cells
    assert states._INDEXES[30, False].top == 0
    # in the view, a class is in the memo once evaluated, not before
    state = semicircular(2, max_order=6)
    state.word_moments([(1, 2)] * 6)  # pays for the words to length 2
    assert state._index.top == 2
    assert (2, 1) in state._memo and (1, 2, 1) not in state._memo
    # the empty word, (1, 2) and its gap (2,), evaluated first
    assert (2,) in state._memo and (1,) not in state._memo
    assert len(state._memo) == 3
    # a word whose code passes 64 bits is not in the memo, as a word out
    # of the budget is not; reading it raises
    state = CumulantState(CumulantSpec(40, {(1, 1): 1.0}, max_order=12))
    assert (1,) * 12 not in state._memo and (1,) * 13 not in state._memo
    with pytest.raises(BudgetExceededError):
        state.moment((1,) * 12)


def test_cumulant_state_dies_with_its_last_reference():
    import gc
    import weakref

    sc = semicircular(1)
    ref = weakref.ref(sc)
    gc.disable()
    try:
        assert sc.moment((1, 1, 1, 1)) == 2
        del sc
        assert ref() is None
    finally:
        gc.enable()


def test_budget_exceeded():
    sc = semicircular(1, max_order=6)
    with pytest.raises(BudgetExceededError):
        sc.moment((1,) * 7)
    with pytest.raises(BudgetExceededError):
        moment_of_poly(sc, t(1, 1) ** 7)


def test_warm_state_still_checks_words():
    # memo hits skip the word check; words outside the memo must not
    sc = semicircular(2, max_order=6)
    for w in words_up_to(2, 6):
        sc.moment(w)
    for bad in ((3,), (1, 0), (2, 1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            sc.moment(bad)
    with pytest.raises(BudgetExceededError):
        sc.moment((1,) * 7)
    assert sc.moment((1, 1)) == 1


def test_table_checks_entry_words_once():
    # entry words are checked at construction, so hits skip the check
    with pytest.raises(ValueError, match="out of range"):
        MomentTable(2, 4, {(1, 3): 1.0})
    with pytest.raises(ValueError, match="out of range"):
        MomentTable(2, 4, {(0,): 1.0})
    with pytest.raises(ValueError, match="exceeds max_order"):
        MomentTable(1, 4, {(1,) * 5: 1.0})
    with pytest.raises(ParseError):
        serialize.table_from_obj({"nvars": 1, "max_order": 2, "entries": [
            {"word": [1, 1, 1], "re": 1.0, "im": 0.0}]})
    table = MomentTable(2, 4, {(1, 2): 0.5j, (2, 1): -0.5j,
                               (1, 1, 2, 2): 0.25, (2, 2, 1, 1): 0.25})
    assert table.moment([1, 2]) == 0.5j
    assert table.moment((1, 1, 2, 2)) == 0.25
    assert table.moment((2, 1, 1)) == 0
    # absent bad words are still refused
    for bad in ((3,), (1, 0), (2, 1, 3)):
        with pytest.raises(ValueError, match="out of range"):
            table.moment(bad)
    with pytest.raises(BudgetExceededError):
        table.moment((1,) * 5)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0, -math.inf)])
def test_non_finite_values_are_refused(value):
    with pytest.raises(ValueError, match=r"word \[1, 1\] is not finite"):
        CumulantSpec(1, {(1, 1): value})
    with pytest.raises(ValueError, match=r"word \[1, 2\] is not finite"):
        MomentTable(2, 4, {(1,): 0.5, (1, 2): value})
    with pytest.raises(ValueError, match=r"word \[1, 2\] is not finite"):
        MomentTable.from_bracelets(2, 4, {(1, 2): value})


def test_overflowing_moment_is_refused_before_the_memo():
    # kappa_4 = 1e200 makes phi(t^8) include kappa_4^2 = 1e400
    state = CumulantState(CumulantSpec(1, {(1, 1): 1.0, (1,) * 4: 1e200},
                                       max_order=8))
    assert state.moment((1,) * 4) == 1e200 + 2
    for read in (state.moment, lambda w: state.word_moments([w])):
        with pytest.raises(BudgetExceededError,
                           match=r"word \[1, 1, 1, 1, 1, 1, 1, 1\] overflows"):
            read((1,) * 8)
        # the class of t^8 holds no value; those of t^0..t^7 do
        assert (1,) * 8 not in state._memo
        assert len(state._memo) == 8


# ---------------------------------------------------------------------------
# moments -> cumulants


def centered_free_poisson_moment(m):
    """Independent oracle: moments of g^2 - 1 for standard semicircular g,
    via the binomial expansion into Catalan numbers."""
    return sum(
        (-1) ** (m - j) * math.comb(m, j) * catalan(j) for j in range(m + 1)
    )


def test_free_poisson_moments_match_binomial_oracle():
    fp = centered_free_poisson(1, max_order=8)
    for m in range(1, 9):
        assert fp.moment((1,) * m).real == pytest.approx(
            centered_free_poisson_moment(m), rel=1e-12
        )


def test_moments_to_cumulants_semicircular():
    sc = semicircular(1, max_order=8)
    spec = moments_to_cumulants(sc, 8)
    assert spec.value((1, 1)) == pytest.approx(1.0, abs=1e-12)
    for w, v in spec.kappa.items():
        if w != (1, 1):
            assert abs(v) < 1e-12


def test_moments_to_cumulants_free_poisson_table():
    table = MomentTable(
        1,
        8,
        {(1,) * m: centered_free_poisson_moment(m) for m in range(1, 9)},
        tracial=True,
    )
    spec = moments_to_cumulants(table, 8)
    for m in range(1, 9):
        want = 0.0 if m == 1 else 1.0
        assert spec.value((1,) * m).real == pytest.approx(want, abs=1e-9)


def test_moments_to_cumulants_zero_table():
    table = MomentTable(2, 4, {}, tracial=True)
    spec = moments_to_cumulants(table, 4)
    assert not spec.kappa


def test_round_trip_random_specs(rng):
    for nvars, order in ((1, 8), (2, 6)):
        spec = rand_cumulant_spec(rng, nvars, order)
        state = CumulantState(spec)
        back = moments_to_cumulants(state, order)
        for w in words_up_to(nvars, order, min_len=1):
            orig = spec.value(w)
            got = back.value(w)
            assert got == pytest.approx(orig, abs=1e-9 * max(1.0, abs(orig)))


# ---------------------------------------------------------------------------
# pairings


def test_moment_of_poly_examples():
    sc = semicircular(2)
    assert moment_of_poly(sc, NcPoly.one(2)) == pytest.approx(1.0)
    assert moment_of_poly(sc, t(1, 2) ** 4) == pytest.approx(2.0)
    mixed = t(1, 2) * t(2, 2) * t(1, 2) * t(2, 2)
    assert moment_of_poly(sc, mixed) == pytest.approx(0.0, abs=1e-12)


def test_tensor_moment_examples():
    sc = semicircular(1)
    assert tensor_moment(sc, TensorPoly.one(1)) == pytest.approx(1.0)
    assert tensor_moment(sc, TensorPoly.of(t(1, 1), t(1, 1))) == pytest.approx(0.0)
    sq = t(1, 1) ** 2
    assert tensor_moment(sc, TensorPoly.of(sq, sq)) == pytest.approx(1.0)


def test_inner_tuple_examples(np_rng):
    sc = semicircular(1)
    assert inner_tuple(sc, (t(1, 1),), (t(1, 1),)) == pytest.approx(1.0)
    assert inner_tuple(sc, (t(1, 1) ** 2,), (NcPoly.one(1),)) == pytest.approx(1.0)

    phi, _ = trace_state(np_rng, 2, 6, 8)
    import random

    rng = random.Random(7)
    for _ in range(10):
        ps = tuple(rand_poly(rng, 2, 3, terms=3) for _ in range(2))
        val = inner_tuple(phi, ps, ps)
        assert val.real >= -1e-10
        assert abs(val.imag) < 1e-10


def test_inner_matrix_examples():
    for n in (1, 2):
        sc = semicircular(n)
        ident = KernelMatrix.identity(n)
        assert inner_matrix(sc, ident, ident) == pytest.approx(n)
        coords = tuple(t(i, n) for i in range(1, n + 1))
        assert inner_matrix(sc, jacobian(coords), ident) == pytest.approx(n)


def test_inner_matrix_explicit_kernel_distance():
    # n=1 semicircular, A the explicit quadratic kernel: <A-I, A-I> = 3/2
    # (1/4)(2 phi(x^4) + 6 phi(x^2)^2) - 2 phi(x^2) + 1 = 10/4 - 1
    sc = semicircular(1)
    a = explicit_kernel(quadratic_potential(1))
    diff = a - KernelMatrix.identity(1)
    assert inner_matrix(sc, diff, diff) == pytest.approx(1.5, abs=1e-12)


def test_inner_matrix_positive_on_genuine_states(np_rng):
    import random

    rng = random.Random(11)
    phi, _ = trace_state(np_rng, 2, 5, 12)
    for _ in range(10):
        rows = tuple(
            tuple(rand_tensor(rng, 2, 2, terms=3) for _ in range(2))
            for _ in range(2)
        )
        a = KernelMatrix(rows)
        val = inner_matrix(phi, a, a)
        assert val.real >= -1e-10


def test_pairing_sesquilinearity(rng):
    phi = rand_cumulant_state(rng, 2, 6)
    a = rand_tensor(rng, 2, 2)
    b = rand_tensor(rng, 2, 2)
    lam = 2.5 + 0.5j
    lhs = tensor_moment(phi, a.sharp(b.star()))
    # scaling the second slot conjugates
    from freestein import ComplexRational

    scaled = b.scale(ComplexRational.from_number(lam))
    rhs = tensor_moment(phi, a.sharp(scaled.star()))
    assert rhs == pytest.approx(lhs * np.conj(lam), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# norms and validation


def test_operator_norm_estimate_semicircular():
    sc = semicircular(1)
    est = operator_norm_estimate(sc, 1, 12)
    assert est.lower == pytest.approx(132 ** (1.0 / 12.0), rel=1e-12)
    assert est.upper == pytest.approx(2.0)
    est2 = operator_norm_estimate(sc, 1, 2)
    assert est2.lower == pytest.approx(1.0)


def test_operator_norm_estimate_errors():
    sc = semicircular(1)
    with pytest.raises(ValueError):
        operator_norm_estimate(sc, 1, 3)
    bad = MomentTable(1, 4, {(1, 1): -1.0})
    with pytest.raises(InvalidStateError):
        operator_norm_estimate(bad, 1, 2)


def test_validate_builtin_states():
    assert validate_state(semicircular(2)) == []
    assert validate_state(centered_free_poisson(1)) == []


def test_validate_trace_states(np_rng):
    phi, _ = trace_state(np_rng, 2, 6, 8)
    assert validate_state(phi) == []


def test_validate_flags_bad_states():
    bad_unit = MomentTable(1, 4, {(): 2.0})
    assert any("unit" in p for p in validate_state(bad_unit))

    indef = MomentTable(1, 4, {(1, 1): -1.0})
    assert any("moment matrix indefinite: pivot" in p
               for p in validate_state(indef))

    # a relation (a pivot at 0) whose Schur column does not vanish: the
    # moment matrices over 1, t, t^2 are [[1, 0, 0], [0, 0, 1], [0, 1, 1]]
    # and [[1, 1, 1], [1, 1, 5], [1, 5, 30]], and over 1, t it is
    # [[1, 0.5], [0.5, 0]], where the absent phi(t^2) reads 0
    for entries, order, where in (
            ({(1, 1, 1): 1.0, (1, 1, 1, 1): 1.0}, 4, "(1, 1)"),
            ({(1,): 1.0, (1, 1): 1.0, (1, 1, 1): 5.0, (1, 1, 1, 1): 30.0},
             4, "(1, 1)"),
            ({(1,): 0.5}, 2, "(1,)")):
        problems = validate_state(MomentTable(1, order, entries))
        assert len(problems) == 1
        assert problems[0].startswith(
            "moment matrix indefinite: the relation at word (1,) has a "
            "Schur entry of modulus")
        assert problems[0].endswith(f"at word {where} (invalid state)")


def test_tables_refuse_broken_symmetry_when_built():
    with pytest.raises(InvalidStateError, match=(
            r"Hermitian symmetry fails: phi\(\[1, 2\]\) = \(1\+0j\) but "
            r"conj phi\(\[2, 1\]\) = \(0\.5-0j\)")):
        MomentTable(2, 4, {(1, 2): 1.0, (2, 1): 0.5})
    # an absent reversal reads 0
    with pytest.raises(InvalidStateError, match=r"conj phi\(\[2, 1, 1\]\)"):
        MomentTable(2, 4, {(1, 1, 2): 1e-6})
    # Hermitian, and a valid state as long as it claims no traciality
    values = {(1, 2): 1.0j, (2, 1): -1.0j}
    MomentTable(2, 4, values)
    with pytest.raises(InvalidStateError, match=(
            r"traciality fails: phi\(\[1, 2\]\) = 1j but "
            r"phi\(\[2, 1\]\) = ")):
        MomentTable(2, 4, values, tracial=True)


def _semicircle_words(nvars, max_order):
    return dict(zip(words_up_to(nvars, max_order),
                    semicircular(nvars, max_order).word_moments(
                        words_up_to(nvars, max_order)).tolist()))


def test_symmetry_is_checked_past_the_positivity_family():
    # words longer than the positivity family of ``validate_state``
    entries = _semicircle_words(1, 8)
    entries[(1,) * 8] = 14 + 5j
    with pytest.raises(InvalidStateError, match=r"Hermitian symmetry fails"):
        MomentTable(1, 8, entries)
    entries = _semicircle_words(2, 8)
    assert MomentTable(2, 8, entries, tracial=True).moment((1, 1, 2, 2)) == 1
    entries[1, 1, 2, 2, 1, 1] += 0.1
    MomentTable(2, 8, entries)  # the palindrome keeps Hermitian symmetry
    with pytest.raises(InvalidStateError, match=(
            r"traciality fails: phi\(\[1, 1, 1, 1, 2, 2\]\)")):
        MomentTable(2, 8, entries, tracial=True)
    # the cumulants of a spec, on every word
    kappa = {(1, 1): 1.0, (2, 2): 1.0, (1, 1, 2, 2, 2): 0.1,
             (2, 2, 2, 1, 1): 0.3}
    with pytest.raises(InvalidStateError, match=(
            r"kappa\(\[1, 1, 2, 2, 2\]\) = \(0\.1\+0j\) but conj "
            r"kappa\(\[2, 2, 2, 1, 1\]\)")):
        CumulantSpec(2, kappa, max_order=6)


def test_specs_store_the_hermitian_part(rng):
    # within HERM_TOL of Hermitian; an absent reversal reads 0
    spec = CumulantSpec(2, {(1, 2): 0.5 + 1e-9j, (2, 1): 0.5 - 3e-9j,
                            (1, 1, 2): 1e-9, (1, 1): 1 + 1e-9j})
    assert spec.kappa == {(1, 2): 0.5 + 2e-9j, (2, 1): 0.5 - 2e-9j,
                          (2, 1, 1): 5e-10, (1, 1, 2): 5e-10, (1, 1): 1}
    # an exactly Hermitian input is stored bit for bit
    kappa = dict(rand_cumulant_spec(rng, 2, 6).kappa)
    assert CumulantSpec(2, kappa, max_order=6).kappa == kappa


def _reversal_defects(phi):
    """The words up to ``phi.max_order`` whose reversal does not read the
    conjugate moment bit for bit."""
    words = words_up_to(phi.nvars, phi.max_order, min_len=1)
    got = phi.word_moments(words)
    back = phi.word_moments([w[::-1] for w in words])
    return [w for w, a, b in zip(words, got.tolist(), back.tolist())
            if a != b.conjugate()]


def test_every_state_is_exactly_hermitian(rng, np_rng):
    from freestein import (EnsembleConfig, GueGenerator, mc_moment_table,
                           rescale_cumulants)

    table, _ = trace_state(np_rng, 2, 6, 6)
    derived = CumulantState(moments_to_cumulants(table, 6))
    words = words_up_to(2, 6)
    assert np.abs(derived.word_moments(words)
                  - table.word_moments(words)).max() < 1e-12
    sampled = mc_moment_table(EnsembleConfig(
        size=8, samples=3, seed=5,
        generators=(GueGenerator(), GueGenerator())), 6)
    spec = rand_cumulant_spec(rng, 2, 6)
    for phi in (semicircular(2, 8), centered_free_poisson(2, 8), table,
                sampled, derived, CumulantState(spec),
                CumulantState(rescale_cumulants(spec, 4))):
        assert _reversal_defects(phi) == []


def test_dirichlet_gram_copies_the_upper_triangle_as_the_triangle_sum(
        monkeypatch, np_rng):
    # a gather Hermitian only within the check's tolerance, with signed
    # zeros in every part of both triangles: the copy keeps the bytes of
    # the triangle sum, lower triangle unread
    n = 12
    a = np_rng.standard_normal((n, n)) + 1j * np_rng.standard_normal((n, n))
    gram = a + a.conj().T
    for part in (gram.real, gram.imag):
        for zero in (0.0, -0.0):
            part[np_rng.random((n, n)) < 0.2] = zero
    lower = np.tri(n, k=-1, dtype=bool)
    gram = np.where(lower, gram.conj().T, gram)
    gram.real[lower] += 1e-12 * np_rng.standard_normal(lower.sum())
    gram.imag.flat[::n + 1] = 1e-12
    monkeypatch.setattr(states, "pairing_gather", lambda *args: gram.T)
    got = states.dirichlet_gram(semicircular(1), words_up_to(1, n, min_len=1))
    assert got.tobytes() == bruteforce.triangle_copy(gram).tobytes()
    assert np.array_equal(got, got.conj().T)


def test_check_state_raises_the_violations():
    check_state(semicircular(2))
    indef = MomentTable(1, 4, {(1, 1): -1.0})
    problems = validate_state(indef)
    with pytest.raises(InvalidStateError) as err:
        check_state(indef)
    assert err.value.violations == tuple(problems)
    assert str(err.value) == "state failed validation: " + "; ".join(problems)


def test_mixed_alternating_words_vanish_for_identity_covariance(rng):
    sc = semicircular(3)
    word = (1, 2, 3, 1, 2, 3)
    assert sc.moment(word) == pytest.approx(0.0, abs=1e-12)


def _dense_hermitian_spec(nvars, max_order, seed):
    """Every word of length >= 2 gets a complex cumulant, with
    kappa(rev w) = conj kappa(w); nothing makes it cyclic, so the state
    is not tracial and its classes are reversal pairs."""
    import random

    rng = random.Random(seed)
    kappa = {}
    for w in words_up_to(nvars, max_order, min_len=2):
        if w not in kappa:
            v = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            kappa[w] = complex(v.real) if w == w[::-1] else v
            kappa[w[::-1]] = kappa[w].conjugate()
    return CumulantSpec(nvars, kappa, max_order=max_order)


def test_concurrent_moment_reads_are_consistent():
    # the memo cache is shared by all threads; hammer it from several
    import sys
    import threading

    dense = _dense_hermitian_spec(2, 8, seed=5)
    assert not CumulantState(dense).tracial
    classes = trace_state(np.random.default_rng(5), 2, 6, 8)[0].stored()[0]
    cases = [
        (lambda: semicircular(2, max_order=8),
         words_up_to(2, 8, min_len=1)),
        # cold dense state: threads start on different long words, so the
        # recursion of one fills gap subwords another is reading
        (lambda: CumulantState(dense), words_up_to(2, 8, min_len=1)[::-1]),
        # cold table: threads start on words of different lengths, so
        # their reads grow its class index at once
        (lambda: MomentTable.from_bracelets(2, 8, classes),
         words_up_to(2, 8, min_len=1)),
    ]
    for make, words in cases:
        shared = make()
        expected = {w: make().moment(w) for w in words}
        errors = []

        def worker(offset):
            # odd threads read through the batches, in chunks of 50 words
            # and by the codes of the words w w
            try:
                turn = words[offset:] + words[:offset]
                if offset % 2 == 0:
                    got = [shared.moment(w) for w in turn]
                else:
                    got = []
                    for lo in range(0, len(turn), 50):
                        chunk = turn[lo:lo + 50]
                        got += shared.word_moments(chunk).tolist()
                    halves = [w for w in turn if 2 * len(w) <= 8]
                    paired = shared.code_moments(
                        *word_codes([w + w for w in halves], 2))
                    for w, value in zip(halves, paired.tolist()):
                        if value != expected[w + w]:
                            errors.append(w + w)
                for w, value in zip(turn, got):
                    if value != expected[w]:
                        errors.append(w)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k * 37,))
                       for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors


def _pair_batch(nvars, max_order):
    """(words, codes, lengths): the words u rev v of every pair of words
    of length <= half the order, as ``moment_matrix`` asks them, in a
    shuffled order."""
    legs = words_up_to(nvars, max_order // 2)
    us, vs = np.divmod(np.arange(len(legs) ** 2), len(legs))
    order = np.random.default_rng(len(legs)).permutation(len(us))
    words = [legs[u] + legs[v][::-1]
             for u, v in zip(us[order].tolist(), vs[order].tolist())]
    return (words, *word_codes(words, nvars))


@pytest.mark.parametrize(**MODES)
@settings(max_examples=10)
@given(data=st.data())
def test_batch_reads_match_the_per_entry_oracle(cyclic, data):
    spec = data.draw(symmetry_specs(cyclic))
    asked, *batch = _pair_batch(spec.nvars, spec.max_order)
    # the oracle reads each entry on its own, from a memo keyed by word
    oracle = bruteforce.WordMemoState(spec)
    want = [oracle.moment(w) for w in asked]
    words = words_up_to(spec.nvars, spec.max_order)
    want_words = [oracle.moment(w) for w in words]
    # cold, warmed by a random part of the words, and warm
    cold = CumulantState(spec)
    assert cold.code_moments(*batch).tolist() == want
    part = CumulantState(spec)
    for w in data.draw(st.lists(st.sampled_from(words), max_size=20)):
        part.moment(w)
    assert part.word_moments(words[::-1]).tolist() == want_words[::-1]
    assert part.code_moments(*batch).tolist() == want
    assert cold.code_moments(*batch).tolist() == want
    assert cold.word_moments(words).tolist() == want_words


@pytest.mark.parametrize("bad, error", [((1,) * 7, BudgetExceededError),
                                        ((1, 3), ValueError),
                                        ((0,), ValueError)])
def test_batch_reads_raise_as_moment_does(bad, error):
    # the bad word comes after misses and hits, on a warm and a cold state
    words = [(1, 2), (2, 2, 1, 1), bad, (1, 1, 2, 2, 2, 1), (1,) * 8]
    for warm in (False, True):
        state, oracle = semicircular(2, max_order=6), semicircular(2, 6)
        if warm:
            for w in words_up_to(2, 6):
                state.moment(w)
        with pytest.raises(error) as want:
            for w in words:  # word by word, as a caller of ``moment``
                oracle.moment(w)
        with pytest.raises(error) as got:
            state.word_moments(words)
        assert str(got.value) == str(want.value)
        assert vars(got.value) == vars(want.value)
        # a batch by code holds only words of letters 1..n, and checks
        # its longest word first, as ``moment`` checks that word
        coded = [w for w in words if w != bad or error is BudgetExceededError]
        with pytest.raises(BudgetExceededError) as want:
            oracle.moment(max(coded, key=len))
        with pytest.raises(BudgetExceededError) as got:
            state.code_moments(*word_codes(coded, 2))
        assert str(got.value) == str(want.value)
        assert vars(got.value) == vars(want.value)


def test_warm_batches_do_not_call_moment(monkeypatch):
    # a warm batch is read from the memo alone, and a cold one asks only
    # for the words whose class no earlier word of the batch filled
    calls = []
    moment = CumulantState.moment

    def counted(self, word):
        calls.append(tuple(word))
        return moment(self, word)

    monkeypatch.setattr(CumulantState, "moment", counted)
    fp = centered_free_poisson(2, max_order=8)
    batch = _pair_batch(2, 8)[1:]
    cold = fp.code_moments(*batch)
    assert 0 < len(calls) <= len(bracelets_up_to(2, 8, min_len=1))
    assert len(set(calls)) == len(calls)
    calls.clear()
    assert fp.code_moments(*batch).tolist() == cold.tolist()
    assert fp.word_moments(words_up_to(2, 8)).size == len(words_up_to(2, 8))
    assert calls == []


def test_block_codes_map_words_and_their_prefixes():
    # each stored word's code maps to its position, each shorter prefix
    # that is no stored word to -1, and no other code is in the map
    spec = CumulantSpec(2, {(1, 2, 2): 3j, (2, 2, 1): -3j, (1,): 2.0})
    assert spec.words == ((1, 2, 2), (2, 2, 1), (1,))
    assert spec.values.tolist() == [3j, -3j, 2]

    def code(*word):
        return int(word_codes([word], 2)[0][0])

    assert spec.blocks == {code(1, 2, 2): 0, code(2, 2, 1): 1, code(1): 2,
                           code(1, 2): -1, code(2): -1, code(2, 2): -1}
    assert CumulantSpec(2, {}).blocks == {}


def test_order_cap_moments_in_bounded_memory(rng):
    # at max_order 16 the recursion must neither enumerate NC(16) nor
    # hold more than a small memo
    import tracemalloc

    from freestein import partitions

    cached_orders = set(partitions._cache)
    tracemalloc.start()
    try:
        assert semicircular(1, 16).moment((1,) * 16) == catalan(8) == 1430
        riordan_16 = centered_free_poisson(1, 16).moment((1,) * 16)
        assert riordan_16 == centered_free_poisson_moment(16) == 227475
        spec = rand_cumulant_spec(rng, 1, 16)
        back = moments_to_cumulants(CumulantState(spec), 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for w in words_up_to(1, 16, min_len=1):
        orig = spec.value(w)
        assert back.value(w) == pytest.approx(orig, abs=1e-9 * max(1.0, abs(orig)))
    assert peak < 64 * 2**20
    assert set(partitions._cache) == cached_orders
