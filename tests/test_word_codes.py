"""Integer word codes and the class-stored moment table: the vectorized
canonicalizer and the class enumeration ``bracelet_classes`` against the
oracle's tuple rule ``bracelet_rep`` on every short word, the int64
boundary, batch lookups against scalar ones (with the class index under
a small cap too), the solver and writer paths running without the word
maps, and the code-keyed pairing path against the tuple-keyed oracle."""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import (
    BudgetExceededError,
    CumulantState,
    MomentTable,
    NcPoly,
    serialize,
    states,
)
from freestein.cli import main
from freestein.stein import SteinProblem, kernel_rhs
from freestein.states import (
    bracelet_classes,
    canonical_codes,
    code_word,
    dirichlet_gram,
    inner_tuple,
    moment_matrix,
    word_codes,
    words_up_to,
)

import bruteforce
from bruteforce import bracelet_orbit, bracelet_rep, rotations
from conftest import (
    rand_cumulant_spec,
    rand_hermitian,
    rand_selfadjoint_poly,
    trace_state,
)


def test_codes_number_words_in_graded_lex_order():
    for n, order in ((1, 12), (2, 8), (3, 5)):
        words = words_up_to(n, order)
        codes, lengths = word_codes(words, n)
        assert codes.dtype == lengths.dtype == np.int64
        assert codes.tolist() == list(range(len(words)))
        assert lengths.tolist() == [len(w) for w in words]
        assert [code_word(c, n) for c in codes.tolist()] == words
    # code(u + v) = code(u) n^|v| + code(v)
    u, v = (2, 1, 3), (3, 3, 1, 2)
    (cu, cv, cuv), _ = word_codes([u, v, u + v], 3)
    assert cuv == cu * 3 ** len(v) + cv


@pytest.mark.parametrize("n, order", [(2, 10), (3, 6), (1, 12)])
def test_canonicalizer_matches_bracelet_rep_on_every_word(n, order):
    words = words_up_to(n, order)
    codes, lengths = word_codes(words, n)
    keys, flipped, closed = canonical_codes(codes, lengths, n)
    for w, key, flip, shut in zip(words, keys.tolist(), flipped.tolist(),
                                  closed.tolist()):
        assert (code_word(key, n), flip) == bracelet_rep(w), w
        assert shut == (not bracelet_orbit(w)[1]), w
    # the classes, enumerated by code, are the oracle's
    reps, closed = bracelet_classes(n, order)
    assert reps == bruteforce.bracelets_up_to(n, order, min_len=1)
    assert closed.tolist() == [not bracelet_orbit(w)[1] for w in reps]
    # a reversal class is a word and its reversal, by the lesser code
    keys, flipped, closed = canonical_codes(codes, lengths, n, bracelet=False)
    assert [code_word(key, n) for key in keys.tolist()] == [
        min(w, w[::-1]) for w in words]
    assert flipped.tolist() == [w[::-1] < w for w in words]
    assert closed.tolist() == [w[::-1] == w for w in words]


@pytest.mark.parametrize("n, longest", [(2, 62), (3, 39)])
def test_codes_stop_at_the_int64_boundary(n, longest):
    rng = np.random.default_rng(longest)
    words = [(n,) * longest, (1,) * longest,
             tuple(int(x) for x in rng.integers(1, n + 1, size=longest)),
             tuple(int(x) for x in rng.integers(1, n + 1, size=longest - 1))]
    codes, lengths = word_codes(words, n)
    # no code wrapped: each equals the exact integer
    for w, c in zip(words, codes.tolist()):
        exact = 0
        for letter in w:
            exact = exact * n + letter
        assert c == exact and 0 < c < 2 ** 63
        assert code_word(c, n) == w
    assert codes[0] == (n ** (longest + 1) - 1) // (n - 1) - 1
    keys, flipped, _ = canonical_codes(codes, lengths, n)
    for w, key, flip in zip(words, keys.tolist(), flipped.tolist()):
        assert (code_word(key, n), flip) == bracelet_rep(w)

    too_long = (1,) * (longest + 1)
    with pytest.raises(BudgetExceededError) as err:
        word_codes([too_long], n)
    assert (err.value.needed, err.value.available) == (longest + 1, longest)
    with pytest.raises(BudgetExceededError):
        canonical_codes([0], [longest + 1], n)
    table = MomentTable.from_bracelets(n, 2 * longest, {(1, 1): 1.0})
    assert table.moment(words[1]) == 0
    # the view of the class index stays within its cap; longer words
    # are read past it
    assert len(table._view[0].slot) <= states._INDEX_CAP < codes[1]
    assert table.word_moments([(1, 1), words[0]]).tolist() == [1, 0]
    with pytest.raises(BudgetExceededError):
        table.moment(too_long)
    # a pairing is checked before the codes of its pairs are formed
    half = NcPoly.monomial((1,) * ((longest + 2) // 2), n)
    with pytest.raises(BudgetExceededError):
        inner_tuple(table, (half,) * n, (half,) * n)


# ---------------------------------------------------------------------------
# batch lookups against scalar ones


def _tables(n, order, seed):
    """A class-stored and a word-list table with some words absent, and
    the word maps they stand for.  The word-list table is tracial for an
    odd seed, and holds random values constant on its classes: the
    rotations, when tracial, and reversals of a word, the reversed ones
    conjugated."""
    rng = np.random.default_rng(seed)
    mats = [rand_hermitian(rng, 3) for _ in range(n)]
    full = bruteforce.einsum_word_traces(mats, 3, order,
                                         words_up_to(n, order, min_len=1))
    reps = [w for w in bruteforce.bracelets_up_to(n, order, min_len=1)
            if rng.random() < 0.7]
    classes = {w: full[w] for w in reps}
    tracial = bool(seed % 2)
    words = {}
    for w in full:
        if w in words or rng.random() >= 0.5:
            continue
        orbit = rotations(w) if tracial else [w]
        value = complex(*rng.normal(size=2))
        if w[::-1] in orbit:
            value = complex(value.real)
        for turn in orbit:
            words[turn], words[turn[::-1]] = value, value.conjugate()
    # real standard errors on some classes and words
    errors = {w: float(rng.random()) for w in reps[::2]}
    return [
        (MomentTable.from_bracelets(n, order, classes, stderr=errors or None),
         {(): 1 + 0j, **bruteforce.expand_bracelets(classes)}),
        (MomentTable(n, order, words, tracial=tracial),
         {(): 1 + 0j, **words}),
    ]


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_batch_lookups_equal_scalar_lookups(n, order, seed, data):
    # a first batch of every word up to some length pays for the view of
    # the class index to that length, within the cap, so the batches
    # after it read short codes through the view and longer ones past
    # it; a small cap sends more codes down the far path
    cap = data.draw(st.sampled_from((1, 5, 40, states._INDEX_CAP)))
    all_words = words_up_to(n, order)
    tables = _tables(n, order, seed)
    # a sparse word-list table whose codes run far past the cap
    sparse = {(1,) * 40: 0.5}
    tables.append((MomentTable(2, 40, sparse, tracial=True),
                   {(): 1 + 0j, **sparse}))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_INDEX_CAP", cap)
        for table, want in tables:
            words = words_up_to(table.nvars, data.draw(st.integers(0, order)))
            table.word_moments(words)
            stored = sorted(want, key=lambda w: (len(w), w))
            # stored words, their rotations and reversals, and any word
            picks = data.draw(st.lists(st.sampled_from(stored), max_size=8))
            asked = (picks + [r for w in picks for r in rotations(w)]
                     + [w[::-1] for w in picks]
                     + data.draw(st.lists(st.sampled_from(all_words),
                                          max_size=8)))
            asked = [w for w in asked if max(w, default=1) <= table.nvars]
            tracemalloc.start()
            got = table.word_moments(asked)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert got.dtype == complex
            for w, value in zip(asked, got.tolist()):
                assert value == table.moment(w) == want.get(w, 0)
            # the same words asked by code, as the pairings ask
            coded = table.code_moments(*word_codes(asked, table.nvars))
            assert coded.tolist() == got.tolist()
            if table.bracelet:
                assert len(table._view[0].slot) <= cap
            else:
                # no class index, and nothing allocated by code range
                assert not hasattr(table, "_view") and peak < 1 << 20


def test_view_grows_only_as_batches_pay(monkeypatch):
    monkeypatch.setattr(states, "_INDEXES", {})
    table = MomentTable.from_bracelets(2, 40, {(1, 1): 1.0, (1, 2, 2): 0.5})
    # a lone read pays for no length: it is read past the view
    assert table.moment((1, 1)) == 1
    assert table._view[0].top == 0
    # every word of length <= 2 pays for the codes up to length 2
    assert table.word_moments(words_up_to(2, 2)).tolist() == [1, 0, 0, 1,
                                                              0, 0, 0]
    short = table._view[0].slot
    assert len(short) == 7
    # the 8 words of length 3 pay for the 8 codes of that length, which
    # are appended
    read = table.word_moments(words_up_to(2, 3, min_len=3)).tolist()
    assert read == [0, 0, 0, 0.5, 0, 0.5, 0.5, 0]
    assert len(table._view[0].slot) == 15
    assert table._view[0].slot[:7].tolist() == short.tolist()
    # a shorter read leaves the view as it is, and so does a lone read
    # past it
    grown = table._view
    assert table.moment((1, 2)) == 0 and table.moment((1,) * 40) == 0
    assert table._view is grown
    # another table of the same letters reads the index built for the
    # first: its view grows for free to the longest word read
    other = MomentTable.from_bracelets(2, 40, {(1, 2): 0.25})
    assert other.moment((2, 1)) == 0.25 and len(other._view[0].slot) == 7
    # a batch grows the view to the cap at most
    monkeypatch.setattr(states, "_INDEX_CAP", 100)
    assert len(other.word_moments(words_up_to(2, 7))) == 255
    assert other._view[0].top == 5  # 63 codes; length 6 would take 127


def test_lookups_check_letters_and_order():
    for table, _ in _tables(2, 4, 7):
        for ask in (table.moment, lambda w: table.word_moments([(1,), w])):
            with pytest.raises(ValueError, match="letter 3 out of range"):
                ask((1, 3))
            with pytest.raises(ValueError, match="letter 0 out of range"):
                ask((0,))
            with pytest.raises(BudgetExceededError) as err:
                ask((1,) * 5)
            assert (err.value.needed, err.value.available) == (5, 4)


def test_letters_past_int64_are_out_of_range():
    for word in ((1, 2 ** 70), (-2 ** 70,)):
        with pytest.raises(ValueError, match=f"letter {word[-1]} out of range"):
            word_codes([(1,), word], 2)
        with pytest.raises(ValueError, match="out of range"):
            MomentTable(2, 4, {word: 0.5})


# ---------------------------------------------------------------------------
# solver and writer paths never expand a class-stored table


def test_solvers_and_writers_read_no_word_map(tmp_path, capsys, monkeypatch,
                                              np_rng):
    table = trace_state(np_rng, 2, 6, 8, centered=True)[0]
    path = tmp_path / "table.json"
    path.write_text(serialize.dumps(serialize.table_to_obj(table)))
    ensemble = tmp_path / "ensemble.json"
    ensemble.write_text(json.dumps({"N": 12, "samples": 3, "seed": 5,
                                    "generators": [{"kind": "gue"}] * 2}))
    runs = (["poincare", "--state", str(path), "--degree", "3"],
            ["stein", "--state", str(path), "--degree", "3"],
            ["mc", "--ensemble", str(ensemble), "--max-order", "4"],
            ["poincare", "--ensemble", str(ensemble), "--degree", "2"])
    outputs = []
    for argv in runs:
        assert main(argv) == 0
        outputs.append(capsys.readouterr().out)

    # a tracial word-list table whose classes agree is written by word
    def word_list():
        return MomentTable(2, 3, {w: table.moment(w)
                                  for w in words_up_to(2, 3, min_len=1)},
                           tracial=True)
    written = serialize.dumps(serialize.table_to_obj(word_list()))

    for argv, want in zip(runs, outputs):
        assert main(argv) == 0
        assert capsys.readouterr().out == want
    assert serialize.dumps(serialize.table_to_obj(word_list())) == written
    assert '"classes"' not in written


# ---------------------------------------------------------------------------
# the code-keyed pairing path against the tuple-keyed oracle


@st.composite
def pairing_cases(draw):
    """(state, degree, potential) of 1..3 variables and degree 0..4: a
    tracial trace-state table, a density-matrix table (not tracial), or a
    cyclic or non-cyclic cumulant spec, with max order just enough for
    the moment matrix to the degree and the minimal-kernel right-hand
    side of a random self-adjoint potential of degree 2..5, whose kernel
    legs may pass what the moment matrix covers."""
    kind = draw(st.sampled_from(("trace", "density", "cyclic", "plain")))
    n, degree = draw(st.integers(1, 3)), draw(st.integers(0, 4))
    rng = draw(st.randoms(use_true_random=False))
    potential = rand_selfadjoint_poly(rng, n, draw(st.integers(2, 5)), terms=3)
    order = max(2 * degree, potential.degree() + degree, 2)
    np_rng = np.random.default_rng(rng.getrandbits(32))
    if kind == "trace":
        state = trace_state(np_rng, n, 3, order)[0]
    elif kind == "density":
        g = np_rng.standard_normal((3, 3)) + 1j * np_rng.standard_normal((3, 3))
        rho = g @ g.conj().T / np.trace(g @ g.conj().T).real
        mats = [rand_hermitian(np_rng, 3) for _ in range(n)]
        entries = {}
        for w in words_up_to(n, order, min_len=1):
            acc = rho
            for letter in w:
                acc = acc @ mats[letter - 1]
            entries[w] = complex(np.trace(acc))
        state = MomentTable(n, order, entries)
    else:
        state = CumulantState(rand_cumulant_spec(rng, n, order,
                                                 cyclic=kind == "cyclic"))
    return state, degree, potential


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@settings(max_examples=30)
@given(pairing_cases(), st.sampled_from((1, 7, states._GATHER_BLOCK)))
def test_code_pairings_match_the_tuple_oracle_byte_for_byte(case, block):
    phi, d, v = case
    prob = SteinProblem(phi, v)
    with_unit = words_up_to(phi.nvars, d)

    def rhs():
        _same_bytes(kernel_rhs(prob, with_unit[1:]),
                    bruteforce.tuple_kernel_rhs(prob, with_unit[1:]))

    # positivity checks are off, as most random specs are not states;
    # a small block cap splits each key's pairs into many blocks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "graded_cholesky", lambda *a, **k: None)
        patch.setattr(states, "_GATHER_BLOCK", block)
        # no moment matrix yet, so every entry comes from the backend;
        # then one to length d - 1, which covers the Jacobian legs, and
        # one to length d, each read where it covers the legs
        for length in (None, d - 1, d):
            if length == d:
                _same_bytes(moment_matrix(phi, d),
                            bruteforce.tuple_moment_matrix(phi, d))
            elif length is not None:
                moment_matrix(phi, max(length, 0))
            for words in (with_unit, with_unit[1:], with_unit[::-1]):
                _same_bytes(dirichlet_gram(phi, words),
                            bruteforce.tuple_dirichlet_gram(phi, words))
            rhs()


def test_a_table_reads_its_moment_matrix_in_one_batch(monkeypatch):
    table = trace_state(np.random.default_rng(8), 2, 4, 8)[0]
    calls = []
    lookup = MomentTable.code_moments

    def counted(self, codes, lengths):
        calls.append(len(codes))
        return lookup(self, codes, lengths)

    monkeypatch.setattr(MomentTable, "code_moments", counted)
    hankel = moment_matrix(table)
    # one gather over the codes of all 31 x 31 pairs of words of length
    # <= 4, not one per leg or per term
    assert calls == [31 * 31] and hankel.shape == (31, 31)
