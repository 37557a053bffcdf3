"""Integer word codes and the class-stored moment table: the vectorized
canonicalizer and the class enumeration ``bracelet_classes`` against the
oracle's tuple rule ``bracelet_rep`` on every short word, the int64
boundary, batch lookups against scalar ones (with the class index under
a small cap too), and the
solver and writer paths running without the word maps."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import BudgetExceededError, MomentTable, serialize, states
from freestein.cli import main
from freestein.states import (
    bracelet_classes,
    canonical_codes,
    code_word,
    rotations,
    word_codes,
    words_up_to,
)

import bruteforce
from bruteforce import bracelet_orbit, bracelet_rep
from conftest import rand_hermitian, trace_state


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
    # a word-list table is its own class
    keys, flipped, closed = canonical_codes(codes, lengths, n, bracelet=False)
    assert keys.tolist() == codes.tolist()
    assert not flipped.any() and not closed.any()


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
    # the class index stops at its cap; longer words are read past it
    assert len(table._index[0]) <= states._INDEX_CODES < codes[1]
    assert table.word_moments([(1, 1), words[0]]).tolist() == [1, 0]
    with pytest.raises(BudgetExceededError):
        table.moment(too_long)
    # the pair is checked before its code is formed
    half = (1,) * ((longest + 2) // 2)
    with pytest.raises(BudgetExceededError):
        table.pair_moments([half], [half], np.zeros(1, int), np.zeros(1, int))


# ---------------------------------------------------------------------------
# batch lookups against scalar ones


def _tables(n, order, seed):
    """A class-stored and a word-list table with some words absent, and
    the word maps they stand for."""
    rng = np.random.default_rng(seed)
    mats = [rand_hermitian(rng, 3) for _ in range(n)]
    full = bruteforce.einsum_word_traces(mats, 3, order,
                                         words_up_to(n, order, min_len=1))
    reps = [w for w in bruteforce.bracelets_up_to(n, order, min_len=1)
            if rng.random() < 0.7]
    classes = {w: full[w] for w in reps}
    words = {w: complex(*rng.normal(size=2)) for w in full
             if rng.random() < 0.5}
    # real standard errors on some classes and words
    errors = {w: float(rng.random()) for w in reps[::2]}
    return [
        (MomentTable.from_bracelets(n, order, classes, stderr=errors or None),
         {(): 1 + 0j, **bruteforce.expand_bracelets(classes)}),
        (MomentTable(n, order, words, tracial=bool(seed % 2)),
         {(): 1 + 0j, **words}),
    ]


@settings(max_examples=40)
@given(st.integers(1, 3), st.integers(1, 6), st.integers(0, 2 ** 32 - 1),
       st.data())
def test_batch_lookups_equal_scalar_lookups(n, order, seed, data):
    # a small index cap sends the longer codes down the canonicalizing
    # path, beside the codes the index covers in the same batch
    cap = data.draw(st.sampled_from((1, 5, 40, states._INDEX_CODES)))
    all_words = words_up_to(n, order)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(states, "_INDEX_CODES", cap)
        tables = _tables(n, order, seed)
    for table, want in tables:
        stored = sorted(want, key=lambda w: (len(w), w))
        # stored words, their rotations and reversals, and any word
        picks = data.draw(st.lists(st.sampled_from(stored), max_size=8))
        asked = (picks + [r for w in picks for r in rotations(w)]
                 + [w[::-1] for w in picks]
                 + data.draw(st.lists(st.sampled_from(all_words), max_size=8)))
        got = table.word_moments(asked)
        assert got.dtype == complex
        for w, value in zip(asked, got.tolist()):
            assert value == table.moment(w) == want.get(w, 0)
        # split each asked word into a left and a reversed right leg
        cuts = [data.draw(st.integers(0, len(w))) for w in asked]
        lefts = [w[:k] for w, k in zip(asked, cuts)]
        rights = [w[k:] for w, k in zip(asked, cuts)]
        index = np.arange(len(asked))
        paired = table.pair_moments(lefts, rights, index, index)
        assert paired.tolist() == got.tolist()
        assert len(table._index[0]) <= cap


def test_index_grows_with_the_longest_word_read():
    # a short first read of a long table maps only the short codes
    table = MomentTable.from_bracelets(2, 40, {(1, 1): 1.0, (1, 2, 2): 0.5})
    assert table.moment((1, 1)) == 1
    short = table._index[0]
    assert len(short) == 7  # the codes of the words of length <= 2
    # a longer read appends the codes up to its length
    assert table.word_moments([(2, 1, 2), (2,)]).tolist() == [0.5, 0]
    assert len(table._index[0]) == 15
    assert table._index[0][:7].tolist() == short.tolist()
    # a shorter one leaves the index as it is
    grown = table._index
    assert table.moment((1, 2)) == 0
    assert table._index is grown
    # a read past the cap grows the index to the cap alone
    assert table.moment((1,) * 40) == 0
    top = table._index_top
    assert (len(table._index[0]) == states._largest_code(2, top) + 1
            <= states._INDEX_CODES < states._largest_code(2, top + 1) + 1)


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
