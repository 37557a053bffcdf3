"""Bracelet classes of tracial tables: the class rule, the class counts,
and a property test of class-format tables built from random Hermitian
matrix tuples against the per-word ``einsum`` oracle."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import (
    EnsembleConfig,
    GueGenerator,
    MomentTable,
    mc_moment_table,
    moment_table_from_matrices,
    serialize,
)
from freestein.states import (
    BraceletError,
    bracelet_classes,
    words_up_to,
)

import bruteforce
from bruteforce import (
    bracelet_orbit,
    bracelet_rep,
    bracelets_up_to,
    expand_bracelets,
    rotations,
)
from conftest import rand_hermitian


def test_bracelet_rep_and_orbit():
    # (1, 2, 3) and its reversal (3, 2, 1) lie in different rotation classes
    assert bracelet_rep((2, 1, 3)) == ((1, 2, 3), True)
    assert bracelet_rep((3, 1, 2)) == ((1, 2, 3), False)
    rots, flipped = bracelet_orbit((1, 2, 3))
    assert rots == [(1, 2, 3), (2, 3, 1), (3, 1, 2)]
    assert sorted(flipped) == [(1, 3, 2), (2, 1, 3), (3, 2, 1)]
    # every binary word of length 3 is a rotation of its reversal
    assert bracelet_rep((2, 1, 1)) == ((1, 1, 2), False)
    assert bracelet_orbit((1, 1, 2))[1] == []
    # pure powers are their own representatives
    assert bracelet_rep((2,) * 5) == ((2,) * 5, False)
    assert bracelet_rep(()) == ((), False)


def test_expand_bracelets_conjugates_and_realifies():
    out = expand_bracelets({(1, 2, 3): 1 + 2j, (1, 1, 2): 3 + 1e-12j})
    assert out[(2, 3, 1)] == 1 + 2j
    assert out[(3, 2, 1)] == 1 - 2j
    assert out[(2, 1, 1)] == 3 + 0j and isinstance(out[(2, 1, 1)], complex)
    # real standard errors expand by the same rule and stay floats
    assert expand_bracelets({(1, 2, 3): 0.25})[(2, 1, 3)] == 0.25
    with pytest.raises(BraceletError, match="closed under reversal") as err:
        expand_bracelets({(1,): 0.5j})
    assert err.value.word == (1,)
    with pytest.raises(BraceletError, match="representative") as err:
        expand_bracelets({(1, 3, 2): 1.0})
    assert err.value.word == (1, 3, 2)


def test_class_counts():
    for n, order, count in ((2, 12, 558), (3, 8, 867), (2, 6, 36),
                            (1, 9, 9)):
        reps = bracelets_up_to(n, order, min_len=1)
        assert len(reps) == count
        # the integer rule gives the same classes and reversal flags
        got, closed = bracelet_classes(n, order)
        assert got == reps
        assert closed.tolist() == [not bracelet_orbit(w)[1] for w in reps]
    # the classes partition the words
    for n, order in ((2, 7), (3, 5)):
        reps = bracelets_up_to(n, order, min_len=1)
        expanded = expand_bracelets(dict.fromkeys(reps, 1.0))
        assert sorted(expanded) == sorted(words_up_to(n, order, min_len=1))


def test_reference_size_table_has_36_entries(np_rng):
    mats = [rand_hermitian(np_rng, 6) for _ in range(2)]
    obj = serialize.table_to_obj(moment_table_from_matrices(mats, 6))
    assert obj["classes"] == "bracelet"
    assert len(obj["entries"]) == 36


def _round_trip(table):
    obj = serialize.table_to_obj(table)
    assert obj["classes"] == "bracelet"
    return serialize.table_from_obj(json.loads(serialize.dumps(obj)))


def _assert_bracelet_exact(table, words):
    """The values of ``table`` on ``words``, which must be exactly
    tracial and Hermitian symmetric."""
    got = bruteforce.word_values(table, words)
    for w, v in got.items():
        for r in rotations(w):
            assert got[r] == v
        assert got[w[::-1]] == v.conjugate()
    return got


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want) + 1e-14


tuples = st.tuples(
    st.integers(1, 3),            # nvars
    st.integers(1, 6),            # max_order
    st.integers(1, 6),            # matrix size
    st.integers(0, 2**32 - 1),    # seed
)


@settings(max_examples=30)
@given(tuples)
def test_matrix_tables_by_class(params):
    n, order, size, seed = params
    rng = np.random.default_rng(seed)
    mats = [rand_hermitian(rng, size) for _ in range(n)]
    table = moment_table_from_matrices(mats, order)
    back = _round_trip(table)
    assert back.stored() == table.stored()
    assert back.tracial and back.norm_upper == table.norm_upper
    words = words_up_to(n, order, min_len=1)
    got = _assert_bracelet_exact(table, words)
    want = bruteforce.einsum_word_traces(mats, size, order, words)
    for w in words:
        assert _close(got[w], want[w])


@settings(max_examples=15)
@given(tuples, st.integers(2, 3))
def test_mc_tables_by_class(params, samples):
    n, order, size, seed = params
    cfg = EnsembleConfig(size=size, samples=samples, seed=seed,
                         generators=(GueGenerator(),) * n)
    table = mc_moment_table(cfg, order)
    back = _round_trip(table)
    assert back.stored() == table.stored()
    words = words_up_to(n, order, min_len=1)
    got = _assert_bracelet_exact(table, words)
    got_stderr = bruteforce.word_stderr(table)
    entries, stderr, _ = bruteforce.mc_moment_oracle(cfg, order)
    for w in words:
        assert _close(got[w], entries[w])
        assert _close(got_stderr[w], stderr[w])


def test_word_list_tables_are_written_by_word():
    entries = {(1,): 0.0, (1, 2): 0.5j, (2, 1): -0.5j, (1, 1): 1.0}
    table = MomentTable(2, 2, entries)
    obj = serialize.table_to_obj(table)
    assert "classes" not in obj
    assert [e["word"] for e in obj["entries"]] == [[1], [1, 1], [1, 2], [2, 1]]
    # so is a tracial table whose classes agree exactly, and it loads to
    # the same values and standard errors
    agreeing = MomentTable(2, 3, {(1, 2): 0.5, (2, 1): 0.5, (1, 1): 1.0,
                                  (1, 1, 2): 0.25, (1, 2, 1): 0.25,
                                  (2, 1, 1): 0.25},
                           tracial=True, stderr={(1, 2): 0.1, (2, 1): 0.1})
    obj = serialize.table_to_obj(agreeing)
    assert "classes" not in obj
    assert [e["word"] for e in obj["entries"]] == [
        [1, 1], [1, 2], [2, 1], [1, 1, 2], [1, 2, 1], [2, 1, 1]]
    back = serialize.table_from_obj(json.loads(serialize.dumps(obj)))
    assert not back.bracelet and back.tracial
    assert back.stored() == agreeing.stored()
    # as are one whose standard errors differ within a class and a
    # non-tracial one
    for table in (MomentTable(2, 2, {(1, 2): 0.5, (2, 1): 0.5}, tracial=True,
                              stderr={(1, 2): 0.1, (2, 1): 0.2}),
                  MomentTable(1, 2, {(1, 1): 1.0})):
        assert "classes" not in serialize.table_to_obj(table)


def test_closed_classes_are_traced_real_at_any_scale(np_rng):
    # rounding leaves imaginary parts far above the 1e-8 class tolerance
    # on traces of this size unless closed classes are traced real
    mats = [1e3 * rand_hermitian(np_rng, 8) for _ in range(2)]
    table = moment_table_from_matrices(mats, 6)
    value = table.moment((1, 1, 1, 2, 1, 2))
    assert value.imag == 0
    assert abs(value) > 1e12
