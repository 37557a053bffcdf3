"""JSON interchange: exact round trips and deterministic output."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freestein import (
    ComplexRational,
    CumulantSpec,
    EnsembleConfig,
    GueGenerator,
    InvalidStateError,
    NcPoly,
    ParseError,
    PolyOfGueGenerator,
    mc_moment_table,
)
from freestein import serialize
from freestein.states import words_up_to

import bruteforce
from conftest import rand_cumulant_spec, rand_poly


def test_poly_round_trip_exact(rng):
    for _ in range(20):
        p = rand_poly(rng, 3, 5)
        obj = serialize.poly_to_obj(p)
        assert serialize.poly_from_obj(obj) == p


def test_poly_exotic_coefficients():
    p = NcPoly(
        2,
        {
            (1, 2, 1): ComplexRational(Fraction(-7, 3), Fraction(22, 7)),
            (): ComplexRational(Fraction(1, 2)),
        },
    )
    assert serialize.poly_from_obj(serialize.poly_to_obj(p)) == p


def test_tuple_round_trip(rng):
    ps = tuple(rand_poly(rng, 2, 3) for _ in range(2))
    obj = serialize.tuple_to_obj(ps)
    assert serialize.tuple_from_obj(obj) == ps


def test_table_round_trip():
    cfg = EnsembleConfig(size=30, samples=10, seed=1,
                         generators=(GueGenerator(),))
    table = mc_moment_table(cfg, 4)
    obj = serialize.table_to_obj(table)
    back = serialize.table_from_obj(obj)
    assert back.nvars == table.nvars
    assert back.max_order == table.max_order
    assert back.tracial == table.tracial
    assert back.norm_upper == pytest.approx(table.norm_upper)
    words = words_up_to(1, 4)
    assert back.word_moments(words).tolist() == table.word_moments(words).tolist()
    assert back.stored()[1] == table.stored()[1]


def test_cumulants_round_trip(rng):
    spec = rand_cumulant_spec(rng, 2, 5)
    obj = serialize.cumulants_to_obj(spec)
    back = serialize.cumulants_from_obj(obj)
    assert back.nvars == spec.nvars
    assert back.max_order == spec.max_order
    assert back.kappa == spec.kappa


def test_cumulant_tracial_field_must_match_the_spec():
    cyclic = serialize.cumulants_to_obj(CumulantSpec(1, {(1, 1): 1.0}))
    assert cyclic["tracial"] is True
    lopsided = serialize.cumulants_to_obj(
        CumulantSpec(2, {(1, 2): 1j, (2, 1): -1j}))
    assert lopsided["tracial"] is False
    for obj in (cyclic, lopsided):
        flipped = dict(obj, tracial=not obj["tracial"])
        assert _parse_field(flipped, serialize.cumulants_from_obj) == \
            "cumulants.tracial"
        unmarked = dict(obj)
        del unmarked["tracial"]
        assert serialize.cumulants_from_obj(unmarked) == \
            serialize.cumulants_from_obj(obj)


def test_cumulant_state_norm_hints():
    from freestein import semicircular

    sc = semicircular(1)
    obj = serialize.cumulants_to_obj(sc.spec, norm_upper=sc.norm_upper)
    state = serialize.cumulant_state_from_obj(obj)
    assert state.norm_upper == (2.0,)
    assert state.tracial


def test_ensemble_round_trip():
    poly = NcPoly.gen(1, 1) * NcPoly.gen(1, 1) - NcPoly.one(1)
    cfg = EnsembleConfig(
        size=64,
        samples=12,
        seed=99,
        generators=(GueGenerator(), PolyOfGueGenerator(poly, 1)),
    )
    back = serialize.ensemble_from_obj(serialize.ensemble_to_obj(cfg))
    assert back == cfg


def test_dumps_floats_and_determinism():
    obj = {"a": 0.1, "b": [1, 2.5, True], "c": {"nested": None}}
    text = serialize.dumps(obj)
    assert "0.10000000000000001" in text
    assert serialize.dumps(obj) == text
    import json

    parsed = json.loads(text)
    assert parsed["a"] == 0.1
    assert parsed["b"] == [1, 2.5, True]
    assert parsed["c"]["nested"] is None


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text(max_size=8))
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=8), inner, max_size=5)),
    max_leaves=30)


@settings(max_examples=200)
@given(_JSON_VALUES)
def test_dumps_matches_the_token_writer(obj):
    assert serialize.dumps(obj) == bruteforce.reference_dumps(obj)


def test_dumps_matches_the_token_writer_on_reports(rng):
    spec = rand_cumulant_spec(rng, 2, 4)
    for obj in (serialize.cumulants_to_obj(spec, norm_upper=(2.0, 3.5)),
                serialize.poly_to_obj(rand_poly(rng, 3, 4)),
                {"k": (1, 2.5, True), "t": ("a", None), "e": [[], {}]}):
        assert serialize.dumps(obj) == bruteforce.reference_dumps(obj)
    with pytest.raises(ValueError, match="non-finite"):
        serialize.dumps({"a": [1.0, float("inf")]})
    with pytest.raises(ValueError, match="non-finite"):
        serialize.dumps({"a": float("nan")})
    with pytest.raises(TypeError):
        serialize.dumps({"a": object()})


def test_parse_errors_carry_field():
    with pytest.raises(ParseError) as err:
        serialize.poly_from_obj({"terms": []})
    assert err.value.field == "poly.nvars"

    with pytest.raises(ParseError) as err:
        serialize.poly_from_obj(
            {"nvars": 1, "terms": [{"word": [1], "re_num": 1}]}
        )
    assert "re_den" in err.value.field

    with pytest.raises(ParseError) as err:
        serialize.table_from_obj(
            {"nvars": 1, "max_order": 4,
             "entries": [{"word": ["x"], "re": 0.0, "im": 0.0}]}
        )
    assert "word" in err.value.field

    with pytest.raises(ParseError) as err:
        serialize.ensemble_from_obj(
            {"N": 4, "samples": 2, "seed": 0,
             "generators": [{"kind": "wishart"}]}
        )
    assert "kind" in err.value.field

    with pytest.raises(ParseError) as err:
        serialize.ensemble_from_obj(
            {"N": 4, "samples": 2, "seed": -5, "generators": [{"kind": "gue"}]}
        )
    assert err.value.field == "ensemble.seed"


def test_letters_out_of_range_rejected():
    with pytest.raises(ParseError):
        serialize.poly_from_obj(
            {"nvars": 1,
             "terms": [{"word": [2], "re_num": 1, "re_den": 1,
                        "im_num": 0, "im_den": 1}]}
        )


def _word_table_obj(**extra):
    obj = {"nvars": 1, "max_order": 4, "tracial": True,
           "entries": [{"word": [1, 1], "re": 1.0, "im": 0.0},
                       {"word": [1, 1, 1, 1], "re": 2.0, "im": 0.0}]}
    obj.update(extra)
    return obj


def _parse_field(obj, parse=serialize.table_from_obj):
    with pytest.raises(ParseError) as err:
        parse(obj)
    return err.value.field


def test_table_headers_are_strict():
    assert _parse_field(_word_table_obj(tracial="false")) == "state.tracial"
    assert not serialize.table_from_obj(_word_table_obj(tracial=False)).tracial
    for bad in ([None], ["2"], [float("nan")], [float("inf")], [True]):
        assert _parse_field(_word_table_obj(norm_upper=bad)) == \
            "state.norm_upper[0]"
    assert _parse_field(_word_table_obj(norm_upper=[1.0, 2.0])) == \
        "state.norm_upper"
    assert serialize.table_from_obj(_word_table_obj(norm_upper=[2])).norm_upper \
        == (2.0,)


def test_cumulant_norm_upper_is_strict():
    obj = {"nvars": 1, "max_order": 4,
           "kappa": [{"word": [1, 1], "re": 1.0, "im": 0.0}]}
    for bad in ([None], ["2"], [float("nan")]):
        field = _parse_field(dict(obj, norm_upper=bad),
                             serialize.cumulant_state_from_obj)
        assert field == "cumulants.norm_upper[0]"


def test_malformed_table_entries_name_the_entry():
    for key in ("re", "im", "stderr"):
        obj = _word_table_obj()
        obj["entries"][1][key] = float("nan")
        assert _parse_field(obj) == f"state.entries[1].{key}"
    obj = _word_table_obj()
    obj["entries"].append({"word": [1, 1], "re": 5.0, "im": 0.0})
    assert _parse_field(obj) == "state.entries[2]"


def test_cumulant_entries_name_the_failing_field():
    obj = {"nvars": 1, "max_order": 4,
           "kappa": [{"word": [1, 1], "re": 1, "im": 0},
                     {"word": [1, 1, 1], "re": 0.5, "im": 0.0}]}
    assert serialize.cumulants_from_obj(obj).kappa == {(1, 1): 1 + 0j,
                                                       (1, 1, 1): 0.5 + 0j}
    for key, bad in (("word", [1, "1"]), ("word", None), ("re", True),
                     ("re", float("inf")), ("im", "0"), ("im", None)):
        broken = {"nvars": 1, "max_order": 4,
                  "kappa": [dict(e) for e in obj["kappa"]]}
        broken["kappa"][1][key] = bad
        assert _parse_field(broken, serialize.cumulants_from_obj) == \
            f"cumulants.kappa[1].{key}"
    broken["kappa"][1] = [1, 1]
    assert _parse_field(broken, serialize.cumulants_from_obj) == \
        "cumulants.kappa[1].word"


def test_cumulant_files_refuse_a_repeated_word():
    obj = {"nvars": 1, "max_order": 4,
           "kappa": [{"word": [1, 1], "re": 1.0, "im": 0.0},
                     {"word": [1, 1, 1], "re": 0.5, "im": 0.0},
                     {"word": [1, 1], "re": 5.0, "im": 0.0}]}
    with pytest.raises(ParseError, match=r"cumulants\.kappa\[2\] repeats the "
                       r"word of cumulants\.kappa\[0\]") as err:
        serialize.cumulants_from_obj(obj)
    assert err.value.field == "cumulants.kappa[2]"


def _class_table_obj():
    # the classes of [1, 2] and [1, 1, 2] are closed under reversal
    return {"nvars": 2, "max_order": 3, "tracial": True, "classes": "bracelet",
            "entries": [{"word": [1], "re": 0.0, "im": 0.0},
                        {"word": [1, 2], "re": 0.5, "im": 0.0},
                        {"word": [1, 1, 2], "re": 0.25, "im": 0.0, "stderr": 0.1},
                        {"word": [2, 2], "re": 1.0, "im": 0.0}]}


def test_class_format_expands_each_class():
    table = serialize.table_from_obj(_class_table_obj())
    assert table.tracial
    assert table.moment((2, 1)) == 0.5
    assert table.moment((2, 1, 1)) == table.moment((1, 2, 1)) == 0.25
    assert bruteforce.word_stderr(table) == {(1, 1, 2): 0.1, (1, 2, 1): 0.1,
                                             (2, 1, 1): 0.1}
    assert table.moment((1, 2, 2)) == 0
    # a closed class within the Hermitian tolerance reads as real
    obj = _class_table_obj()
    obj["entries"][1]["im"] = 1e-12
    assert serialize.table_from_obj(obj).moment((2, 1)) == 0.5
    back = serialize.table_from_obj(serialize.table_to_obj(table))
    assert back.stored() == table.stored()


def test_class_format_rejections():
    obj = _class_table_obj()
    obj["entries"][1]["word"] = [2, 1]
    assert _parse_field(obj) == "state.entries[1]"
    obj = _class_table_obj()
    obj["entries"].append({"word": [1, 2], "re": 0.5, "im": 0.0})
    assert _parse_field(obj) == "state.entries[4]"
    obj = _class_table_obj()
    obj["entries"][1]["im"] = 1e-6
    with pytest.raises(ParseError, match="closed under reversal") as err:
        serialize.table_from_obj(obj)
    assert err.value.field == "state.entries[1]"
    assert _parse_field(dict(_class_table_obj(), tracial=False)) == "state.tracial"
    obj = _class_table_obj()
    del obj["tracial"]
    assert _parse_field(obj) == "state.tracial"
    assert _parse_field(dict(_class_table_obj(), classes="necklace")) == \
        "state.classes"
    obj = _class_table_obj()
    obj["entries"][0]["word"] = [3]
    assert _parse_field(obj) == "state"


def test_word_list_tables_still_load():
    """Files that list every word keep the word-by-word path, which
    checks every stored word's reversal and, when tracial, rotations:
    class members that disagree are refused as an invalid state, not a
    parse error."""
    obj = {"nvars": 2, "max_order": 2, "tracial": True,
           "entries": [{"word": [1, 1], "re": 1.0, "im": 0.0},
                       {"word": [2, 2], "re": 1.0, "im": 0.0},
                       {"word": [1, 2], "re": 0.5, "im": 0.0},
                       {"word": [2, 1], "re": 0.5, "im": 0.0}]}
    table = serialize.table_from_obj(obj)
    assert not table.bracelet
    assert table.moment((1, 2)) == 0.5 and table.moment((2, 1)) == 0.5
    obj["entries"][3]["re"] = 0.25
    with pytest.raises(InvalidStateError, match="Hermitian symmetry fails"):
        serialize.table_from_obj(obj)
    obj["entries"][2:] = [{"word": [1, 2], "re": 0.0, "im": 0.5},
                          {"word": [2, 1], "re": 0.0, "im": -0.5}]
    assert serialize.table_from_obj(dict(obj, tracial=False)).moment(
        (2, 1)) == -0.5j
    with pytest.raises(InvalidStateError, match="traciality fails"):
        serialize.table_from_obj(obj)
