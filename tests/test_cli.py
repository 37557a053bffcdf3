"""CLI commands, exit codes and deterministic outputs."""

import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

from freestein import (ComplexRational, NcPoly, centered_free_poisson,
                        quadratic_potential, semicircular, validate_state)
from freestein import serialize
from freestein.cli import main
from freestein.partitions import catalan

from conftest import trace_state


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(serialize.dumps(obj))
    return str(path)


@pytest.fixture
def sc_cumulants(tmp_path):
    sc = semicircular(1)
    return write(tmp_path, "sc.json",
                 serialize.cumulants_to_obj(sc.spec, norm_upper=sc.norm_upper))


@pytest.fixture
def fp_cumulants(tmp_path):
    fp = centered_free_poisson(1, max_order=8)
    return write(tmp_path, "fp.json",
                 serialize.cumulants_to_obj(fp.spec, norm_upper=fp.norm_upper))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_derive_cyclic_gradient(tmp_path, capsys):
    path = write(tmp_path, "v.json",
                 serialize.poly_to_obj(quadratic_potential(2)))
    code, out, _ = run(capsys, "derive", "--poly", path,
                       "--what", "cyclic-gradient")
    assert code == 0
    ps = serialize.tuple_from_obj(json.loads(out))
    assert ps == (NcPoly.gen(1, 2), NcPoly.gen(2, 2))


def test_derive_explicit_kernel_single_variable(tmp_path, capsys):
    path = write(tmp_path, "v.json",
                 serialize.poly_to_obj(quadratic_potential(1)))
    code, out, _ = run(capsys, "derive", "--poly", path,
                       "--what", "explicit-kernel")
    assert code == 0
    obj = json.loads(out)
    terms = obj["entries"][0][0]["terms"]
    # 1/2 t^2 (x) 1 + 1/2 1 (x) t^2 - t (x) t
    assert {
        (tuple(t["left"]), tuple(t["right"])): (t["re_num"], t["re_den"])
        for t in terms
    } == {
        ((1, 1), ()): (1, 2),
        ((), (1, 1)): (1, 2),
        ((1,), (1,)): (-1, 1),
    }


def test_derive_jacobian_identity(tmp_path, capsys):
    coords = tuple(NcPoly.gen(i, 2) for i in (1, 2))
    path = write(tmp_path, "coords.json", serialize.tuple_to_obj(coords))
    code, out, _ = run(capsys, "derive", "--poly", path, "--what", "jacobian")
    assert code == 0
    obj = json.loads(out)
    assert obj["size"] == 2
    assert obj["entries"][0][0]["terms"][0]["left"] == []
    assert obj["entries"][1][0]["terms"] == []


def test_derive_partial(tmp_path, capsys):
    p = NcPoly.gen(1, 2) * NcPoly.gen(2, 2)
    path = write(tmp_path, "p.json", serialize.poly_to_obj(p))
    code, out, _ = run(capsys, "derive", "--poly", path,
                       "--what", "partial", "--index", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["terms"] == [
        {"left": [1], "right": [], "re_num": 1, "re_den": 1,
         "im_num": 0, "im_den": 1}
    ]



@pytest.mark.parametrize("index", ["0", "3"])
def test_derive_partial_refuses_an_index_out_of_range(tmp_path, capsys,
                                                      index):
    p = NcPoly.gen(1, 2) * NcPoly.gen(2, 2)
    path = write(tmp_path, "p.json", serialize.poly_to_obj(p))
    code, out, err = run(capsys, "derive", "--poly", path,
                         "--what", "partial", "--index", index)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["code"] == "parse_error" and error["field"] == "index"
    assert f"--index {index} out of range 1..2" in error["message"]


# sha256 of each derive output for the polynomial below; the outputs are
# exact rationals, so these hold on every platform
DERIVE_SHA256 = {
    "explicit-kernel": "624ea354766294a0f9080e15749236db49b064c3bd13661bffd7625a5a037bf6",
    "jacobian": "381eecdcfede2fa4717f15dd3618e69e01fd70d75f2978fd133e2290dd80cbe3",
    "partial": "38c6e431ac0f47573c388d5899e11cb70bea74c08b9f536e1c46ca19f6f8538a",
    "delta": "3f4069db62142d5c813d2c8bff33baad37f0ecc6f18f7cd9c7f427e5d03416f9",
    "cyclic-gradient": "da4744d7687cad8a6b65c86991db7ef9aeb41d9162cb90907422f4676df03ca9",
}


def test_derive_outputs_are_pinned(tmp_path, capsys):
    t1, t2 = NcPoly.gen(1, 2), NcPoly.gen(2, 2)
    p = ((t1 * t2 * t1).scale(Fraction(1, 3))
         + (t2 * t2).scale(ComplexRational(2, Fraction(-1, 5)))
         + t1.scale(Fraction(-3, 7))
         + (t1 * t2 * t2 * t1).scale(ComplexRational(0, Fraction(1, 2)))
         + NcPoly.one(2).scale(5))
    poly = write(tmp_path, "p.json", serialize.poly_to_obj(p))
    pair = write(tmp_path, "t.json",
                 serialize.tuple_to_obj((p, p.star() + t2 * t2 * t2)))
    for what, want in DERIVE_SHA256.items():
        extra = ("--index", "1") if what == "partial" else ()
        code, out, _ = run(capsys, "derive", "--what", what, "--poly",
                           pair if what == "jacobian" else poly, *extra)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, what


def _zero_den_poly(part):
    term = {"word": [1, 1], "re_num": 1, "re_den": 2, "im_num": 0, "im_den": 1}
    term[part] = 0
    return {"nvars": 1, "terms": [
        {"word": [], "re_num": 0, "re_den": 1, "im_num": 0, "im_den": 1}, term]}


@pytest.mark.parametrize("part", ["re_den", "im_den"])
def test_zero_denominator_is_a_parse_error(tmp_path, capsys, sc_cumulants,
                                           part):
    poly = _zero_den_poly(part)
    ensemble = {"N": 4, "samples": 2, "seed": 0, "generators": [
        {"kind": "poly_of_gue", "poly": poly, "fresh_gues": 1}]}
    cases = [
        (("derive", "--what", "delta", "--poly",
          write(tmp_path, "p.json", poly)), "poly.terms[1]."),
        (("stein", "--cumulants", sc_cumulants, "--degree", "1",
          "--potential", write(tmp_path, "v.json", poly)),
         "potential.terms[1]."),
        (("mc", "--ensemble", write(tmp_path, "e.json", ensemble),
          "--max-order", "2"), "ensemble.generators[0].poly.terms[1]."),
    ]
    for argv, path in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["code"] == "parse_error"
        assert error["field"] == path + part
        assert error["message"] == f"field {path}{part} must be nonzero"


def test_stein_semicircular(sc_cumulants, capsys):
    code, out, _ = run(capsys, "stein", "--cumulants", sc_cumulants,
                       "--degree", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma_lower_sq"] <= 1e-8
    assert rep["upper_explicit_sq"] == pytest.approx(1.5)
    assert rep["centering_defect"] == 0
    assert rep["n"] == 1


def test_stein_free_poisson(fp_cumulants, capsys):
    code, out, _ = run(capsys, "stein", "--cumulants", fp_cumulants,
                       "--degree", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["sigma_lower_sq"] == pytest.approx(0.5, abs=1e-9)
    assert rep["upper_explicit_sq"] == pytest.approx(2.0, abs=1e-9)


def test_stein_tolerances_reach_both_solves(tmp_path, capsys):
    fp = centered_free_poisson(2, max_order=8)
    path = write(tmp_path, "fp2.json",
                 serialize.cumulants_to_obj(fp.spec, norm_upper=fp.norm_upper))
    args = ("stein", "--cumulants", path, "--degree", "3")
    _, out, _ = run(capsys, *args)
    rep = json.loads(out)
    assert (rep["gram_rank"], rep["null_dim"]) == (28, 2)
    # the pivots of t_1^3 and t_2^3 lie within half their diagonals, so
    # they count as relations of the minimal kernel's slots, and C_3
    # falls to C_2 = 1 + 1/sqrt(2) in n + C |Dv|^2 - 2 <Dv, X> = 2 C - 2
    code, out, _ = run(capsys, *args, "--tol-pinv", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert (rep["gram_rank"], rep["null_dim"]) == (24, 6)
    assert rep["upper_poincare_sq"] == pytest.approx(2 ** 0.5, abs=1e-12)


@pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
@pytest.mark.parametrize("command, flag", [("poincare", "--tol-pinv"),
                                           ("stein", "--tol-pinv"),
                                           ("stein", "--tol-centering")])
def test_tolerances_must_be_finite_and_nonnegative(tmp_path, capsys, command,
                                                   flag, value):
    # a NaN pivot tolerance would read every pivot as a relation, and a
    # NaN centering tolerance every state as not centered
    table = trace_state(np.random.default_rng(4), 2, 4, 6, centered=True)[0]
    path = write(tmp_path, "table.json", serialize.table_to_obj(table))
    argv = (command, "--state", path, "--degree", "2")
    assert run(capsys, *argv)[0] == 0
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert error["code"] == "parse_error"
    assert error["field"] == flag[2:]
    assert error["message"] == (f"{flag} must be a finite number >= 0, "
                                f"got {float(value)}")


def test_poincare_takes_no_centering_tolerance(sc_cumulants, capsys):
    # only stein checks a centering defect
    with pytest.raises(SystemExit):
        main(["poincare", "--cumulants", sc_cumulants,
              "--tol-centering", "0.1"])
    assert "--tol-centering" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["stein", "poincare"])
def test_solvers_take_no_indefiniteness_tolerance(command, sc_cumulants,
                                                  capsys):
    # the pivot threshold of an indefinite Dirichlet form is fixed
    with pytest.raises(SystemExit):
        main([command, "--cumulants", sc_cumulants, "--tol-psd", "0.1"])
    assert "--tol-psd" in capsys.readouterr().err


def test_stein_centering_defect_exit_code(tmp_path, sc_cumulants, capsys):
    # D(t) = 1 and phi(1) = 1, so the necessary condition fails
    path = write(tmp_path, "v.json",
                 serialize.poly_to_obj(NcPoly.gen(1, 1)))
    code, _, err = run(capsys, "stein", "--cumulants", sc_cumulants,
                       "--potential", path)
    assert code == 2
    assert "centering defect" in json.loads(err)["error"]["message"]


def test_invalid_state_exit_code(tmp_path, capsys):
    bad = {
        "nvars": 1, "max_order": 4, "tracial": False,
        "entries": [{"word": [1, 1], "re": -1.0, "im": 0.0}],
    }
    path = write(tmp_path, "bad.json", bad)
    code, _, err = run(capsys, "poincare", "--state", path, "--degree", "1")
    assert code == 3
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_state"
    problems = validate_state(serialize.table_from_obj(bad))
    assert problems
    assert error["message"] == "state failed validation: " + "; ".join(problems)


def test_table_breaking_symmetry_past_length_four_exits_3(tmp_path, capsys):
    # semicircle moments to order 8 with phi(t^8) = 14 + 5i
    entries = [{"word": [1] * k, "re": float(catalan(k // 2) * (k % 2 == 0)),
                "im": 0.0} for k in range(1, 9)]
    entries[-1]["im"] = 5.0
    path = write(tmp_path, "t8.json",
                 {"nvars": 1, "max_order": 8, "entries": entries})
    code, out, err = run(capsys, "poincare", "--state", path)
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_state"
    assert error["message"].startswith("Hermitian symmetry fails: "
                                       "phi([1, 1, 1, 1, 1, 1, 1, 1])")


@pytest.mark.parametrize("command", ["poincare", "stein"])
def test_non_hermitian_cumulants_exit_3(tmp_path, capsys, command):
    kappa = [{"word": w, "re": v, "im": 0.0}
             for w, v in (([1, 1], 1.0), ([2, 2], 1.0),
                          ([1, 1, 2, 2, 2], 0.1), ([2, 2, 2, 1, 1], 0.3))]
    path = write(tmp_path, "kappa.json",
                 {"nvars": 2, "max_order": 8, "kappa": kappa})
    code, out, err = run(capsys, command, "--cumulants", path,
                         "--degree", "2")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_state"
    assert "cumulants are not Hermitian" in error["message"]


def test_clt_validates_its_base(tmp_path, capsys, monkeypatch):
    from freestein import cli

    # phi(t^4) = 2 + kappa_4 = -3, which no state has
    kappa = [{"word": [1, 1], "re": 1.0, "im": 0.0},
             {"word": [1, 1, 1, 1], "re": -5.0, "im": 0.0}]
    path = write(tmp_path, "bad.json",
                 {"nvars": 1, "max_order": 6, "kappa": kappa})
    code, out, err = run(capsys, "clt", "--cumulants", path, "--degree", "1")
    assert (code, out) == (3, "")
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_state"
    assert "moment matrix indefinite: pivot" in error["message"]
    # a valid base reaches the rate table with the file's norm bounds
    seen = []
    rate_table = cli.clt_rate_table

    def spy(exp):
        seen.append(exp.base.norm_upper)
        return rate_table(exp)

    monkeypatch.setattr(cli, "clt_rate_table", spy)
    fp = centered_free_poisson(1, max_order=6)
    path = write(tmp_path, "fp.json",
                 serialize.cumulants_to_obj(fp.spec, norm_upper=(3.0,)))
    code, _, err = run(capsys, "clt", "--cumulants", path, "--degree", "1",
                       "--ks", "1,4")
    assert code == 0, err
    assert seen == [(3.0,)]


def test_clt_evaluates_its_base_once(tmp_path, capsys, monkeypatch):
    # the validated base state also serves the theorem constant and the
    # k = 1 row, so its moments are evaluated once
    from freestein import CumulantState

    fp = centered_free_poisson(1, max_order=6)
    path = write(tmp_path, "fp.json",
                 serialize.cumulants_to_obj(fp.spec, norm_upper=(3.0,)))
    built = []
    init = CumulantState.__init__

    def spy(self, spec, norm_upper=None):
        built.append(spec.kappa)
        init(self, spec, norm_upper)

    monkeypatch.setattr(CumulantState, "__init__", spy)
    code, _, err = run(capsys, "clt", "--cumulants", path, "--degree", "1",
                       "--ks", "1,4")
    assert code == 0, err
    assert built.count(fp.spec.kappa) == 1
    assert len(built) == 2  # the base and its k = 4 rescaling


def _semicircle_table(nvars, max_order):
    from freestein import semicircular
    from freestein.states import words_up_to

    words = words_up_to(nvars, max_order)
    values = semicircular(nvars, max_order).word_moments(words).tolist()
    return dict(zip(words, values))


def _positivity_defect(case):
    """(kind, object) of an input whose only positivity defect lies in
    moments of words longer than 8, with Hermitian symmetry and
    traciality intact."""
    from freestein import CumulantSpec, MomentTable

    if case.startswith("t12"):
        # the Catalan value is 132; the Hankel over 1, t, ..., t^6 has
        # least eigenvalue -3.23 at 100 and -115 at -100
        entries = _semicircle_table(1, 12)
        entries[(1,) * 12] = float(case[4:])
        return "state", serialize.table_to_obj(
            MomentTable(1, 12, entries, tracial=True))
    if case == "mixed-12":
        # phi((t1 t2)^6) = 3 on its whole class, where free semicirculars
        # give 0: the words u = (1, 2)^3 and v = (2, 1)^3 then have
        # H[u, u] = H[v, v] = 1 and H[u, v] = 3
        entries = _semicircle_table(2, 12)
        entries[(1, 2) * 6] = entries[(2, 1) * 6] = 3.0
        return "state", serialize.table_to_obj(
            MomentTable(2, 12, entries, tracial=True))
    # kappa_10 = -2 leaves the Catalan moments up to t^8 and makes
    # phi(t^10) = 40, one below the least value of a state
    spec = CumulantSpec(1, {(1, 1): 1.0, (1,) * 10: -2.0}, max_order=10)
    return "cumulants", serialize.cumulants_to_obj(spec)


@pytest.mark.parametrize("case", ["t12=100", "t12=-100", "mixed-12",
                                  "kappa10"])
def test_positivity_defects_past_length_eight_exit_3(tmp_path, capsys,
                                                     case):
    kind, obj = _positivity_defect(case)
    load = {"state": serialize.table_from_obj,
            "cumulants": serialize.cumulant_state_from_obj}[kind]
    problems = validate_state(load(obj))
    assert len(problems) == 1
    assert "moment matrix indefinite: pivot" in problems[0]
    path = write(tmp_path, "bad.json", obj)
    code, out, err = run(capsys, "poincare", f"--{kind}", path,
                         "--degree", "3")
    assert (code, out) == (3, "")
    assert json.loads(err)["error"]["code"] == "invalid_state"


@pytest.mark.parametrize("command", ["poincare", "stein"])
def test_infinite_ratio_witness_exit_code(tmp_path, capsys, command):
    # t^2 has variance 1 but no Dirichlet energy: no bounded state does that
    fake = {
        "nvars": 1, "max_order": 4, "tracial": True,
        "entries": [{"word": [1, 1, 1, 1], "re": 1.0, "im": 0.0}],
    }
    path = write(tmp_path, "fake.json", fake)
    code, out, err = run(capsys, command, "--state", path, "--degree", "2")
    assert code == 3
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "invalid_state"
    assert error["message"].startswith("1 null direction(s)")


def test_budget_exceeded_exit_code(tmp_path, capsys):
    sc = semicircular(1, max_order=4)
    path = write(tmp_path, "sc4.json", serialize.cumulants_to_obj(sc.spec))
    code, _, err = run(capsys, "poincare", "--cumulants", path,
                       "--degree", "4")
    assert code == 4
    assert json.loads(err)["error"]["code"] == "budget_exceeded"


@pytest.mark.parametrize("command", ["poincare", "stein"])
def test_overflowing_moments_exit_with_budget_code(tmp_path, capsys, command):
    # phi(t^8) holds kappa_4^2 = 1e400, past double precision
    path = write(tmp_path, "big.json", {
        "nvars": 1, "max_order": 8,
        "kappa": [{"word": [1, 1], "re": 1.0, "im": 0.0},
                  {"word": [1, 1, 1, 1], "re": 1e200, "im": 0.0}]})
    code, out, err = run(capsys, command, "--cumulants", path,
                         "--degree", "4")
    assert (code, out) == (4, "")
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert "overflows double precision" in error["message"]


def test_oversized_solver_basis_exits_before_any_gram(tmp_path, capsys,
                                                      monkeypatch):
    from freestein import MomentTable, poincare, states

    def refuse(*args):
        raise AssertionError("a Dirichlet Gram was built")

    def unvalidated(*args):
        raise AssertionError("the state was validated")

    monkeypatch.setattr(poincare, "dirichlet_gram", refuse)
    # the degree is refused before validation, which would factor the
    # moment matrix over the 2,047 words of length <= 10; at degree 14
    # the forms would span 32,766 words, 17 GB for the Gram alone
    monkeypatch.setattr(states, "moment_matrix", unvalidated)
    monkeypatch.setattr(poincare, "moment_matrix", unvalidated)
    path = write(tmp_path, "zero.json", {"nvars": 2, "max_order": 40,
                                         "tracial": True, "entries": []})
    for command in ("poincare", "stein"):
        code, out, err = run(capsys, command, "--state", path,
                             "--degree", "14")
        assert code == 4 and out == ""
        assert json.loads(err)["error"]["code"] == "budget_exceeded"
    # the 1,092 words of n = 3, d = 6 are within the budget
    with pytest.raises(AssertionError, match="Gram was built"):
        poincare.TruncatedForms(MomentTable(3, 12, {}, tracial=True), 6)


def test_clt_builtin_degree_beyond_order_cap(capsys):
    code, out, err = run(capsys, "clt", "--degree", "8")
    assert code == 4
    assert out == ""
    error = json.loads(err)["error"]
    assert error["code"] == "budget_exceeded"
    assert "--degree" in error["message"]
    assert "up to 7" in error["message"]


def test_clt_builtin_small_degrees(capsys):
    # degree 0 still needs the fourth moments of the builtin base
    code, out, err = run(capsys, "clt", "--ks", "1,4", "--degree", "0")
    assert code == 0, err
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert [row[0] for row in rows] == ["1", "4"]
    assert float(rows[0][1]) == pytest.approx(3.0)
    # a negative degree is refused before any base is built
    code, out, err = run(capsys, "clt", "--degree", "-1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"]["message"] == "degree must be >= 0"


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "poincare", "--cumulants", str(path),
                       "--degree", "2")
    assert code == 1
    assert json.loads(err)["error"]["code"] == "parse_error"


@pytest.mark.parametrize("command", ["stein", "poincare"])
def test_seed_needs_an_ensemble(sc_cumulants, capsys, command):
    # a seed without an ensemble to draw would be ignored
    code, out, err = run(capsys, command, "--cumulants", sc_cumulants,
                         "--seed", "3")
    assert (code, out) == (1, "")
    error = json.loads(err)["error"]
    assert (error["code"], error["field"]) == ("parse_error", "seed")
    assert error["message"] == "--seed needs --ensemble"


def test_poincare_report(sc_cumulants, capsys):
    code, out, _ = run(capsys, "poincare", "--cumulants", sc_cumulants,
                       "--degree", "3")
    assert code == 0
    rep = json.loads(out)
    assert rep["c_lower"] == pytest.approx(1.0, abs=1e-6)
    assert rep["voiculescu_tracial"] == pytest.approx(8.0)
    assert rep["voiculescu_general"] == pytest.approx(16.0)
    assert rep["norm_estimates"][0]["upper"] == 2.0


def test_clt_default_base(capsys):
    code, out, _ = run(capsys, "clt", "--ks", "1,4,16", "--degree", "3")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("k,m4_Yk")
    sigmas = [float(line.split(",")[2]) for line in lines[1:]]
    assert sigmas == sorted(sigmas, reverse=True)


def test_mc_byte_identical(tmp_path, capsys):
    cfg = {"N": 40, "samples": 20, "seed": 7,
           "generators": [{"kind": "gue"}]}
    path = write(tmp_path, "ens.json", cfg)
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["mc", "--ensemble", path, "--max-order", "4",
                 "--out", out1]) == 0
    assert main(["mc", "--ensemble", path, "--max-order", "4",
                 "--out", out2]) == 0
    b1 = (tmp_path / "a.json").read_bytes()
    b2 = (tmp_path / "b.json").read_bytes()
    assert b1 == b2
    table = serialize.table_from_obj(json.loads(b1))
    assert table.nvars == 1


def test_mc_seed_override_changes_output(tmp_path, capsys):
    cfg = {"N": 40, "samples": 20, "seed": 7,
           "generators": [{"kind": "gue"}]}
    path = write(tmp_path, "ens.json", cfg)
    code1, out1, _ = run(capsys, "mc", "--ensemble", path, "--max-order", "2")
    code2, out2, _ = run(capsys, "mc", "--ensemble", path, "--max-order", "2",
                         "--seed", "8")
    assert code1 == code2 == 0
    assert out1 != out2


def test_parser_is_built_once_and_survives_usage_errors(monkeypatch,
                                                        sc_cumulants, capsys):
    import argparse

    from freestein import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._build_parser.cache_clear()
    argv = ("poincare", "--cumulants", sc_cumulants, "--degree", "2")
    fresh = run(capsys, *argv)
    assert fresh[0] == 0
    count = len(built)
    assert count > 0
    for bad in (("poincare", "--degree", "x"), ("stein", "--no-such-flag"),
                ("nope",)):
        with pytest.raises(SystemExit) as exc:
            main(list(bad))
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == fresh
    assert len(built) == count
