"""CLI commands, exit codes and deterministic outputs."""

import json

import pytest

from freestein import NcPoly, quadratic_potential, semicircular, centered_free_poisson
from freestein import serialize
from freestein.cli import main


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
    # the cutoff drops all but the 2 strongest directions per slot
    code, out, _ = run(capsys, *args, "--tol-pinv", "0.5")
    assert code == 0
    rep = json.loads(out)
    assert (rep["gram_rank"], rep["null_dim"]) == (4, 26)
    assert rep["upper_poincare_sq"] == pytest.approx(0.9998, abs=1e-4)


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
    assert json.loads(err)["error"]["code"] == "invalid_state"


def test_budget_exceeded_exit_code(tmp_path, capsys):
    sc = semicircular(1, max_order=4)
    path = write(tmp_path, "sc4.json", serialize.cumulants_to_obj(sc.spec))
    code, _, err = run(capsys, "poincare", "--cumulants", path,
                       "--degree", "4")
    assert code == 4
    assert json.loads(err)["error"]["code"] == "budget_exceeded"


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
