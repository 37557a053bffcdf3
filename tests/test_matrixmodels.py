"""Monte Carlo backend: GUE convention, determinism, convergence, and
the word traces against the per-word ``einsum`` oracle."""

import dataclasses
import json
import tracemalloc
import warnings

import numpy as np
import pytest

from freestein import (
    BudgetExceededError,
    EnsembleConfig,
    GueGenerator,
    NcPoly,
    PolyOfGueGenerator,
    centered_free_poisson,
    mc_moment_table,
    moment_table_from_matrices,
    sample_gue,
    semicircular,
    validate_state,
)
from freestein import cli, matrixmodels, serialize
from freestein.matrixmodels import eval_poly_matrices
from freestein.states import words_up_to

import bruteforce
from bruteforce import rotations
from conftest import rand_hermitian


# g^2 - 1 of one fresh GUE: a centered free Poisson coordinate in the limit
G2_MINUS_1 = PolyOfGueGenerator(
    NcPoly.gen(1, 1) * NcPoly.gen(1, 1) - NcPoly.one(1), 1)


def test_gue_entry_variances():
    rng = np.random.default_rng(0)
    size = 40
    samples = [sample_gue(rng, size) for _ in range(300)]
    assert all(np.array_equal(x, x.conj().T) for x in samples)
    stack = np.stack(samples)
    off = np.mean(np.abs(stack[:, 0, 1]) ** 2)
    diag = np.mean(stack[:, 2, 2].real ** 2)
    assert off == pytest.approx(1.0 / size, rel=0.2)
    assert diag == pytest.approx(1.0 / size, rel=0.3)
    assert np.abs(stack[:, 2, 2].imag).max() < 1e-15
    # real and imaginary parts each carry half the variance, and come
    # from distinct normals: uncorrelated with each other and with the
    # next entry (a sample correlation of 300 draws has sd about 0.06)
    h01, h02 = stack[:, 0, 1], stack[:, 0, 2]
    for part in (h01.real, h01.imag):
        assert np.mean(part ** 2) == pytest.approx(0.5 / size, rel=0.3)
    assert abs(np.corrcoef(h01.real, h01.imag)[0, 1]) < 0.25
    cross = np.mean(h01 * h02.conj())
    assert abs(cross) < 0.25 * np.sqrt(np.mean(np.abs(h01) ** 2)
                                       * np.mean(np.abs(h02) ** 2))


def test_single_gue_moments():
    cfg = EnsembleConfig(size=200, samples=200, seed=42,
                         generators=(GueGenerator(),))
    table = mc_moment_table(cfg, 4)
    assert table.moment((1, 1)).real == pytest.approx(1.0, abs=0.05)
    assert table.moment((1, 1, 1, 1)).real == pytest.approx(2.0, abs=0.1)
    assert table.norm_upper[0] == pytest.approx(2.0, abs=0.1)


def test_two_gue_independence():
    cfg = EnsembleConfig(size=200, samples=200, seed=43,
                         generators=(GueGenerator(), GueGenerator()))
    table = mc_moment_table(cfg, 2)
    assert abs(table.moment((1, 2))) < 0.05


def test_determinism():
    for generators in ((GueGenerator(),), (G2_MINUS_1, GueGenerator())):
        cfg = EnsembleConfig(size=50, samples=40, seed=7,
                             generators=generators)
        t1 = mc_moment_table(cfg, 4)
        t2 = mc_moment_table(cfg, 4)
        assert t1.stored() == t2.stored()
        assert t1.norm_upper == t2.norm_upper


def test_gue_power_moments_within_stderr_and_finite_size_bias():
    # E tr X^m / N of an N x N GUE is the semicircle moment plus a
    # 1/N^2 bias: 2 + 1/N^2 at m = 4 and 5 + 10/N^2 at m = 6
    sc = semicircular(1)
    stderr6 = []
    for size in (50, 100, 200):
        cfg = EnsembleConfig(size=size, samples=200, seed=2024,
                             generators=(GueGenerator(),))
        table = mc_moment_table(cfg, 6)
        # over one letter every word is its own class representative
        stderr = table.stored()[1]
        bias = {4: 1 / size**2, 6: 10 / size**2}
        for m in range(1, 7):
            w = (1,) * m
            dev = abs(table.moment(w) - sc.moment(w))
            assert dev <= 6 * stderr[w] + bias.get(m, 0.0)
        stderr6.append(stderr[(1,) * 6])
    assert stderr6[0] > stderr6[1] > stderr6[2]


def _power_sums(spectra, m):
    """(mean, standard error) of tr X^m / N over the rows of ``spectra``."""
    x = (spectra ** m).mean(axis=1)
    return x.mean(), x.std(ddof=1) / np.sqrt(len(x))


def test_tridiagonal_spectrum_has_the_gue_law():
    size, draws = 20, 3000
    rng = np.random.default_rng(77)
    tri = np.array([matrixmodels.sample_gue_spectrum(rng, size)
                    for _ in range(draws)])
    dense = np.array([np.linalg.eigvalsh(sample_gue(rng, size))
                      for _ in range(draws)])
    for m in (2, 4, 6):
        (a, sa), (b, sb) = _power_sums(tri, m), _power_sums(dense, m)
        assert abs(a - b) <= 5 * np.hypot(sa, sb)
    top_tri, top_dense = tri[:, -1], dense[:, -1]
    gap = abs(top_tri.mean() - top_dense.mean())
    spread = np.hypot(top_tri.std(ddof=1), top_dense.std(ddof=1))
    assert gap <= 5 * spread / np.sqrt(draws)


@pytest.mark.parametrize("size", [1, 2, 3, 16, 100, 200, 333])
def test_spectrum_equals_dense_tridiagonal_eigvalsh(size):
    # dsterf is the routine eigvalsh ends in, and the tridiagonal
    # reduction before it leaves the model unchanged: equal bytes
    for seed in range(5):
        got = matrixmodels.sample_gue_spectrum(np.random.default_rng(seed), size)
        want = bruteforce.gue_spectrum(np.random.default_rng(seed), size)
        assert got.tobytes() == want.tobytes()


def test_direct_lapack_resolves_on_scipy_openblas():
    # a numpy wheel links scipy-openblas, whose ILP64 symbols carry the
    # width in their names; a build that took the fallback there would
    # pass every other test unnoticed
    lapack = np.show_config(mode="dicts")["Build Dependencies"]["lapack"]
    if lapack.get("name") != "scipy-openblas":
        pytest.skip(f"numpy links {lapack.get('name')!r}, not scipy-openblas")
    assert matrixmodels._lapack() is not None
    assert all(name.endswith("_64_") for name in matrixmodels._LAPACK_NAMES)


def test_mc_writes_the_same_bytes_without_direct_lapack(monkeypatch, tmp_path,
                                                         capsys):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({
        "N": 40, "samples": 12, "seed": 23,
        "generators": [{"kind": "gue"}, {"kind": "gue"}]}))
    argv = ["mc", "--ensemble", str(path), "--max-order", "6"]
    assert cli.main(argv) == 0
    direct = capsys.readouterr().out
    monkeypatch.setattr(matrixmodels, "_lapack", lambda: None)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == direct


def test_diagonal_basis_has_the_law_of_dense_gues():
    # the word traces of (diag(eigenvalues of X), Y) and of a dense pair
    # (X, Y) have one joint law, for X a GUE or g^2 - 1 of one and Y an
    # independent GUE
    size, samples, order = 10, 1500, 6
    words = words_up_to(2, order, min_len=1)
    rng = np.random.default_rng(89)
    for first in (GueGenerator(), G2_MINUS_1):
        cfg = EnsembleConfig(size=size, samples=samples, seed=88,
                             generators=(first, GueGenerator()))
        table = mc_moment_table(cfg, order)
        got = bruteforce.word_values(table, words)
        got_stderr = bruteforce.word_stderr(table)
        dense = []
        for _ in range(samples):
            x = sample_gue(rng, size)
            if first is G2_MINUS_1:
                x = eval_poly_matrices(first.poly, [x], size)
                x = (x + x.conj().T) / 2
            mats = [x, sample_gue(rng, size)]
            traces = bruteforce.einsum_word_traces(mats, size, order, words)
            dense.append([traces[w] for w in words])
        dense = np.array(dense)
        mean = dense.mean(axis=0)
        stderr = dense.std(axis=0, ddof=1) / np.sqrt(samples)
        for k, w in enumerate(words):
            combined = np.hypot(got_stderr[w], stderr[k])
            assert abs(got[w] - mean[k]) <= 5 * combined


@pytest.mark.parametrize("n, order", [(1, 9), (2, 6), (2, 8), (2, 10),
                                      (3, 6), (4, 4)])
def test_diagonal_kernel_matches_einsum_oracle(n, order, np_rng):
    size = 9
    # ascending, as eigenvalues come, and of both signs, so that the
    # weighted Grams of odd runs of 1s split their columns
    lam = np.sort(np_rng.uniform(-2.0, 2.0, size))
    assert lam[0] < 0 < lam[-1]
    others = [rand_hermitian(np_rng, size) for _ in range(n - 1)]
    plan = matrixmodels._trace_plan(n, order)
    got = matrixmodels._class_traces([lam] + others, plan)
    mats = [np.diag(lam).astype(complex)] + others
    words = words_up_to(n, order, min_len=1)
    want = bruteforce.einsum_word_traces(mats, size, order, words)
    for c, w in enumerate(plan.reps):
        assert abs(got[c] - want[w]) <= 1e-12 * max(abs(want[w]), 1.0)


@pytest.mark.parametrize("size", [1, 9, 64])
def test_gram_matches_the_complex_product(size, np_rng):
    general = (np_rng.standard_normal((size, size))
               + 1j * np_rng.standard_normal((size, size)))
    signed = np.sort(np_rng.standard_normal(size))
    signed[size // 2] = 0.0
    weightings = (None, signed, -np.abs(signed[::-1]) - 0.5,
                  np.abs(signed) + 0.5, np.zeros(size))
    for q in (rand_hermitian(np_rng, size), general):
        for weights in weightings:
            got = matrixmodels._gram(q, weights)
            w = np.ones(size) if weights is None else weights
            want = (q * w) @ q.conj().T
            # the error bound of a sum of products: u times the sum of
            # the products' moduli
            scale = (np.abs(q) * np.abs(w)) @ np.abs(q).T
            assert np.abs(got - want).max() <= 1e-13 * scale.max()
            assert np.array_equal(got, got.conj().T)
    if size > 1:
        with pytest.raises(ValueError, match="negative entries first"):
            matrixmodels._gram(general, np.linspace(1.0, -1.0, size))


def test_trace_plan_builds_even_palindromes_as_grams():
    # order 8 over two coordinates: the Grams X X^H = 22 and
    # P_22 P_22^H = 2222, the weighted Grams X D X = 212 and
    # P_22 D P_22^H = 22122, and one complex product, 222; the balanced
    # rule built 3 complex products, 3 Grams and an adjoint copy
    built = {}
    for kind, w, *args in matrixmodels._trace_plan(2, 8).builds:
        if kind == "gram" and args[-1]:
            kind = "weighted gram"
        built.setdefault(kind, []).append(w)
    assert built == {"letter": [(2,)], "gram": [(2, 2), (2, 2, 2, 2)],
                     "weighted gram": [(2, 1, 2), (2, 2, 1, 2, 2)],
                     "gemm": [(2, 2, 2)]}


def _count(builds, *kinds):
    return sum(kind in kinds for kind, *_ in builds)


@pytest.mark.parametrize("n, order", [(n, order) for n in (1, 2, 3)
                                      for order in range(1, 9)]
                         + [(4, order) for order in range(1, 6)])
def test_pruned_plan_traces_every_class_and_builds_no_more(n, order):
    plan = matrixmodels._trace_plan(n, order)
    built = set()
    for kind, w, *args in plan.builds:
        # every product is built from cores built before it
        needs = args[::2] if kind == "gemm" else args[:1]
        assert kind == "letter" or built.issuperset(needs)
        built.add(w)
    # every class is traced once, by a rotation of its representative
    # cut into built cores
    words = {}
    for kind, c, *args in plan.singles:
        assert c not in words
        if kind == "power":
            words[c] = (1,) * args[0]
        elif kind == "diag":
            assert args[0] in built
            words[c] = args[0] + (1,) * args[1]
        else:
            assert {args[0], args[1]} <= built
            words[c] = args[0] + args[1][::-1]
    for (u, rv), (idx, ps, col, qs) in plan.scaled.items():
        assert {u, rv} <= built
        for c, p, q in zip(idx.tolist(), ps[col].tolist(), qs.tolist()):
            assert c not in words
            words[c] = u + (1,) * p + rv[::-1] + (1,) * q
    assert sorted(words) == list(range(len(plan.reps)))
    for c, w in words.items():
        assert w in rotations(plan.reps[c])
    # never more complex products, dense products (complex products
    # and Grams) or kept products than the balanced rule
    balanced = bruteforce.balanced_builds(n, order)
    for kinds in (("gemm",), ("gemm", "gram"), ("gemm", "gram", "adjoint")):
        assert _count(plan.builds, *kinds) <= _count(balanced, *kinds)


def test_poly_of_gue_matches_free_poisson():
    cfg = EnsembleConfig(size=150, samples=150, seed=5,
                         generators=(G2_MINUS_1,))
    table = mc_moment_table(cfg, 4)
    stderr = table.stored()[1]
    fp = centered_free_poisson(1)
    for m in range(1, 5):
        w = (1,) * m
        tol = max(5 * stderr[w], 0.08)
        assert table.moment(w).real == pytest.approx(fp.moment(w).real, abs=tol)


def test_poly_generator_must_be_selfadjoint():
    with pytest.raises(ValueError):
        PolyOfGueGenerator(NcPoly.gen(1, 1).scale(complex(0, 1)), 1)
    with pytest.raises(ValueError):
        PolyOfGueGenerator(NcPoly.gen(1, 2) * NcPoly.gen(2, 2), 2)


def test_mc_tables_validate():
    cfg = EnsembleConfig(size=60, samples=60, seed=9,
                         generators=(GueGenerator(), GueGenerator()))
    table = mc_moment_table(cfg, 4)
    assert validate_state(table) == []


def test_trace_state_exactness(np_rng):
    mats = [np.diag([1.0, -1.0, 0.5]), np.array([[0, 1j, 0], [-1j, 0, 0], [0, 0, 2.0]])]
    table = moment_table_from_matrices(mats, 4)
    byhand = np.trace(mats[0] @ mats[1] @ mats[1]) / 3
    assert table.moment((1, 2, 2)) == pytest.approx(byhand, rel=1e-13)
    assert table.norm_upper[0] == pytest.approx(1.0)
    assert validate_state(table) == []


def test_trace_state_rejects_non_hermitian():
    with pytest.raises(ValueError):
        moment_table_from_matrices([np.array([[0.0, 1.0], [0.0, 0.0]])], 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_trace_state_refuses_non_finite_matrices(bad, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigensolved a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    mats = [np.eye(3), np.diag([1.0, 2.0, 3.0]).astype(complex)]
    mats[1][0, 2] = mats[1][2, 0] = bad
    # refused before the Hermitian check, whose subtraction of infinities
    # would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match="matrix 1 has a non-finite entry"):
            moment_table_from_matrices(mats, 4)


def _close(got, want):
    return abs(got - want) <= 1e-12 * abs(want) + 1e-14


def _two_gue_poly():
    """A self-adjoint polynomial of two fresh GUEs with a constant term."""
    g, h = NcPoly.gen(1, 2), NcPoly.gen(2, 2)
    p = g * h + g * g * h * g - NcPoly.one(2).scale(0.25)
    return p + p.star()


@pytest.mark.parametrize("generators, max_order, samples", [
    ((GueGenerator(),), 5, 4),
    ((GueGenerator(),), 6, 1),
    ((GueGenerator(), G2_MINUS_1), 6, 3),
    ((PolyOfGueGenerator(_two_gue_poly(), 2), GueGenerator(),
      GueGenerator()), 3, 3),
    ((GueGenerator(), GueGenerator(), GueGenerator()), 4, 2),
])
def test_mc_table_matches_einsum_oracle(generators, max_order, samples):
    cfg = EnsembleConfig(size=12, samples=samples, seed=31,
                         generators=generators)
    table = mc_moment_table(cfg, max_order)
    entries, stderr, norm_upper = bruteforce.mc_moment_oracle(cfg, max_order)
    assert table.norm_upper == norm_upper
    words = words_up_to(cfg.nvars, max_order, min_len=1)
    got = bruteforce.word_values(table, words)
    got_stderr = bruteforce.word_stderr(table)
    for w in words:
        assert _close(got[w], entries[w])
        assert _close(got_stderr[w], stderr[w])
        # exact Hermitian symmetry, palindromes real
        assert got[w[::-1]] == got[w].conjugate()


def test_trace_state_matches_direct_products(np_rng):
    size = 7
    mats = []
    for _ in range(3):
        a = rand_hermitian(np_rng, size)
        # Hermitian within the default atol only
        mats.append(a + 1e-14 * np_rng.standard_normal((size, size)))
    for n, order in ((1, 7), (2, 5), (3, 4)):
        table = moment_table_from_matrices(mats[:n], order)
        herm = [(m + m.conj().T) / 2 for m in mats[:n]]
        words = words_up_to(n, order, min_len=1)
        got = bruteforce.word_values(table, words)
        for w in words:
            want = np.trace(bruteforce.word_matrix(w, herm, size)) / size
            assert abs(got[w] - want) <= 1e-12 * max(abs(want), 1.0)
            assert got[w[::-1]] == got[w].conjugate()


def test_eval_poly_matches_identity_started_products(np_rng):
    size = 9
    mats = [rand_hermitian(np_rng, size) for _ in range(2)]
    g1 = NcPoly.gen(1, 1)
    polys = [
        (g1 * g1 - NcPoly.one(1), mats[:1]),
        (NcPoly.one(1).scale(complex(0.25, -1.5)) + g1 * g1 * g1, mats[:1]),
        (_two_gue_poly(), mats),
    ]
    for poly, args in polys:
        got = eval_poly_matrices(poly, args, size)
        assert np.array_equal(got, bruteforce.poly_matrix(poly, args, size))


def _refuse_sampling(monkeypatch, what):
    def refuse(*args, **kwargs):
        raise AssertionError(f"sampled before checking {what}")

    for name in ("sample_gue", "sample_gue_spectrum"):
        monkeypatch.setattr(matrixmodels, name, refuse)


def _ensemble_file(tmp_path, coordinates=1, seed=1):
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"N": 8, "samples": 3, "seed": seed,
                                "generators": [{"kind": "gue"}] * coordinates}))
    return str(path)


def test_mc_rejects_max_order_before_sampling(monkeypatch, tmp_path, capsys):
    _refuse_sampling(monkeypatch, "max_order")
    cfg = EnsembleConfig(size=8, samples=3, seed=1, generators=(GueGenerator(),))
    with pytest.raises(ValueError, match="max_order must be >= 1"):
        mc_moment_table(cfg, 0)
    path = _ensemble_file(tmp_path)
    assert cli.main(["mc", "--ensemble", path, "--max-order", "0"]) == 1
    assert "max_order must be >= 1" in capsys.readouterr().err


def test_degree_checked_before_sampling(monkeypatch, tmp_path, capsys):
    _refuse_sampling(monkeypatch, "--degree and --norm-order")
    path = _ensemble_file(tmp_path, coordinates=2)
    odd_or_negative = "order must be a positive even integer"
    for argv, message in (
            (["poincare", "--degree", "0"], "degree must be >= 1"),
            (["stein", "--degree", "-1"], "degree must be >= 0"),
            *((["poincare", "--norm-order", order], odd_or_negative)
              for order in ("3", "0", "-2"))):
        assert cli.main(argv + ["--ensemble", path]) == 1
        assert message in capsys.readouterr().err


def test_poincare_samples_up_to_the_norm_order(tmp_path, capsys):
    path = _ensemble_file(tmp_path, coordinates=2)
    argv = ["poincare", "--ensemble", path, "--degree", "2",
            "--norm-order", "10"]
    assert cli.main(argv) == 0
    estimates = json.loads(capsys.readouterr().out)["norm_estimates"]
    assert [e["order"] for e in estimates] == [10, 10]


def test_negative_seed_rejected_before_sampling(monkeypatch, tmp_path, capsys):
    _refuse_sampling(monkeypatch, "the seed")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        EnsembleConfig(size=8, samples=3, seed=-1, generators=(GueGenerator(),))
    path = _ensemble_file(tmp_path, seed=-5)
    assert cli.main(["mc", "--ensemble", path]) == 1
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["field"] == "ensemble.seed"
    path = _ensemble_file(tmp_path)
    for argv in (["mc", "--ensemble", path, "--seed", "-3"],
                 ["poincare", "--ensemble", path, "--seed", "-3"]):
        assert cli.main(argv) == 1
        assert "seed must be >= 0" in capsys.readouterr().err


def test_trace_budget_fails_before_sampling(monkeypatch, tmp_path, capsys):
    _refuse_sampling(monkeypatch, "the budget")
    two = EnsembleConfig(size=8, samples=3, seed=1,
                         generators=(GueGenerator(), GueGenerator()))
    with pytest.raises(BudgetExceededError, match="letters"):
        mc_moment_table(two, 30)
    one = EnsembleConfig(size=8, samples=3, seed=1, generators=(GueGenerator(),))
    with pytest.raises(BudgetExceededError, match="letters"):
        mc_moment_table(one, 10**9)
    wide = EnsembleConfig(size=10**4, samples=1, seed=1,
                          generators=(GueGenerator(),))
    with pytest.raises(BudgetExceededError, match="bytes"):
        mc_moment_table(wide, 2)
    path = _ensemble_file(tmp_path, coordinates=2)
    assert cli.main(["mc", "--ensemble", path, "--max-order", "30"]) == 4
    assert "budget_exceeded" in capsys.readouterr().err


def test_trace_budget_charges_the_arrays_a_table_keeps():
    # order 8 over two coordinates keeps 5 products, the dense
    # coordinate and 1.5 N x N of scratch: 7.5 N x N complex arrays
    plan = matrixmodels._check_trace_budget(2, 2991, 8)
    built = [b[1] for b in plan.builds if b[0] != "letter"]
    assert len(built) == 5
    assert 7.5 * 16 * 2991 ** 2 <= matrixmodels.MAX_PRODUCT_BYTES
    with pytest.raises(BudgetExceededError, match="7.5 N x N arrays") as err:
        matrixmodels._check_trace_budget(2, 2992, 8)
    assert err.value.needed == 7.5 * 16 * 2992 ** 2
    # one coordinate keeps no product, only the scratch
    matrixmodels._check_trace_budget(1, 6688, 12)
    with pytest.raises(BudgetExceededError, match="1.5 N x N arrays"):
        matrixmodels._check_trace_budget(1, 6689, 12)


def test_trace_budget_charges_polynomial_inputs(monkeypatch):
    # a draw holds all 60 fresh inputs of the generator at once, and 3
    # arrays more while it evaluates them: with the scratch, 64.5 N x N
    # complex arrays, 1.25 GB at N = 1,100
    _refuse_sampling(monkeypatch, "the budget")
    linear = PolyOfGueGenerator(
        NcPoly(60, {(i,): 1 for i in range(1, 61)}), 60)
    config = EnsembleConfig(size=1100, samples=2, seed=1, generators=(linear,))
    with pytest.raises(BudgetExceededError, match="64.5 N x N arrays"):
        mc_moment_table(config, 2)
    # without the generator, the same table charges only the scratch
    matrixmodels._check_trace_budget(1, 1100, 2)


def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(len(a))
        return eigvalsh(a, *args, **kwargs)

    # the backend calls it through np.linalg, where it is replaced
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("max_order", [2, 6])
def test_norm_certificate_never_changes_output(max_order, monkeypatch,
                                               tmp_path, capsys):
    # a GUE and a 1 - g^2 coordinate, whose largest |eigenvalue| is a
    # negative one, in both orders; order 2 builds no square in the
    # traces, order 6 does
    one_minus_g2 = NcPoly(1, {(): 1, (1, 1): -1})
    gue = {"kind": "gue"}
    poly = {"kind": "poly_of_gue", "fresh_gues": 1,
            "poly": serialize.poly_to_obj(one_minus_g2)}
    calls = _count_eigvalsh(monkeypatch)
    for generators in ([gue, poly], [poly, gue]):
        obj = {"N": 48, "samples": 30, "seed": 17, "generators": generators}
        path = tmp_path / "ens.json"
        path.write_text(json.dumps(obj))
        records = bruteforce.norm_records(serialize.ensemble_from_obj(obj))
        argv = ["mc", "--ensemble", str(path), "--max-order", str(max_order)]
        calls.clear()
        assert cli.main(argv) == 0
        certified = capsys.readouterr().out
        # a polynomial coordinate 1 takes one eigensolve of its dense
        # Hermitian part per draw, a GUE one none where dsterf solves its
        # tridiagonal model; coordinate 2 takes one per record
        spectra = 30 if generators[0] is poly or not matrixmodels._lapack() else 0
        assert all(2 <= r < 30 for r in records)
        assert len(calls) == spectra + records[1]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(matrixmodels, "_norm_below",
                      lambda square, bound, work=None: False)
            assert cli.main(argv) == 0
        assert len(calls) == spectra + 30
        assert capsys.readouterr().out == certified


def test_norm_certificate_edge_cases():
    x = np.diag([-3.0, 1.0, 2.0]).astype(complex)
    square = x @ x
    assert not matrixmodels._norm_below(square, 0.0)
    assert not matrixmodels._norm_below(square, 3.0)
    assert not matrixmodels._norm_below(square, 3.0 * (1 + 1e-9))
    assert matrixmodels._norm_below(square, 3.1)
    assert matrixmodels._norm_below(square, 3.0 * (1 + 1e-7))
    # the certificate leaves its square untouched
    assert np.array_equal(square, x @ x)


def _cholesky_proves(square, bound):
    """``_norm_below`` by ``np.linalg.cholesky`` of a copy."""
    tau = bound * (1.0 - matrixmodels.CERT_MARGIN)
    try:
        np.linalg.cholesky(tau * tau * np.eye(len(square)) - square)
    except np.linalg.LinAlgError:
        return False
    return True


@pytest.mark.parametrize("size", [1, 2, 7, 48, 200])
def test_norm_certificate_agrees_with_numpy_cholesky(size, np_rng):
    for _ in range(4):
        x = sample_gue(np_rng, size)
        square = x @ x
        kept = square.copy()
        norm = float(np.abs(np.linalg.eigvalsh(x)).max())
        for factor in (1 - 1e-9, 1 + 1e-9, 1 - 1e-7, 1 + 1e-7):
            proved = matrixmodels._norm_below(square, norm * factor)
            assert proved == _cholesky_proves(square, norm * factor)
            assert proved == (factor > 1 + 1e-8)
            assert np.array_equal(square, kept)


def test_constant_coordinate_ties_the_max_in_every_sample(monkeypatch):
    # X = 2I in every sample: its norm ties the running max, which no
    # certificate proves, so every sample falls back to the eigensolve
    two = PolyOfGueGenerator(NcPoly(1, {(): 2}), 1)
    cfg = EnsembleConfig(size=10, samples=6, seed=5, generators=(two,))
    calls = _count_eigvalsh(monkeypatch)
    table = mc_moment_table(cfg, 4)
    assert len(calls) == 6
    assert table.norm_upper == (2.0,)
    assert table.moment((1, 1, 1, 1)) == 16.0


def test_trace_buffers_are_made_once_per_table(monkeypatch):
    # every product, the dense coordinate and the scratch arrays are
    # allocated on the first draw and written over on the later ones
    made = []
    missing = matrixmodels._Buffers.__missing__

    def counted(self, key):
        made.append(key)
        return missing(self, key)

    monkeypatch.setattr(matrixmodels._Buffers, "__missing__", counted)
    cfg = EnsembleConfig(size=12, samples=4, seed=5,
                         generators=(GueGenerator(), GueGenerator()))
    mc_moment_table(cfg, 8)
    products = [w for kind, w, *_ in matrixmodels._trace_plan(2, 8).builds
                if kind != "letter"]
    assert sorted(made, key=str) == sorted(
        products + [(2,), "scaled", "temp"], key=str)


def test_seed_streams_take_bounded_memory():
    # one child stream is spawned per draw, not all before the first
    config = EnsembleConfig(size=1, samples=2000, seed=3,
                            generators=(GueGenerator(),))
    mc_moment_table(dataclasses.replace(config, samples=2), 1)  # warm caches
    tracemalloc.start()
    try:
        mc_moment_table(config, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6
