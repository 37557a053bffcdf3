"""Monte Carlo backend: GUE convention, determinism, convergence, and
the word traces against the per-word ``einsum`` oracle."""

import dataclasses
import json
import tracemalloc

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
from conftest import rand_hermitian


def test_gue_entry_variances():
    rng = np.random.default_rng(0)
    size = 40
    samples = [sample_gue(rng, size) for _ in range(300)]
    stack = np.stack(samples)
    assert np.abs(stack - stack.conj().transpose(0, 2, 1)).max() < 1e-12
    off = np.mean(np.abs(stack[:, 0, 1]) ** 2)
    diag = np.mean(stack[:, 2, 2].real ** 2)
    assert off == pytest.approx(1.0 / size, rel=0.2)
    assert diag == pytest.approx(1.0 / size, rel=0.3)
    assert np.abs(stack[:, 2, 2].imag).max() < 1e-15


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
    cfg = EnsembleConfig(size=50, samples=40, seed=7,
                         generators=(GueGenerator(),))
    t1 = mc_moment_table(cfg, 4)
    t2 = mc_moment_table(cfg, 4)
    assert t1.entries == t2.entries
    assert t1.stderr == t2.stderr
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
        bias = {4: 1 / size**2, 6: 10 / size**2}
        for m in range(1, 7):
            w = (1,) * m
            dev = abs(table.moment(w) - sc.moment(w))
            assert dev <= 6 * table.stderr[w] + bias.get(m, 0.0)
        stderr6.append(table.stderr[(1,) * 6])
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


def test_diagonal_basis_has_the_law_of_dense_gues():
    # the word traces of (diag(eigenvalues of X), Y) and of a dense pair
    # (X, Y) of independent GUEs have one joint law
    size, samples, order = 10, 1500, 6
    cfg = EnsembleConfig(size=size, samples=samples, seed=88,
                         generators=(GueGenerator(), GueGenerator()))
    table = mc_moment_table(cfg, order)
    words = words_up_to(2, order, min_len=1)
    rng = np.random.default_rng(89)
    dense = []
    for _ in range(samples):
        mats = [sample_gue(rng, size), sample_gue(rng, size)]
        traces = bruteforce.einsum_word_traces(mats, size, order, words)
        dense.append([traces[w] for w in words])
    dense = np.array(dense)
    mean = dense.mean(axis=0)
    stderr = dense.std(axis=0, ddof=1) / np.sqrt(samples)
    for k, w in enumerate(words):
        combined = np.hypot(table.stderr[w], stderr[k])
        assert abs(table.entries[w] - mean[k]) <= 5 * combined


@pytest.mark.parametrize("n, order", [(1, 9), (2, 8), (3, 6)])
def test_diagonal_kernel_matches_einsum_oracle(n, order, np_rng):
    size = 9
    lam = 1.5 * np_rng.standard_normal(size)
    others = [rand_hermitian(np_rng, size) for _ in range(n - 1)]
    plan = matrixmodels._trace_plan(n, order, diagonal=True)
    got = matrixmodels._class_traces([lam] + others, plan)
    mats = [np.diag(lam).astype(complex)] + others
    words = words_up_to(n, order, min_len=1)
    want = bruteforce.einsum_word_traces(mats, size, order, words)
    for c, w in enumerate(plan.reps):
        assert abs(got[c] - want[w]) <= 1e-12 * max(abs(want[w]), 1.0)


def test_poly_of_gue_matches_free_poisson():
    g = NcPoly.gen(1, 1)
    poly = g * g - NcPoly.one(1)
    cfg = EnsembleConfig(size=150, samples=150, seed=5,
                         generators=(PolyOfGueGenerator(poly, 1),))
    table = mc_moment_table(cfg, 4)
    fp = centered_free_poisson(1)
    for m in range(1, 5):
        w = (1,) * m
        tol = max(5 * table.stderr[w], 0.08)
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
    assert validate_state(table, psd_tol=1e-6, herm_tol=1e-6) == []


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
    ((GueGenerator(), PolyOfGueGenerator(
        NcPoly.gen(1, 1) * NcPoly.gen(1, 1) - NcPoly.one(1), 1)), 6, 3),
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
    for w in words_up_to(cfg.nvars, max_order, min_len=1):
        assert _close(table.entries[w], entries[w])
        assert _close(table.stderr[w], stderr[w])
        # exact Hermitian symmetry, palindromes real
        assert table.entries[w[::-1]] == table.entries[w].conjugate()


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
        for w in words_up_to(n, order, min_len=1):
            want = np.trace(bruteforce.word_matrix(w, herm, size)) / size
            assert abs(table.moment(w) - want) <= 1e-12 * max(abs(want), 1.0)
            assert table.entries[w[::-1]] == table.entries[w].conjugate()


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
    _refuse_sampling(monkeypatch, "--degree")
    path = _ensemble_file(tmp_path, coordinates=2)
    for argv, message in ((["poincare", "--degree", "0"], "degree must be >= 1"),
                          (["stein", "--degree", "-1"], "degree must be >= 0")):
        assert cli.main(argv + ["--ensemble", path]) == 1
        assert message in capsys.readouterr().err


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
        # a GUE coordinate 1 takes one eigensolve of its tridiagonal
        # model per draw; a dense coordinate one per record
        assert all(2 <= r < 30 for r in records)
        if generators[0] is gue:
            assert len(calls) == 30 + records[1]
        else:
            assert len(calls) == records[0] + records[1]
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(matrixmodels, "_norm_below", lambda square, bound: False)
            assert cli.main(argv) == 0
        assert len(calls) == 60
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
