"""Monte Carlo backend: GUE convention, determinism, convergence, and
the word traces against the per-word ``einsum`` oracle."""

import json

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
from freestein import cli, matrixmodels
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


def test_max_deviation_decreases_with_size():
    sc = semicircular(1)
    devs = []
    for size in (50, 100, 200):
        cfg = EnsembleConfig(size=size, samples=200, seed=2024,
                             generators=(GueGenerator(),))
        table = mc_moment_table(cfg, 6)
        devs.append(
            max(
                abs(table.moment(w) - sc.moment(w))
                for w in words_up_to(1, 6, min_len=1)
            )
        )
    assert devs[0] > devs[1] > devs[2]


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


def test_mc_rejects_max_order_before_sampling(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking max_order")

    monkeypatch.setattr(matrixmodels, "sample_gue", refuse)
    cfg = EnsembleConfig(size=8, samples=3, seed=1, generators=(GueGenerator(),))
    with pytest.raises(ValueError, match="max_order must be >= 1"):
        mc_moment_table(cfg, 0)
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"N": 8, "samples": 3, "seed": 1,
                                "generators": [{"kind": "gue"}]}))
    assert cli.main(["mc", "--ensemble", str(path), "--max-order", "0"]) == 1
    assert "max_order must be >= 1" in capsys.readouterr().err


def test_trace_budget_fails_before_sampling(monkeypatch, tmp_path, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before checking the budget")

    monkeypatch.setattr(matrixmodels, "sample_gue", refuse)
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
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"N": 8, "samples": 3, "seed": 1,
                                "generators": [{"kind": "gue"}] * 2}))
    assert cli.main(["mc", "--ensemble", str(path), "--max-order", "30"]) == 4
    assert "budget_exceeded" in capsys.readouterr().err
