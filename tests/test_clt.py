"""Free CLT experiments: cumulant rescaling and rate tables."""

import numpy as np
import pytest

from freestein import (
    CltExperiment,
    CumulantSpec,
    CumulantState,
    InadmissibleProblemError,
    centered_free_poisson,
    clt_rate_table,
    rescale_cumulants,
    rows_to_csv,
    semicircular,
)
from freestein import clt
from freestein.cli import main
from freestein.clt import CSV_HEADER, theorem_constant
from freestein.states import words_up_to

from conftest import rand_cumulant_spec


def test_rescale_identity_at_k_one():
    base = centered_free_poisson(1).spec
    assert rescale_cumulants(base, 1) is base


def test_rescale_keeps_covariance():
    base = centered_free_poisson(1, max_order=8).spec
    for k in (2, 4, 16):
        spec = rescale_cumulants(base, k)
        assert spec.value((1, 1)) == pytest.approx(1.0)


def test_rescale_order_four_example():
    base = centered_free_poisson(1).spec
    spec = rescale_cumulants(base, 4)
    assert spec.value((1, 1, 1, 1)) == pytest.approx(0.25)
    assert spec.value((1, 1, 1)) == pytest.approx(0.5)


def _rebuilt(base, k):
    kappa = {w: v * float(k) ** (1.0 - len(w) / 2.0)
             for w, v in base.kappa.items()}
    return CumulantSpec(base.nvars, kappa, max_order=base.max_order)


# the ids name the (cyclic, Hermitian) class modes; every spec is
# Hermitian
@pytest.mark.parametrize("cyclic", [True, False],
                         ids=["True-True", "False-True"])
def test_rescale_matches_a_rebuilt_spec(rng, cyclic):
    for nvars, max_order in ((2, 6), (3, 5)):  # n = 1 is always cyclic
        base = rand_cumulant_spec(rng, nvars, max_order, cyclic=cyclic)
        assert base.cyclic == cyclic
        for k in (1, 2, 4, 8):
            got, want = rescale_cumulants(base, k), _rebuilt(base, k)
            assert got.kappa == want.kappa
            # the base's codes, each mapped to its scaled value
            assert list(got.blocks) == list(base.blocks)
            assert got.blocks == want.blocks
            assert got.cyclic == want.cyclic
            assert got.max_order == want.max_order
            _assert_same_moments(got, want)


def test_rescale_drops_a_value_that_underflows():
    base = CumulantSpec(1, {(1, 1): 1.0, (1, 1, 1): 5e-324}, max_order=6)
    got, want = rescale_cumulants(base, 8), _rebuilt(base, 8)
    assert got.kappa == want.kappa == {(1, 1): 1 + 0j}
    # the word stays in the block map, its value 0; codes 1, 2 and 3 are
    # (1,), (1, 1) and (1, 1, 1)
    assert list(got.blocks) == list(base.blocks)
    assert got.blocks == {1: 0, 2: 1, 3: 0}
    _assert_same_moments(got, want)


def _assert_same_moments(got, want):
    # byte for byte, signed zeros included, on every word
    words = words_up_to(got.nvars, got.max_order)
    assert (list(map(repr, CumulantState(got).word_moments(words).tolist()))
            == list(map(repr, CumulantState(want).word_moments(words)
                        .tolist())))


def test_semicircular_spec_is_fixed_point():
    base = semicircular(2).spec
    for k in (2, 8, 64):
        spec = rescale_cumulants(base, k)
        assert spec.kappa == base.kappa


def test_centering_and_isotropy_preserved():
    base = centered_free_poisson(1, max_order=8).spec
    for k in (2, 8):
        state = CumulantState(rescale_cumulants(base, k))
        assert state.moment((1,)) == 0
        assert state.moment((1, 1)) == pytest.approx(1.0)


def test_base_validation():
    with pytest.raises(InadmissibleProblemError):
        CltExperiment(base=CumulantState(
            CumulantSpec(1, {(1,): 0.5, (1, 1): 1.0})), ks=(1, 2), degree=2)
    with pytest.raises(InadmissibleProblemError):
        CltExperiment(base=CumulantState(CumulantSpec(1, {(1, 1): 2.0})),
                      ks=(1,), degree=2)
    # the base is the state itself, whose memo the rate table reuses
    with pytest.raises(TypeError, match="base must be a CumulantState"):
        CltExperiment(base=CumulantSpec(1, {(1, 1): 1.0}), ks=(1,), degree=2)


def test_fourth_moment_interpolation():
    # m4(Y^k) = 2 + (m4(X) - 2)/k for one variable
    base = centered_free_poisson(1, max_order=8).spec
    for k in (1, 2, 4, 8, 32):
        state = CumulantState(rescale_cumulants(base, k))
        assert state.moment((1,) * 4).real == pytest.approx(2.0 + 1.0 / k)


def test_moment_convergence_first_order():
    # |m_{Y^k}(w) - m_semicircle(w)| <= A / k for all words up to length 8
    base = centered_free_poisson(1, max_order=8).spec
    sc = semicircular(1, max_order=8)
    ks = (2, 4, 8, 16, 32)
    scaled_devs = []
    for k in ks:
        state = CumulantState(rescale_cumulants(base, k))
        dev = max(
            abs(state.moment(w) - sc.moment(w))
            for w in words_up_to(1, 8, min_len=1)
        )
        scaled_devs.append(dev * k)
    assert max(scaled_devs) <= 2.0 * min(scaled_devs)


def test_theorem_constant_branches():
    # the builtin's norm bound is 3
    const, m4, branch = theorem_constant(centered_free_poisson(1))
    assert m4 == pytest.approx(3.0)
    assert branch == pytest.approx(1.5)
    # norm branch gives 2 n ||X||^2 - 1 = 17, so the m4 branch wins
    assert const == pytest.approx(np.sqrt(1.5))


def test_rate_table_free_poisson():
    fp = centered_free_poisson(1, max_order=8)
    exp = CltExperiment(base=fp, ks=(1, 2, 4, 8, 16, 32, 64), degree=3)
    rows = clt_rate_table(exp)
    sigmas = [r.sigma_lower for r in rows]
    assert all(hi <= lo + 1e-12 for lo, hi in zip(sigmas, sigmas[1:]))
    assert all(r.within_m4_bound for r in rows)
    scaled = [r.sigma_lower * np.sqrt(r.k) for r in rows]
    assert max(scaled) <= 3.0 * min(scaled)
    assert all(r.ratio <= 1.0 + 1e-9 for r in rows)


def test_rate_table_semicircular_fixed_point():
    sc = semicircular(1, max_order=8)
    exp = CltExperiment(base=sc, ks=(1, 4, 16), degree=3)
    rows = clt_rate_table(exp)
    assert all(r.sigma_lower <= 1e-6 for r in rows)
    assert all(r.m4 == pytest.approx(2.0) for r in rows)


def test_csv_shape():
    fp = centered_free_poisson(1, max_order=8)
    exp = CltExperiment(base=fp, ks=(1, 2), degree=2)
    text = rows_to_csv(clt_rate_table(exp))
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert len(lines[1].split(",")) == 6


# ``freestein clt --ks 1,4,16 --degree 2``: the builtin centered free
# Poisson base
CLT_CSV = CSV_HEADER + """
1,3,0.70710678118654757,1.2247448713915889,1.2247448713915889,0.57735026918962584
4,2.25,0.35355339059327379,1.2247448713915889,0.61237243569579447,0.57735026918962584
16,2.0625,0.17677669529663689,1.2247448713915889,0.30618621784789724,0.57735026918962584
"""


def test_rate_table_solves_no_poincare_bound(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the rate table reports no Poincare bound")

    monkeypatch.setattr(clt, "poincare_lower_bound", refuse)
    fp = centered_free_poisson(1, max_order=6)
    exp = CltExperiment(base=fp, ks=(1, 4, 16), degree=2)
    assert rows_to_csv(clt_rate_table(exp)) == CLT_CSV
    assert main(["clt", "--ks", "1,4,16", "--degree", "2"]) == 0
    assert capsys.readouterr().out == CLT_CSV


@pytest.mark.parametrize("degree", range(2, 8))
def test_builtin_base_rate_is_pinned(capsys, degree):
    # The builtin base is the centered free Poisson law (m4 = 3, so the
    # constant is sqrt(3/2)).  At each degree 2..7 the rescaled copies
    # have sigma_d(Y_k) = 1/sqrt(2k), so the ratio is 1/sqrt(3).
    ks = (1, 2, 4, 8, 16, 32, 64)
    assert main(["clt", "--ks", ",".join(map(str, ks)),
                 "--degree", str(degree)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in rows] == list(ks)
    for k, row in zip(ks, rows):
        sigma, ratio = float(row[2]), float(row[5])
        assert sigma * np.sqrt(2 * k) == pytest.approx(1, rel=1e-14, abs=0)
        assert ratio == pytest.approx(1 / np.sqrt(3), rel=1e-14, abs=0)
