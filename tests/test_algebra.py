"""Exact symbolic layer: frozen examples and algebraic identities."""

from fractions import Fraction

import pytest

from freestein import (
    ComplexRational,
    KernelMatrix,
    NcPoly,
    TensorPoly,
    cyclic_derivative,
    cyclic_gradient,
    delta,
    explicit_kernel,
    jacobian,
    partial_derivative,
    quadratic_potential,
)
from freestein.algebra import CR_HALF, delta_gen

from conftest import rand_poly, rand_tensor


def t(i, n):
    return NcPoly.gen(i, n)


def test_zero_nvars_rejected():
    with pytest.raises(ValueError):
        NcPoly(0)
    with pytest.raises(ValueError):
        TensorPoly(0)


def test_canonical_form_drops_zeros():
    p = t(1, 1) - t(1, 1)
    assert p.is_zero()
    assert p.terms == {}


def test_involution_examples():
    n = 2
    assert (t(1, n) * t(2, n)).star() == t(2, n) * t(1, n)
    i_t1 = t(1, n).scale(ComplexRational(0, 1))
    assert i_t1.star() == t(1, n).scale(ComplexRational(0, -1))


def test_involution_antihomomorphism(rng):
    for _ in range(40):
        p = rand_poly(rng, 2, 4)
        q = rand_poly(rng, 2, 4)
        assert (p * q).star() == q.star() * p.star()
        assert p.star().star() == p


def test_tensor_involution_examples():
    n = 2
    q = TensorPoly.of(t(1, n), t(2, n))
    assert q.star() == q
    iq = TensorPoly.of(t(1, n), NcPoly.one(n)).scale(ComplexRational(0, 1))
    assert iq.star() == TensorPoly.of(t(1, n), NcPoly.one(n)).scale(
        ComplexRational(0, -1)
    )


def test_tensor_involution_antihomomorphism_for_sharp(rng):
    for _ in range(30):
        a = rand_tensor(rng, 2, 3)
        b = rand_tensor(rng, 2, 3)
        assert a.sharp(b).star() == b.star().sharp(a.star())


def test_sharp_examples():
    n = 2
    one = NcPoly.one(n)
    lhs = TensorPoly.of(one, t(2, n)).sharp(TensorPoly.of(t(1, n), one))
    assert lhs == TensorPoly.of(t(1, n), t(2, n))

    a = TensorPoly.of(t(1, n), one) - TensorPoly.of(one, t(1, n))
    got = TensorPoly.of(one, t(2, n)).sharp(a)
    want = TensorPoly.of(t(1, n), t(2, n)) - TensorPoly.of(one, t(1, n) * t(2, n))
    assert got == want


def test_sharp_unit_and_associativity(rng):
    unit = TensorPoly.one(2)
    for _ in range(30):
        a = rand_tensor(rng, 2, 3)
        b = rand_tensor(rng, 2, 3)
        c = rand_tensor(rng, 2, 3)
        assert a.sharp(unit) == a
        assert unit.sharp(a) == a
        assert a.sharp(b).sharp(c) == a.sharp(b.sharp(c))


def test_sharp_nvars_mismatch():
    with pytest.raises(ValueError):
        TensorPoly.one(1).sharp(TensorPoly.one(2))


def test_partial_examples():
    n = 2
    sq = t(1, n) * t(1, n)
    one = NcPoly.one(n)
    assert partial_derivative(1, sq) == TensorPoly.of(one, t(1, n)) + TensorPoly.of(
        t(1, n), one
    )
    cube2 = t(2, n) ** 3
    assert partial_derivative(1, cube2).is_zero()

    w = t(1, n) * t(2, n) * t(1, n) * t(2, n)
    got = partial_derivative(1, w)
    want = TensorPoly.of(one, t(2, n) * t(1, n) * t(2, n)) + TensorPoly.of(
        t(1, n) * t(2, n), t(2, n)
    )
    assert got == want


def test_partial_index_range():
    with pytest.raises(IndexError):
        partial_derivative(3, NcPoly.one(2))
    with pytest.raises(IndexError):
        cyclic_derivative(0, NcPoly.one(2))


def test_partial_leibniz(rng):
    one = NcPoly.one(3)
    for _ in range(50):
        p = rand_poly(rng, 3, 5)
        q = rand_poly(rng, 3, 5)
        for i in (1, 2, 3):
            lhs = partial_derivative(i, p * q)
            # (1 (x) q) # (a (x) b) = a (x) bq and (p (x) 1) # (a (x) b) = pa (x) b
            rhs = (TensorPoly.of(one, q).sharp(partial_derivative(i, p))
                   + TensorPoly.of(p, one).sharp(partial_derivative(i, q)))
            assert lhs == rhs


def test_delta_examples():
    n = 1
    assert delta(NcPoly.one(n)).is_zero()
    assert delta(t(1, n)) == delta_gen(1, n)


def test_delta_is_derivation(rng):
    for _ in range(40):
        p = rand_poly(rng, 2, 4)
        q = rand_poly(rng, 2, 4)
        one = NcPoly.one(2)
        assert delta(p * q) == (TensorPoly.of(one, q).sharp(delta(p))
                                + TensorPoly.of(p, one).sharp(delta(q)))


def test_derivation_link(rng):
    # delta(p) = sum_i partial_i(p) # delta(t_i)
    for _ in range(40):
        nvars = rng.choice((1, 2, 3))
        p = rand_poly(rng, nvars, 6)
        total = TensorPoly.zero(nvars)
        for i in range(1, nvars + 1):
            total = total + partial_derivative(i, p).sharp(delta_gen(i, nvars))
        assert total == delta(p)


def test_cyclic_derivative_examples():
    n = 2
    v = NcPoly.monomial((1, 1), n, CR_HALF)
    assert cyclic_derivative(1, v) == t(1, n)
    assert cyclic_derivative(1, t(2, n)).is_zero()

    w = t(1, n) * t(2, n) * t(1, n) * t(2, n)
    assert cyclic_derivative(1, w) == (t(2, n) * t(1, n) * t(2, n)).scale(2)


def test_cyclic_gradient_examples():
    n = 3
    assert cyclic_gradient(quadratic_potential(n)) == tuple(
        t(i, n) for i in range(1, n + 1)
    )
    assert all(g.is_zero() for g in cyclic_gradient(NcPoly.one(n).scale(5)))
    mixed = t(1, 2) * t(2, 2) + t(2, 2) * t(1, 2)
    assert cyclic_gradient(mixed) == (t(2, 2).scale(2), t(1, 2).scale(2))


def test_cyclic_derivative_composition(rng):
    # D_i agrees with multiply . flip . partial_i termwise
    for _ in range(30):
        p = rand_poly(rng, 2, 5)
        for i in (1, 2):
            d = partial_derivative(i, p)
            composed = NcPoly(2)
            for (a, b), c in d.terms.items():
                composed = composed + NcPoly.monomial(b + a, 2, c)
            assert cyclic_derivative(i, p) == composed


def test_jacobian_examples():
    n = 2
    coords = tuple(t(i, n) for i in range(1, n + 1))
    assert jacobian(coords) == KernelMatrix.identity(n)

    zeros = tuple(NcPoly.zero(n) for _ in range(n))
    assert jacobian(zeros) == KernelMatrix.zero(n)

    ps = (t(1, n) * t(2, n), t(2, n) ** 2)
    jac = jacobian(ps)
    one = NcPoly.one(n)
    assert jac.entry(0, 0) == TensorPoly.of(one, t(2, n))
    assert jac.entry(0, 1) == TensorPoly.of(t(1, n), one)
    assert jac.entry(1, 0).is_zero()
    assert jac.entry(1, 1) == TensorPoly.of(one, t(2, n)) + TensorPoly.of(
        t(2, n), one
    )


def test_matrix_adjoint(rng):
    n = 2
    assert KernelMatrix.identity(n).adjoint() == KernelMatrix.identity(n)
    for _ in range(10):
        rows = tuple(
            tuple(rand_tensor(rng, n, 3) for _ in range(n)) for _ in range(n)
        )
        a = KernelMatrix(rows)
        assert a.adjoint().adjoint() == a
    ps = (t(1, n) * t(2, n), t(2, n) ** 2)
    adj = jacobian(ps).adjoint()
    assert adj.entry(1, 0) == TensorPoly.of(t(1, n), NcPoly.one(n))
    assert adj.entry(0, 1).is_zero()


def test_explicit_kernel_single_variable():
    # 1/2 (t^2 (x) 1 + 1 (x) t^2 - 2 t (x) t) for the quadratic potential
    n = 1
    a = explicit_kernel(quadratic_potential(n))
    one = NcPoly.one(n)
    sq = t(1, n) ** 2
    want = (
        TensorPoly.of(sq, one) + TensorPoly.of(one, sq)
        - TensorPoly.of(t(1, n), t(1, n)).scale(2)
    ).scale(CR_HALF)
    assert a.entry(0, 0) == want


def test_explicit_kernel_constant_potential():
    a = explicit_kernel(NcPoly.one(2).scale(7))
    assert a == KernelMatrix.zero(2)


def test_explicit_kernel_quadratic_entries():
    n = 2
    a = explicit_kernel(quadratic_potential(n))
    for i in range(n):
        for j in range(n):
            want = delta_gen(i + 1, n).sharp(delta_gen(j + 1, n)).scale(CR_HALF)
            assert a.entry(i, j) == want


def test_kernel_identity_algebra(rng):
    # (K(v) # (JP)*)_ii == 1/2 delta(D_i v) # delta(P_i)*
    for _ in range(15):
        n = rng.choice((1, 2))
        v = rand_poly(rng, n, 4, terms=4)
        ps = tuple(rand_poly(rng, n, 4, terms=3) for _ in range(n))
        prod = explicit_kernel(v).sharp(jacobian(ps).adjoint())
        for i in range(n):
            want = delta(cyclic_derivative(i + 1, v)).sharp(
                delta(ps[i]).star()
            ).scale(CR_HALF)
            assert prod.entry(i, i) == want


def test_scalar_arithmetic():
    p = t(1, 1)
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
    assert (p * p).degree() == 2
    assert NcPoly.zero(1).degree() == 0
    assert 2 * p == p + p
    half = ComplexRational(Fraction(1, 2))
    assert (half * 2) == ComplexRational(1)


def test_pretty_repr_roundtrippable_visual():
    p = t(1, 2) * t(2, 2) + NcPoly.one(2).scale(ComplexRational(Fraction(1, 2)))
    s = repr(p)
    assert "t1*t2" in s and "1/2" in s
