"""Shared randomized generators for the test suite.

Randomness is always drawn from explicitly seeded generators so every
test is reproducible.  Magnitudes are kept small (coefficients in
[-3, 3], matrices scaled to spectral norm <= 1.2, cumulants <= 0.5) so
identity residuals stay far below the asserted tolerances.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from freestein import (
    ComplexRational,
    CumulantSpec,
    CumulantState,
    NcPoly,
    TensorPoly,
    moment_table_from_matrices,
)

# Property tests run without a per-example deadline (first examples pay
# one-time set-up, such as filling moment memos) and keep no example
# database between runs; each test sets only its own ``max_examples``.
settings.register_profile("freestein", deadline=None, database=None)
settings.load_profile("freestein")


def rand_word(rng, nvars, max_len, min_len=0):
    length = rng.randint(min_len, max_len)
    return tuple(rng.randint(1, nvars) for _ in range(length))


def rand_coeff(rng, with_imag=True, halves=True):
    den = rng.choice((1, 2)) if halves else 1
    re = Fraction(rng.randint(-3, 3), den)
    im = Fraction(rng.randint(-3, 3), den) if with_imag else Fraction(0)
    return ComplexRational(re, im)


def rand_poly(rng, nvars, max_deg, terms=5, with_imag=True):
    acc = {}
    for _ in range(terms):
        w = rand_word(rng, nvars, max_deg)
        c = rand_coeff(rng, with_imag=with_imag)
        acc[w] = acc.get(w, ComplexRational(0)) + c
    return NcPoly(nvars, acc)


def rand_selfadjoint_poly(rng, nvars, max_deg, terms=4):
    p = rand_poly(rng, nvars, max_deg, terms=terms)
    return p + p.star()


def rand_tensor(rng, nvars, max_leg, terms=4):
    acc = {}
    for _ in range(terms):
        key = (rand_word(rng, nvars, max_leg), rand_word(rng, nvars, max_leg))
        c = rand_coeff(rng)
        acc[key] = acc.get(key, ComplexRational(0)) + c
    return TensorPoly(nvars, acc)


def rand_hermitian(np_rng, size, norm=1.2):
    g = np_rng.standard_normal((size, size)) + 1j * np_rng.standard_normal(
        (size, size)
    )
    h = (g + g.conj().T) / 2
    spec = np.abs(np.linalg.eigvalsh(h)).max()
    return h * (norm / spec)


def trace_state(np_rng, nvars, size, max_order, centered=False):
    """Exact trace state of a random Hermitian tuple (a genuine state)."""
    mats = []
    for _ in range(nvars):
        h = rand_hermitian(np_rng, size)
        if centered:
            h = h - (np.trace(h) / size) * np.eye(size)
        mats.append(h)
    return moment_table_from_matrices(mats, max_order), mats


def rand_cumulant_spec(rng, nvars, max_order, mag=0.5, cyclic=False):
    """Random spec with kappa(rev w) = conj(kappa(w)) built in.

    With ``cyclic=True`` the values are constant on rotation orbits as
    well, which makes the induced state tracial.
    """
    kappa = {}

    def assign(w, val):
        orbit = {w[k:] + w[:k] for k in range(len(w))} if cyclic else {w}
        rev_orbit = {o[::-1] for o in orbit}
        if orbit & rev_orbit:
            val = complex(val.real, 0.0)
        for o in orbit:
            kappa[o] = val
        for o in rev_orbit:
            kappa[o] = val.conjugate()

    for m in range(1, max_order + 1):
        scale = mag / (2 ** (m - 1))
        for _ in range(2 * nvars):
            w = rand_word(rng, nvars, m, min_len=m)
            if w in kappa:
                continue
            assign(w, complex(rng.uniform(-scale, scale),
                              rng.uniform(-scale, scale)))
    return CumulantSpec(nvars, kappa, max_order=max_order)


def rand_cumulant_state(rng, nvars, max_order, mag=0.5, cyclic=False):
    return CumulantState(
        rand_cumulant_spec(rng, nvars, max_order, mag=mag, cyclic=cyclic)
    )


@pytest.fixture
def rng():
    return random.Random(20240211)


@pytest.fixture
def np_rng():
    return np.random.default_rng(20240211)
