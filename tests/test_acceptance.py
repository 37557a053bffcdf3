"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Each test measures its own runtime against the stated
budget.

Criterion 3 pins the explicit-kernel distance ||K - I||^2 at the
standard semicircular point to the value derived in the test from the
semicircular moments: n^2 + n/2, i.e. 3/2 for one variable.  The same
value comes out of the closed-form moment expansion, the generic
sesquilinear pairing, and dense Kronecker-matrix arithmetic (see
``test_criterion_3_corrected_constants`` and the stein module tests).
The quoted constant (n^2 + n^2 m4 - n)/2 is 1 at n = 1 and falls short
of the distance by n/2 there; the test asserts that shortfall.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from freestein import (
    CltExperiment,
    EnsembleConfig,
    GueGenerator,
    KernelMatrix,
    NcPoly,
    SteinProblem,
    TensorPoly,
    biane_gap_check,
    centered_free_poisson,
    clt_rate_table,
    delta,
    explicit_kernel,
    explicit_kernel_distance_sq,
    mc_moment_table,
    minimal_kernel,
    moments_to_cumulants,
    poincare_lower_bound,
    quadratic_potential,
    semicircular,
    stein_residual,
)
from freestein.algebra import delta_gen, partial_derivative
from freestein.states import CumulantState, words_up_to

import bruteforce
from conftest import (
    rand_cumulant_state,
    rand_poly,
    rand_selfadjoint_poly,
    trace_state,
)

MC_SEED = 1


def _line(num, ok, detail, budget=None, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if budget is not None:
        timing = f" [{elapsed:.1f}s / budget {budget:.0f}s]"
    print(f"criterion {num}: {status} - {detail}{timing}")


# ---------------------------------------------------------------------------


def test_criterion_1_symbolic_identity_suite():
    budget = 10.0
    start = time.monotonic()
    rng = random.Random(101)
    cases = 0

    for _ in range(140):  # Leibniz rule for the partial derivatives
        n = rng.choice((1, 2, 3))
        p = rand_poly(rng, n, 6, terms=4)
        q = rand_poly(rng, n, 6, terms=4)
        i = rng.randint(1, n)
        one = NcPoly.one(n)
        lhs = partial_derivative(i, p * q)
        rhs = (TensorPoly.of(one, q).sharp(partial_derivative(i, p))
               + TensorPoly.of(p, one).sharp(partial_derivative(i, q)))
        assert lhs == rhs
        cases += 1

    for _ in range(120):  # delta(p) = sum_i partial_i(p) # delta(t_i)
        n = rng.choice((1, 2, 3))
        p = rand_poly(rng, n, 6, terms=4)
        total = TensorPoly.zero(n)
        for i in range(1, n + 1):
            total = total + partial_derivative(i, p).sharp(delta_gen(i, n))
        assert total == delta(p)
        cases += 1

    for _ in range(80):  # delta is a derivation
        n = rng.choice((1, 2, 3))
        p = rand_poly(rng, n, 5, terms=4)
        q = rand_poly(rng, n, 5, terms=4)
        one = NcPoly.one(n)
        assert delta(p * q) == (TensorPoly.of(one, q).sharp(delta(p))
                                + TensorPoly.of(p, one).sharp(delta(q)))
        cases += 1

    for _ in range(90):  # sharp associativity and unit
        n = rng.choice((1, 2, 3))
        a = delta(rand_poly(rng, n, 3, terms=3)).sharp(TensorPoly.one(n))
        b = delta(rand_poly(rng, n, 3, terms=3))
        c = delta(rand_poly(rng, n, 3, terms=3))
        assert a.sharp(b).sharp(c) == a.sharp(b.sharp(c))
        assert a.sharp(TensorPoly.one(n)) == a
        cases += 1

    for _ in range(90):  # involution laws
        n = rng.choice((1, 2, 3))
        p = rand_poly(rng, n, 6, terms=4)
        q = rand_poly(rng, n, 6, terms=4)
        assert (p * q).star() == q.star() * p.star()
        assert p.star().star() == p
        cases += 1

    elapsed = time.monotonic() - start
    ok = cases >= 500 and elapsed < budget
    _line(1, ok, f"{cases} exact symbolic identity cases", budget, elapsed)
    assert cases >= 500
    assert elapsed < budget


def test_criterion_2_stein_identity_residuals():
    budget = 120.0
    start = time.monotonic()
    rng = random.Random(202)
    np_rng = np.random.default_rng(202)

    worst = 0.0
    triples = 0
    for n in (1, 2):
        states = []
        for _ in range(3):
            states.append(rand_cumulant_state(rng, n, 7, cyclic=True))
        for _ in range(2):
            states.append(trace_state(np_rng, n, 5, 7)[0])
        for phi in states:
            for _ in range(20):
                v = rand_selfadjoint_poly(rng, n, 4, terms=3)
                prob = SteinProblem(phi, v)
                a = explicit_kernel(v)
                ps = tuple(rand_poly(rng, n, 4, terms=3) for _ in range(n))
                worst = max(worst, abs(stein_residual(prob, a, ps)))
                triples += 1

    elapsed = time.monotonic() - start
    ok = triples >= 200 and worst <= 1e-10 and elapsed < budget
    _line(2, ok, f"{triples} triples, worst residual {worst:.2e}",
          budget, elapsed)
    assert triples >= 200
    assert worst <= 1e-10
    assert elapsed < budget


def test_criterion_3_exact_distance_semicircular_point():
    # K_ij = 1/2 delta(x_i) # delta(x_j).  For a centered state with
    # identity covariance, the closed-form expansion of ||K - I||^2
    # reduces to n^2/2 + 1/2 sum_ij phi(x_i^2 x_j^2).  At n = 1, with
    # Q = x^2 - 1, K - I = 1/2 Q (x) 1 + 1/2 1 (x) Q - x (x) x: three
    # orthogonal terms of squared norms 1/4, 1/4 and 1, so 3/2.
    # Semicircular moments: phi(x_i^4) = 2, and phi(x_i^2 x_j^2) = 1 for
    # i != j by freeness.
    half = Fraction(1, 2)
    rows = []
    for n in (1, 2, 3):
        fourth = {
            (i, j): Fraction(2) if i == j else Fraction(1)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
        }
        m4 = max(fourth[i, i] for i in range(1, n + 1))
        want = n * n * half + half * sum(fourth.values())
        quoted = (n * n + n * n * m4 - n) * half
        sharp_const = (n * n + n * n * m4) * half
        sc = semicircular(n)
        d = explicit_kernel_distance_sq(
            SteinProblem(sc, quadratic_potential(n))
        )
        rows.append((n, sc, fourth, want, quoted, sharp_const, d))

    d1 = rows[0][-1]
    ok = all(
        abs(d.distance_sq - float(want)) <= 1e-12
        and abs(d.closed_form_sq - float(want)) <= 1e-12
        for _, _, _, want, _, _, d in rows
    ) and abs(d1.distance_sq - d1.m4_bound_sq - 0.5) <= 1e-12
    _line(
        3,
        ok,
        ", ".join(
            f"n={n}: distance_sq = {d.distance_sq} (derived {want})"
            for n, _, _, want, _, _, d in rows
        )
        + f"; (n^2+n^2*m4-n)/2 = {d1.m4_bound_sq} at n=1",
    )

    for n, sc, fourth, want, quoted, sharp_const, d in rows:
        assert want == n * n + n * half
        for (i, j), value in fourth.items():
            assert abs(sc.moment((i, i, j, j)) - float(value)) <= 1e-12
        assert abs(d.distance_sq - float(want)) <= 1e-12
        assert abs(d.closed_form_sq - float(want)) <= 1e-12
        assert abs(d.m4_bound_sq - float(quoted)) <= 1e-12
        assert abs(d.m4_bound_sharp_sq - float(sharp_const)) <= 1e-12
        # the sharp fourth-moment constant bounds the distance
        assert sharp_const >= want
        assert d.distance_sq <= d.m4_bound_sharp_sq + 1e-12
        if n == 1:
            # the quoted constant is 1 and falls short by n/2; the sharp
            # constant is attained
            assert quoted == 1 and want - quoted == n * half
            assert sharp_const == want
            assert abs(d.m4_bound_sq - 1.0) <= 1e-9
            assert abs(d.distance_sq - d.m4_bound_sq - 0.5) <= 1e-12
            assert abs(d.distance_sq - d.m4_bound_sharp_sq) <= 1e-12


def test_criterion_3_corrected_constants():
    # the verified constants: both evaluation routes agree on 3/2, which
    # equals the sharp fourth-moment constant (n^2 + n^2 m4)/2 at the
    # standard semicircular point and exceeds the quoted variant by n/2
    sc = semicircular(1)
    prob = SteinProblem(sc, quadratic_potential(1))
    d = explicit_kernel_distance_sq(prob)
    ok = (
        abs(d.distance_sq - 1.5) <= 1e-9
        and abs(d.closed_form_sq - 1.5) <= 1e-9
        and abs(d.m4_bound_sharp_sq - 1.5) <= 1e-9
    )
    _line("3 (corrected)", ok,
          f"distance_sq = {d.distance_sq}, closed = {d.closed_form_sq}, "
          f"(n^2+n^2*m4)/2 = {d.m4_bound_sharp_sq}")
    assert d.distance_sq == pytest.approx(1.5, abs=1e-9)
    assert d.closed_form_sq == pytest.approx(1.5, abs=1e-9)
    assert d.m4_bound_sharp_sq == pytest.approx(1.5, abs=1e-9)

    fp = centered_free_poisson(1)
    prob_fp = SteinProblem(fp, quadratic_potential(1))
    d_fp = explicit_kernel_distance_sq(prob_fp)
    assert d_fp.distance_sq == pytest.approx(2.0, abs=1e-9)
    assert d_fp.distance_sq == pytest.approx(d_fp.m4_bound_sharp_sq, abs=1e-9)


def test_criterion_4_zero_discrepancy_fixed_point():
    rng = random.Random(404)
    worst_sigma = 0.0
    for n in (1, 2):
        sc = semicircular(n)
        prob = SteinProblem(sc, quadratic_potential(n))
        for d in range(0, 5):
            worst_sigma = max(worst_sigma, minimal_kernel(prob, d).sigma_sq)

    worst_res = 0.0
    for n in (1, 2):
        sc = semicircular(n)
        prob = SteinProblem(sc, quadratic_potential(n))
        ident = KernelMatrix.identity(n)
        for _ in range(20):
            ps = tuple(rand_poly(rng, n, 5, terms=4) for _ in range(n))
            worst_res = max(worst_res, abs(stein_residual(prob, ident, ps)))

    ok = worst_sigma <= 1e-8 and worst_res <= 1e-10
    _line(4, ok, f"max sigma_d^2 = {worst_sigma:.2e}, "
                 f"max identity residual = {worst_res:.2e}")
    assert worst_sigma <= 1e-8
    assert worst_res <= 1e-10


def test_criterion_5_poincare_semicircular():
    worst = 0.0
    for n in (1, 2):
        sc = semicircular(n)
        for d in (1, 2, 3, 4):
            est = poincare_lower_bound(sc, d)
            worst = max(worst, abs(est.c_lower - 1.0))

    monotone = True
    capped = True
    for phi in (semicircular(1), semicircular(2), centered_free_poisson(1)):
        values = []
        for d in (1, 2, 3, 4):
            est = poincare_lower_bound(phi, d)
            values.append(est.c_lower)
            if est.voiculescu.certified:
                capped = capped and est.c_lower <= est.voiculescu.applicable + 1e-6
        monotone = monotone and all(
            hi >= lo - 1e-8 for lo, hi in zip(values, values[1:])
        )

    ok = worst <= 1e-6 and monotone and capped
    _line(5, ok, f"max |C_d - 1| = {worst:.2e}, monotone = {monotone}, "
                 f"below Voiculescu = {capped}")
    assert worst <= 1e-6
    assert monotone
    assert capped


def test_criterion_6_biane_gap_chain():
    fp = centered_free_poisson(1)
    margins = []
    ok = True
    for d in (1, 2, 3, 4):
        rep = biane_gap_check(fp, d)
        margins.append(rep.margin)
        ok = ok and rep.consistent and rep.certified_upper
    _line(6, ok, "margins (upper - 1 - sigma_d^2/n) = "
                 + ", ".join(f"{m:.3f}" for m in margins))
    assert ok
    assert all(m > 0 for m in margins)


def test_criterion_7_clt_rate():
    budget = 600.0
    start = time.monotonic()
    fp = centered_free_poisson(1, max_order=8)
    ks = (1, 2, 4, 8, 16, 32, 64)
    exp = CltExperiment(base=fp, ks=ks, degree=3)
    rows = clt_rate_table(exp)

    n = 1
    m4 = 3.0
    const = math.sqrt(n * (n + n * m4 - 1) / 2.0)
    bound_ok = all(
        r.sigma_lower <= const / math.sqrt(r.k) + 1e-6 for r in rows
    )
    scaled = [r.sigma_lower * math.sqrt(r.k) for r in rows]
    ratio = max(scaled) / min(scaled)
    elapsed = time.monotonic() - start
    ok = bound_ok and ratio <= 3.0 and elapsed < budget
    _line(7, ok,
          f"sigma_3 * sqrt(k) in [{min(scaled):.4f}, {max(scaled):.4f}], "
          f"ratio {ratio:.2f}, constant {const:.4f}", budget, elapsed)
    assert bound_ok
    assert ratio <= 3.0
    assert elapsed < budget


def test_criterion_8_cumulant_oracle_equivalence():
    rng = random.Random(808)
    nc_cache = {m: bruteforce.noncrossing_by_filter(m) for m in range(1, 8)}

    def oracle(kappa, word):
        total = 0j
        for part in nc_cache[len(word)]:
            prod = 1.0 + 0j
            for block in part:
                prod *= kappa.get(tuple(word[p] for p in block), 0j)
                if prod == 0:
                    break
            total += prod
        return total

    worst = 0.0
    for state in (
        semicircular(2),
        centered_free_poisson(1),
        rand_cumulant_state(rng, 2, 7),
    ):
        n = state.nvars
        for w in words_up_to(n, 7, min_len=1):
            want = oracle(state.spec.kappa, w)
            worst = max(worst, abs(state.moment(w) - want))

    rt_worst = 0.0
    for nvars, order in ((1, 8), (2, 6)):
        spec = rand_cumulant_state(rng, nvars, order).spec
        back = moments_to_cumulants(CumulantState(spec), order)
        for w in words_up_to(nvars, order, min_len=1):
            rt_worst = max(rt_worst, abs(back.value(w) - spec.value(w)))

    ok = worst <= 1e-12 and rt_worst <= 1e-9
    _line(8, ok, f"exhaustive |engine - filter oracle| <= {worst:.2e} "
                 f"(words to length 7), round-trip error {rt_worst:.2e}")
    assert worst <= 1e-12
    assert rt_worst <= 1e-9


def test_criterion_9_monte_carlo_convergence():
    budget = 300.0
    start = time.monotonic()
    sc = semicircular(1)
    words = words_up_to(1, 6, min_len=1)

    devs = {w: {} for w in words}
    within = True
    for size in (50, 100, 200):
        cfg = EnsembleConfig(size=size, samples=200, seed=MC_SEED,
                             generators=(GueGenerator(),))
        table = mc_moment_table(cfg, 6)
        # over one letter every word is its own class representative
        stderr = table.stored()[1]
        for w in words:
            dev = abs(table.moment(w) - sc.moment(w))
            devs[w][size] = dev
            if dev > 3 * stderr[w]:
                within = False

    decreasing = sum(1 for w in words if devs[w][200] < devs[w][50])
    frac = decreasing / len(words)
    elapsed = time.monotonic() - start
    ok = within and frac >= 0.8 and elapsed < budget
    _line(9, ok, f"all within 3 standard errors = {within}, "
                 f"deviation decreasing for {decreasing}/{len(words)} words",
          budget, elapsed)
    assert within
    assert frac >= 0.8
    assert elapsed < budget
