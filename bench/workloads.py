"""Seeded inputs and op sequences of the freestein benchmark workloads.

``generate(workload, seed, directory)`` writes every input file of one
workload into ``directory`` and returns the pass: the ordered list of
CLI ops a single closed-loop client sends, each only after the previous
one finished.  Inputs are a pure function of the seed; the program
under test only ever sees the written files.

* ``cumulant-solve`` -- free-cumulant backend.  Specs are orthogonal
  rotations of a free family of semicircular and unit-variance centered
  free Poisson coordinates, so they are valid, centered, identity
  covariance states by construction.  Each spec comes as two twins:
  unrotated (sparse, no mixed cumulants) and rotated (every word of
  length >= 3 has a nonzero cumulant).  C_d and sigma_d^2 are invariant
  under the rotation, which the output check uses.
* ``table-solve`` -- moment-table backend: trace states of centered,
  whitened random Hermitian 16 x 16 matrix tuples, plus a seeded
  self-adjoint degree-8 polynomial for ``derive``.  One small table is
  built from a fixed seed and checked against recorded references.
* ``mc-sample`` -- Monte Carlo backend: GUE and g^2 - 1 ensembles.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("cumulant-solve", "table-solve", "mc-sample")
# How strongly each workload's op latencies follow the calibration
# kernel's time when other tenants slow the host: the exponent s of the
# rescaling (see ``run.host_scale``) that gave the least run-to-run
# spread over ten seeds on a shared 2-vCPU host.  The interpreter-bound
# backends follow the kernel fully, the numpy-bound Monte Carlo backend
# about half as much.
HOST_SENSITIVITY = {"cumulant-solve": 1.0, "table-solve": 1.0, "mc-sample": 0.5}

# The table-solve reference op reads a table built from this seed
# whatever the run seed is, so its numbers can be recorded once.
REFERENCE_SEED = 20181107

MATRIX_SIZE = 16
MC_SIZE = 200
MC_SAMPLES = 20


@dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass and what its output is checked by.

    ``twin`` names the op on the rotated twin whose invariants must
    agree with this one; ``reference`` keys ``references.json``;
    ``mc_limits`` gives per coordinate the free limit law ("catalan" or
    "riordan") of the pure-power moments in an ``mc`` table.
    """

    name: str
    argv: tuple
    twin: str | None = None
    reference: str | None = None
    mc_limits: tuple | None = None

    @property
    def command(self):
        return self.argv[0]


def _rng(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([int(seed), stream]))


def _write(directory, name, obj):
    from freestein import serialize

    path = os.path.join(directory, name)
    with open(path, "w") as fh:
        fh.write(serialize.dumps(obj))
    return path


# ---------------------------------------------------------------------------
# cumulant-solve


def free_family_twins(rng, kinds, max_order):
    """Unrotated and rotated cumulant objects of one free family.

    ``kinds`` lists "semicircle" or "poisson" per coordinate.  A
    centered free Poisson coordinate of rate lam scaled to unit variance
    has kappa_m = lam^(1 - m/2) for m >= 2 and norm at most
    2 + lam^(-1/2).  The rotated twin Y = O X has
    kappa_Y(w) = sum_i kappa_i(|w|) prod_k O[w_k, i], which depends on
    the letter counts of w only, so it is exactly cyclic and Hermitian.
    """
    from freestein import CumulantSpec, serialize
    from freestein.states import words_up_to

    n = len(kinds)
    lams = [float(rng.uniform(1.0, 4.0)) if k == "poisson" else None
            for k in kinds]

    def kappa_i(i, m):
        if m < 2:
            return 0.0
        if lams[i] is None:
            return 1.0 if m == 2 else 0.0
        return lams[i] ** (1.0 - m / 2.0)

    norms = [2.0 if lam is None else 2.0 + lam ** -0.5 for lam in lams]
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    rot = q * np.sign(np.diag(r))

    plain = {(i + 1,) * m: kappa_i(i, m)
             for i in range(n) for m in range(2, max_order + 1)}
    # O is orthogonal, so the covariance stays exactly the identity
    rotated = {(i + 1, i + 1): 1.0 for i in range(n)}
    for w in words_up_to(n, max_order, min_len=3):
        counts = [w.count(j + 1) for j in range(n)]
        total = 0.0
        for i in range(n):
            prod = kappa_i(i, len(w))
            for j in range(n):
                prod *= rot[j, i] ** counts[j]
            total += prod
        rotated[w] = total
    rot_norms = [float(np.abs(rot[j]) @ np.array(norms)) for j in range(n)]
    return (
        serialize.cumulants_to_obj(CumulantSpec(n, plain, max_order),
                                   norm_upper=norms),
        serialize.cumulants_to_obj(CumulantSpec(n, rotated, max_order),
                                   norm_upper=rot_norms),
    )


# (nvars, kinds, max_order, degree) of each twin pair
CUMULANT_FAMILIES = (
    (2, ("semicircle", "poisson"), 8, 4),
    (3, ("semicircle", "poisson", "poisson"), 6, 3),
)
CLT_KS = "1,2,4,8"


def _cumulant_solve(seed, directory):
    rng = _rng(seed, 1)
    ops = []
    n1, _ = free_family_twins(rng, ("poisson",), 12)
    path = _write(directory, "n1.json", n1)
    # fills the NC(12) partition cache that later ops reuse
    ops.append(Op("poincare-n1", ("poincare", "--cumulants", path,
                                  "--degree", "6")))
    for n, kinds, max_order, degree in CUMULANT_FAMILIES:
        plain, rotated = free_family_twins(rng, kinds, max_order)
        paths = {"plain": _write(directory, f"n{n}-plain.json", plain),
                 "rot": _write(directory, f"n{n}-rot.json", rotated)}
        d = str(degree)
        for cmd, extra in (("stein", ("--degree", d)),
                           ("poincare", ("--degree", d)),
                           ("clt", ("--degree", str(degree - 1),
                                    "--ks", CLT_KS))):
            for twin in ("plain", "rot"):
                ops.append(Op(
                    f"{cmd}-n{n}-{twin}",
                    (cmd, "--cumulants", paths[twin]) + extra,
                    twin=f"{cmd}-n{n}-plain" if twin == "rot" else None,
                ))
    return ops


# ---------------------------------------------------------------------------
# table-solve


def whitened_matrices(rng, nvars, size):
    """Random Hermitian matrices, centered and whitened so that
    tr(X_i X_j) / size = delta_ij."""
    mats = []
    for _ in range(nvars):
        a = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        h = (a + a.conj().T) / 2.0
        mats.append(h - np.trace(h).real / size * np.eye(size))
    cov = np.array([[np.trace(x @ y).real / size for y in mats] for x in mats])
    inv = np.linalg.inv(np.linalg.cholesky(cov))
    return [sum(inv[i, j] * mats[j] for j in range(nvars)) for i in range(nvars)]


def _table(rng, nvars, max_order):
    from freestein import moment_table_from_matrices, serialize

    mats = whitened_matrices(rng, nvars, MATRIX_SIZE)
    return serialize.table_to_obj(moment_table_from_matrices(mats, max_order))


def self_adjoint_poly(rng, nvars, degree, terms):
    """p + p* for ``terms`` random words of length 1..degree (one of
    length ``degree``) with small rational coefficients."""
    from freestein import NcPoly

    coeffs = {}
    for t in range(terms):
        length = degree if t == 0 else int(rng.integers(1, degree + 1))
        word = tuple(int(x) for x in rng.integers(1, nvars + 1, size=length))
        coeffs[word] = Fraction(int(rng.integers(-9, 10)) or 1,
                                int(rng.integers(1, 9)))
    p = NcPoly(nvars, coeffs)
    return p + p.star()


# (name, nvars, max_order, degree) of the seeded tables
TABLES = (("n2", 2, 12, 5), ("n3", 3, 8, 4))
REFERENCE_TABLE = ("ref", 2, 6, 3)


def _table_solve(seed, directory):
    from freestein import serialize

    rng = _rng(seed, 2)
    ops = []
    for name, n, max_order, degree in TABLES:
        path = _write(directory, f"{name}.json", _table(rng, n, max_order))
        for cmd in ("poincare", "stein"):
            ops.append(Op(f"{cmd}-{name}",
                          (cmd, "--state", path, "--degree", str(degree))))
    poly = self_adjoint_poly(rng, 3, 8, 12)
    path = _write(directory, "poly.json", serialize.poly_to_obj(poly))
    ops.append(Op("derive-kernel", ("derive", "--poly", path,
                                    "--what", "explicit-kernel")))
    name, n, max_order, degree = REFERENCE_TABLE
    table = _table(_rng(REFERENCE_SEED, 2), n, max_order)
    path = _write(directory, f"{name}.json", table)
    for cmd in ("poincare", "stein"):
        ops.append(Op(f"{cmd}-{name}",
                      (cmd, "--state", path, "--degree", str(degree)),
                      reference=f"{cmd}-{name}"))
    return ops


# ---------------------------------------------------------------------------
# mc-sample


def ensembles(rng):
    """Two GUE coordinates; one GUE and one g^2 - 1 coordinate."""
    from freestein import NcPoly, serialize

    g2 = NcPoly(1, {(1, 1): 1, (): -1})
    seeds = [int(x) for x in rng.integers(0, 2**31 - 1, size=2)]
    base = {"N": MC_SIZE, "samples": MC_SAMPLES}
    gue = {"kind": "gue"}
    poly = {"kind": "poly_of_gue", "poly": serialize.poly_to_obj(g2),
            "fresh_gues": 1}
    return (dict(base, seed=seeds[0], generators=[gue, gue]),
            dict(base, seed=seeds[1], generators=[gue, poly]))


def _mc_sample(seed, directory):
    gue2, mixed = ensembles(_rng(seed, 3))
    p_gue2 = _write(directory, "gue2.json", gue2)
    p_mixed = _write(directory, "gue-poisson.json", mixed)
    return [
        Op("mc-gue2", ("mc", "--ensemble", p_gue2, "--max-order", "4"),
           mc_limits=("catalan", "catalan")),
        Op("mc-mixed", ("mc", "--ensemble", p_mixed, "--max-order", "6"),
           mc_limits=("catalan", "riordan")),
        # samples at order 8 before solving
        Op("poincare-gue2", ("poincare", "--ensemble", p_gue2,
                             "--degree", "4")),
    ]


_GENERATORS = {
    "cumulant-solve": _cumulant_solve,
    "table-solve": _table_solve,
    "mc-sample": _mc_sample,
}


def generate(workload, seed, directory):
    """Write the inputs of ``workload`` for ``seed``; return its ops."""
    os.makedirs(directory, exist_ok=True)
    return _GENERATORS[workload](seed, directory)
