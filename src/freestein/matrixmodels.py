"""Random-matrix Monte Carlo backend.

Coordinates are sampled as independent GUE matrices (Hermitian N x N,
strictly-upper entries complex Gaussian with variance 1/N, real
diagonal with variance 1/N) or as self-adjoint polynomial images of
fresh GUE matrices.  Word moments are averaged normalized traces over
``samples`` independent draws; each draw gets its own RNG stream spawned
from the master seed, so results are identical no matter how sampling
is scheduled.

Trace states are tracial and, the coordinates being Hermitian,
Hermitian symmetric: tr(rotation of w) = tr(w) and tr(rev w) =
conj tr(w).  So one trace is taken per bracelet class (the words
reachable by rotation and reversal, see ``states.bracelet_rep``), on
the class representative, and the table gives each rotation that value
and each reversed rotation its conjugate.  A class closed under
reversal has a Hermitian product, so its value is taken real.  Every
table is therefore exactly tracial and Hermitian symmetric.

The traces use that the coordinates are Hermitian (GUE draws are
exactly so; polynomial images and the inputs of
``moment_table_from_matrices`` are replaced by their Hermitian parts).
The product of a reversed word is the adjoint, P_rev(u) = P_u^H, so a
product whose reversal is already built is a conjugate transpose, not
a GEMM, and a word w = a.b, split at ceil(|w|/2), pairs as
tr(P_a P_b) = <P_rev(b), P_a>, one contiguous inner product.  Running
means and variances are arrays indexed by class, updated once per draw.
Before any matrix is built, tables whose words have over
``MAX_TABLE_LETTERS`` letters, or whose half-length products take over
``MAX_PRODUCT_BYTES`` bytes, are refused with ``BudgetExceededError``.

The output is a ``MomentTable`` carrying per-word standard errors (one
per class) and, as the per-coordinate upper norm estimate, the largest
spectral norm seen across samples.  That maximum is exact: a draw
whose norm cannot raise it skips its eigensolve, and only on proof.
The square X^2 = X @ X of each coordinate is built first (it is also
the trace products' (i, i) entry, so order >= 3 pays no extra GEMM).
When a Cholesky factorization of tau^2 I - X^2 succeeds, with tau the
running maximum shrunk by ``CERT_MARGIN``, ||X|| lies below the
maximum and the draw cannot change it; otherwise the draw is
eigensolved as before.  The margin dwarfs the factorization's backward
error (about N u ||X||^2; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., section 10.1), so the maximum is the float the
full eigensolve of every draw gives.  For iid draws the maximum moves
about ln(samples) + 0.58 times, so most draws are certified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NcPoly
from .errors import BudgetExceededError, ParseError
from .states import MomentTable, bracelet_orbit, bracelets_up_to, words_up_to


@dataclass(frozen=True)
class GueGenerator:
    """One independent GUE coordinate."""

    kind = "gue"


@dataclass(frozen=True)
class PolyOfGueGenerator:
    """Coordinate given by a self-adjoint polynomial of fresh GUE inputs."""

    poly: NcPoly
    fresh_gues: int

    kind = "poly_of_gue"

    def __post_init__(self):
        if self.fresh_gues < 1:
            raise ValueError("fresh_gues must be >= 1")
        if self.poly.nvars != self.fresh_gues:
            raise ValueError("generator polynomial nvars must equal fresh_gues")
        if self.poly.star() != self.poly:
            raise ValueError("generator polynomial must be self-adjoint")


@dataclass(frozen=True)
class EnsembleConfig:
    size: int
    samples: int
    seed: int
    generators: tuple

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("matrix size must be >= 1")
        if self.samples < 1:
            raise ValueError("sample count must be >= 1")
        if not self.generators:
            raise ValueError("at least one generator required")
        object.__setattr__(self, "generators", tuple(self.generators))

    @property
    def nvars(self):
        return len(self.generators)


def sample_gue(rng, size):
    """One GUE draw: Hermitian, E|H_ij|^2 = 1/size off-diagonal,
    real diagonal with variance 1/size."""
    scale = 1.0 / np.sqrt(2.0 * size)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    h = scale * (a + 1j * b)
    return (h + h.conj().T) / np.sqrt(2.0)


def eval_poly_matrices(poly, mats, size):
    """Evaluate a noncommutative polynomial on concrete matrices.

    Each monomial's product starts at its first letter and the constant
    term goes on the diagonal, so no GEMM multiplies by the identity."""
    out = np.zeros((size, size), dtype=complex)
    for word, coeff in poly.terms.items():
        if not word:
            out[np.diag_indices(size)] += complex(coeff)
            continue
        acc = mats[word[0] - 1]
        for letter in word[1:]:
            acc = acc @ mats[letter - 1]
        out += complex(coeff) * acc
    return out


def _coordinate_matrices(config, rng):
    mats = []
    for gen in config.generators:
        if isinstance(gen, GueGenerator):
            mats.append(sample_gue(rng, config.size))
        elif isinstance(gen, PolyOfGueGenerator):
            fresh = [sample_gue(rng, config.size) for _ in range(gen.fresh_gues)]
            m = eval_poly_matrices(gen.poly, fresh, config.size)
            mats.append((m + m.conj().T) / 2)
        else:
            raise ParseError(f"unknown generator {gen!r}", field="generators")
    return mats


def _class_traces(mats, size, max_order, reps, closed, squares=None):
    """Normalized traces of the bracelet representatives ``reps`` on
    Hermitian ``mats``, as a complex array aligned with ``reps``.

    Products of at most ceil(max_order / 2) letters are built in graded
    order, each by one GEMM or, when its reversal is built, as that
    product's adjoint.  ``squares``, when given, are the products
    ``mats[i] @ mats[i]`` already built, taken as the (i, i) products.
    The boolean mask ``closed`` marks the reversal-closed classes, whose
    products are Hermitian: their traces are taken real."""
    half = (max_order + 1) // 2
    prods = {}
    if squares is not None and half >= 2:
        prods = {(i, i): sq for i, sq in enumerate(squares, 1)}
    for w in words_up_to(len(mats), half, min_len=1):
        rev = w[::-1]
        if w in prods:
            continue
        if len(w) == 1:
            prods[w] = mats[w[0] - 1]
        elif rev in prods:
            prods[w] = np.ascontiguousarray(prods[rev].conj().T)
        else:
            prods[w] = prods[w[:-1]] @ mats[w[-1] - 1]
    traces = np.empty(len(reps), dtype=complex)
    for k, w in enumerate(reps):
        cut = (len(w) + 1) // 2
        left, right = w[:cut], w[cut:]
        if right:
            t = np.vdot(prods[right[::-1]], prods[left]) / size
        else:
            t = np.trace(prods[left]) / size
        traces[k] = t
    traces[closed] = traces[closed].real
    return traces


# relative margin of the norm certificate: far above the Cholesky
# backward error (about N u ||A||, under 1e-12 at the product budget's
# largest N) and far below any gap between two sampled norms
CERT_MARGIN = 1e-8


def _norm_below(square, bound):
    """True when a Cholesky factorization proves ||X|| < ``bound`` for
    the Hermitian X with ``square`` = X @ X.

    tau^2 I - X^2 is positive definite exactly when ||X|| < tau; with
    tau = bound (1 - CERT_MARGIN), a factorization that succeeds proves
    it up to a backward error the margin covers.  A zero bound proves
    nothing."""
    if bound <= 0.0:
        return False
    tau = bound * (1.0 - CERT_MARGIN)
    a = -square
    a[np.diag_indices_from(a)] += tau * tau
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _reversal_closed(reps):
    return np.array([not bracelet_orbit(w)[1] for w in reps], dtype=bool)


# caps on a trace table, checked before any matrix is built: the letters
# of all its words (enumerated to find the class representatives; the
# length weighs in because every rotation of a word is formed), and the
# bytes of the half-length products kept per sample
MAX_TABLE_LETTERS = 1 << 20
MAX_PRODUCT_BYTES = 1 << 30


def _check_trace_budget(nvars, size, max_order):
    letters = 0
    for k in range(1, max_order + 1):
        letters += k * nvars ** k
        if letters > MAX_TABLE_LETTERS:
            raise BudgetExceededError(
                f"a trace table of order {max_order} over {nvars} "
                f"coordinates has more than {MAX_TABLE_LETTERS} letters",
                needed=letters, available=MAX_TABLE_LETTERS,
            )
    prods = sum(nvars ** k for k in range(1, (max_order + 1) // 2 + 1))
    nbytes = prods * size * size * 16
    if nbytes > MAX_PRODUCT_BYTES:
        raise BudgetExceededError(
            f"a trace table of order {max_order} over {nvars} coordinates "
            f"keeps {prods} products of size {size}, {nbytes} bytes; the "
            f"cap is {MAX_PRODUCT_BYTES}",
            needed=nbytes, available=MAX_PRODUCT_BYTES,
        )


def mc_moment_table(config, max_order):
    """Monte Carlo moment table: per-class sample mean, standard error,
    and sampled spectral-norm upper estimates. Deterministic in the seed.

    ``norm_upper`` is, per coordinate, the largest spectral norm over
    the draws, exactly as if every draw were eigensolved: a draw is
    eigensolved only when the Cholesky certificate ``_norm_below``
    cannot prove its norm below the running maximum (always on the
    first draw).  The squares the certificate needs are handed to the
    traces, and dropped with the draw before the next one is built.

    Raises ``BudgetExceededError`` before sampling when the table's
    words have over ``MAX_TABLE_LETTERS`` letters or its products over
    ``MAX_PRODUCT_BYTES`` bytes."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = config.nvars
    _check_trace_budget(n, config.size, max_order)
    reps = bracelets_up_to(n, max_order, min_len=1)
    closed = _reversal_closed(reps)
    mean = np.zeros(len(reps), dtype=complex)
    msq = np.zeros(len(reps))
    norm_max = [0.0] * n

    streams = np.random.SeedSequence(config.seed).spawn(config.samples)
    for s, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        mats = _coordinate_matrices(config, rng)
        squares = [m @ m for m in mats]
        for i, (m, sq) in enumerate(zip(mats, squares)):
            if not _norm_below(sq, norm_max[i]):
                eigs = np.linalg.eigvalsh(m)
                norm_max[i] = max(norm_max[i], float(np.abs(eigs).max()))
        traces = _class_traces(mats, config.size, max_order, reps, closed,
                               squares)
        del mats, squares
        # Welford over complex values
        d = traces - mean
        mean += d / (s + 1)
        msq += (d.conj() * (traces - mean)).real

    count = config.samples
    stderr = np.sqrt(msq / count / max(count - 1, 1))
    return MomentTable.from_bracelets(
        n,
        max_order,
        dict(zip(reps, mean.tolist())),
        norm_upper=tuple(norm_max),
        stderr=dict(zip(reps, stderr.tolist())),
    )


def moment_table_from_matrices(mats, max_order, atol=1e-12):
    """Exact trace state of a fixed tuple of Hermitian matrices.

    phi(w) = tr(prod of the word) / N.  Such states satisfy every moment
    invariant (unit, Hermitian symmetry, positivity, traciality) up to
    floating point, and their spectral norms are exact upper norm
    estimates.  Useful both as a deterministic table backend and as an
    independent oracle in tests.  Matrices Hermitian within ``atol``
    are replaced by their Hermitian parts.  One trace is taken per
    bracelet class, under the budget of ``mc_moment_table``.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    size = mats[0].shape[0]
    for m in mats:
        if m.shape != (size, size):
            raise ValueError("all matrices must share one square shape")
        if np.abs(m - m.conj().T).max() > atol:
            raise ValueError("matrices must be Hermitian")
    mats = [(m + m.conj().T) / 2 for m in mats]
    n = len(mats)
    _check_trace_budget(n, size, max_order)
    reps = bracelets_up_to(n, max_order, min_len=1)
    traces = _class_traces(mats, size, max_order, reps,
                           _reversal_closed(reps))
    norms = tuple(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in mats)
    return MomentTable.from_bracelets(n, max_order,
                                      dict(zip(reps, traces.tolist())),
                                      norm_upper=norms)
