"""Random-matrix Monte Carlo backend.

Coordinates are sampled as independent GUE matrices (Hermitian N x N,
strictly-upper entries complex Gaussian with variance 1/N, real
diagonal with variance 1/N) or as self-adjoint polynomial images of
fresh GUE matrices.  Word moments are averaged normalized traces over
``samples`` independent draws; each draw gets its own RNG stream spawned
from the master seed, so results are identical no matter how sampling
is scheduled.

A GUE coordinate 1 is drawn in its own eigenbasis.  Every generator is
unitarily invariant and the coordinates are independent, so with
X_1 = U diag(lambda) U^H, the tuple (U^H X_i U)_{i >= 2} has the law of
(X_i)_{i >= 2} and is independent of lambda: replacing X_1 by
D = diag(lambda) leaves the joint law of every word trace unchanged.
lambda comes from the beta = 2 Hermite tridiagonal model of Dumitriu
and Edelman (``sample_gue_spectrum``), with one real eigensolve and no
dense complex draw, so such a seed gives a different realization, of
the same law, than a dense draw of every coordinate would.  A
polynomial coordinate 1 stays dense: its eigenvalues would cost a dense
complex eigensolve per draw, more than the GEMMs the diagonal saves
when it is the only coordinate.

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
A word w = a.b is split at ceil(|w|/2) and traced as
tr(P_a P_b) = <P_rev(b), P_a>, one contiguous inner product, where the
product of a reversed word is the adjoint, P_rev(u) = P_u^H.  With D
diagonal, a product 1^j u 1^k is the core P_u scaled along its rows and
columns: only cores beginning and ending with other letters are built
as matrices (at order 8 over two coordinates, 6 GEMMs per draw instead
of 19), pure powers of D stay vectors, and a trace with a diagonal side
is a weighted diagonal sum.  ``moment_table_from_matrices`` runs the
same kernel with every coordinate dense.  Running means and variances
are arrays indexed by class, updated once per draw.  Before any matrix
is built, tables whose words have over ``MAX_TABLE_LETTERS`` letters,
or whose half-length products take over ``MAX_PRODUCT_BYTES`` bytes,
are refused with ``BudgetExceededError``.

The output is a ``MomentTable`` carrying per-word standard errors (one
per class) and, as the per-coordinate upper norm estimate, the largest
spectral norm seen across samples.  For coordinate 1 that is the
largest |lambda|.  For the others the maximum is exact too, though a
draw whose norm cannot raise it skips its eigensolve, and only on
proof.  The square X^2 = X @ X of each such coordinate is built first
(it is also the trace products' (i, i) entry, so order >= 3 pays no
extra GEMM).  When a Cholesky factorization of tau^2 I - X^2 succeeds,
with tau the running maximum shrunk by ``CERT_MARGIN``, ||X|| lies
below the maximum and the draw cannot change it; otherwise the draw is
eigensolved.  The margin dwarfs the factorization's backward error
(about N u ||X||^2; Higham, *Accuracy and Stability of Numerical
Algorithms*, 2nd ed., section 10.1), so the maximum is the float the
full eigensolve of every draw gives.  For iid draws the maximum moves
about ln(samples) + 0.58 times, so most draws are certified.

Tables are byte-identical run to run at a fixed BLAS thread count; the
GEMMs and eigensolves may round differently under another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
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


def sample_gue_spectrum(rng, size):
    """The eigenvalues, ascending, of one GUE draw in the convention of
    ``sample_gue``, from the beta = 2 Hermite tridiagonal model: a real
    symmetric tridiagonal matrix with N(0, 1) diagonal and off-diagonal
    chi_{2(N-1)}, ..., chi_2 / sqrt 2 (Dumitriu and Edelman, *Matrix
    models for beta ensembles*, J. Math. Phys. 43, 2002), scaled by
    1 / sqrt(size).  One real eigensolve, no dense complex draw."""
    diag = rng.standard_normal(size)
    off = np.sqrt(rng.chisquare(2.0 * np.arange(size - 1, 0, -1)) / 2)
    tri = np.diag(diag) + np.diag(off, -1)
    return np.linalg.eigvalsh(tri) / np.sqrt(size)


def _draw(config, rng):
    """One draw: a GUE coordinate 1 as the real vector of its
    eigenvalues, every other coordinate as a Hermitian matrix."""
    coords = []
    for gen in config.generators:
        if isinstance(gen, GueGenerator):
            coords.append(sample_gue(rng, config.size) if coords
                          else sample_gue_spectrum(rng, config.size))
        elif isinstance(gen, PolyOfGueGenerator):
            fresh = [sample_gue(rng, config.size) for _ in range(gen.fresh_gues)]
            m = eval_poly_matrices(gen.poly, fresh, config.size)
            coords.append((m + m.conj().T) / 2)
        else:
            raise ParseError(f"unknown generator {gen!r}", field="generators")
    return coords


def _split(w, diagonal):
    """(j, core, k) with w = 1^j core 1^k, the core empty or beginning
    and ending with letters other than 1; (0, w, 0) when letter 1 is not
    diagonal."""
    if not diagonal:
        return 0, w, 0
    j = 0
    while j < len(w) and w[j] == 1:
        j += 1
    if j == len(w):
        return j, (), 0
    k = 0
    while w[-1 - k] == 1:
        k += 1
    return j, w[j:len(w) - k], k


class _TracePlan(NamedTuple):
    """What ``_class_traces`` computes for the classes ``reps`` over
    ``nvars`` coordinates, letter 1 diagonal or not, the same for every
    draw.

    ``builds`` lists the dense products in graded order: ("letter", core,
    i) is coordinate i, ("square", core, i) its square, ("adjoint", core,
    rev core) the adjoint of a built product, and ("gemm", core, prefix,
    k, i) is P_prefix D^k X_i, one GEMM.  ``singles`` gives a class index
    c and its trace: ("power", c, m) is tr D^m, ("diag", c, core, q) is
    tr(D^q P_core), and ("pair", c, u, rev v) is tr(P_u P_v) =
    <P_rev(v), P_u>.  ``scaled`` maps (u, rev v) to the classes with
    traces tr(P_u D^p P_v D^q) = <P_rev(v), D^q P_u D^p>, p + q > 0, as
    (class indices, distinct p, column of each class's p among them,
    q per class).  Traces are taken before the division by N."""

    reps: list
    closed: np.ndarray
    diagonal: bool
    max_order: int
    builds: list
    singles: list
    scaled: dict


def _trace_plan(nvars, max_order, diagonal):
    """The ``_TracePlan`` of the nonempty bracelet classes up to
    ``max_order`` over ``nvars`` letters, letter 1 diagonal when
    ``diagonal``."""
    reps = bracelets_up_to(nvars, max_order, min_len=1)
    builds = []
    built = set()
    for w in words_up_to(nvars, (max_order + 1) // 2, min_len=1):
        if _split(w, diagonal)[1] != w:
            continue
        if len(w) == 1:
            builds.append(("letter", w, w[0] - 1))
        elif w == w[:1] * 2:
            builds.append(("square", w, w[0] - 1))
        elif w[::-1] in built:
            builds.append(("adjoint", w, w[::-1]))
        else:
            _, prefix, k = _split(w[:-1], diagonal)
            builds.append(("gemm", w, prefix, k, w[-1] - 1))
        built.add(w)
    singles = []
    scaled = {}
    for c, w in enumerate(reps):
        cut = (len(w) + 1) // 2
        ja, u, ka = _split(w[:cut], diagonal)
        jb, v, kb = _split(w[cut:], diagonal)
        if not u and not v:
            singles.append(("power", c, len(w)))
        elif not v:
            singles.append(("diag", c, u, ja + ka + jb))
        elif not u:
            singles.append(("diag", c, v, ja + jb + kb))
        elif ka + jb or kb + ja:
            scaled.setdefault((u, v[::-1]), []).append((c, ka + jb, kb + ja))
        else:
            singles.append(("pair", c, u, v[::-1]))
    for key, jobs in scaled.items():
        idx, ps, qs = (np.array(x) for x in zip(*jobs))
        distinct, col = np.unique(ps, return_inverse=True)
        scaled[key] = (idx, distinct, col, qs)
    return _TracePlan(reps, _reversal_closed(reps), diagonal, max_order,
                      builds, singles, scaled)


def _class_traces(coords, plan, squares=None):
    """Normalized traces of the bracelet representatives ``plan.reps``
    on Hermitian ``coords``, as a complex array aligned with them.

    When ``plan.diagonal``, ``coords[0]`` is the real vector lambda of a
    diagonal coordinate D: a product 1^j u 1^k is P_u scaled by lambda^j
    along its rows and lambda^k along its columns, and is never built;
    pure powers of letter 1 stay vectors, and a trace with a diagonal
    side is a weighted diagonal sum.  Only the cores, products beginning
    and ending with other letters, are dense; each is a coordinate, the
    adjoint of its reversal when that is built (P_rev(u) = P_u^H), or
    one GEMM.  The classes that pair the same two cores through powers
    of D share one elementwise product C = conj(P_rev(v)) * P_u, and
    each takes lambda^q . C lambda^p.  ``squares``, when given, maps a
    letter index i to the product ``coords[i] @ coords[i]`` already
    built.  The boolean mask ``plan.closed`` marks the reversal-closed
    classes, whose products are Hermitian: their traces are taken
    real."""
    size = coords[-1].shape[0]
    if plan.diagonal:
        pows = np.ones((plan.max_order + 1, size))
        for m in range(1, plan.max_order + 1):
            pows[m] = pows[m - 1] * coords[0]
    squares = squares or {}
    prods = {}
    for kind, w, *args in plan.builds:
        if kind == "letter":
            prods[w] = coords[args[0]]
        elif kind == "adjoint":
            prods[w] = np.ascontiguousarray(prods[args[0]].conj().T)
        elif kind == "square":
            i = args[0]
            prods[w] = squares[i] if i in squares else coords[i] @ coords[i]
        else:
            prefix, k, i = args
            left = prods[prefix] * pows[k] if k else prods[prefix]
            prods[w] = left @ coords[i]
    traces = np.empty(len(plan.reps), dtype=complex)
    for kind, c, *args in plan.singles:
        if kind == "power":
            traces[c] = pows[args[0]].sum()
        elif kind == "diag":
            core, q = args
            traces[c] = (np.dot(pows[q], np.diagonal(prods[core])) if q
                         else np.trace(prods[core]))
        else:
            traces[c] = np.vdot(prods[args[1]], prods[args[0]])
    if plan.scaled:
        # one buffer for every elementwise product, not a fresh array each
        prod = np.empty((size, size), dtype=complex)
    for (u, rv), (idx, ps, col, qs) in plan.scaled.items():
        np.conjugate(prods[rv], out=prod)
        prod *= prods[u]
        weighted = (prod @ pows[ps].T)[:, col]
        traces[idx] = (pows[qs].T * weighted).sum(axis=0)
    traces /= size
    traces[plan.closed] = traces[plan.closed].real
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
    and sampled spectral-norm upper estimates.  Deterministic in the
    seed at a fixed BLAS thread count (the GEMMs and eigensolves may
    round differently under another).

    When coordinate 1 is a GUE, each draw holds it as the real vector of
    its eigenvalues (see the module docstring), whose largest modulus is
    its norm; otherwise every coordinate is dense.  ``norm_upper`` is,
    per coordinate, the largest spectral norm over the draws, exactly as
    if every draw were eigensolved: a dense coordinate is eigensolved
    only when the Cholesky certificate
    ``_norm_below`` cannot prove its norm below the running maximum
    (always on the first draw).  The squares the certificate needs are
    handed to the traces.  A draw's arrays are released as the next
    draw's replace them, not all before it is built: freeing them first
    let the allocator hand more of their pages back and fault them in
    again on every draw.

    Raises ``BudgetExceededError`` before sampling when the table's
    words have over ``MAX_TABLE_LETTERS`` letters or its products over
    ``MAX_PRODUCT_BYTES`` bytes."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = config.nvars
    _check_trace_budget(n, config.size, max_order)
    diagonal = isinstance(config.generators[0], GueGenerator)
    plan = _trace_plan(n, max_order, diagonal)
    dense = range(1 if diagonal else 0, n)
    mean = np.zeros(len(plan.reps), dtype=complex)
    msq = np.zeros(len(plan.reps))
    norm_max = [0.0] * n

    # spawned one per draw: the keys of spawn(samples), in bounded memory
    root = np.random.SeedSequence(config.seed)
    for s in range(config.samples):
        coords = _draw(config, np.random.default_rng(root.spawn(1)[0]))
        if diagonal:
            norm_max[0] = max(norm_max[0], float(np.abs(coords[0]).max()))
        squares = {i: coords[i] @ coords[i] for i in dense}
        for i, sq in squares.items():
            if not _norm_below(sq, norm_max[i]):
                eigs = np.linalg.eigvalsh(coords[i])
                norm_max[i] = max(norm_max[i], float(np.abs(eigs).max()))
        traces = _class_traces(coords, plan, squares)
        # Welford over complex values
        d = traces - mean
        mean += d / (s + 1)
        msq += (d.conj() * (traces - mean)).real

    count = config.samples
    stderr = np.sqrt(msq / count / max(count - 1, 1))
    return MomentTable.from_bracelets(
        n,
        max_order,
        dict(zip(plan.reps, mean.tolist())),
        norm_upper=tuple(norm_max),
        stderr=dict(zip(plan.reps, stderr.tolist())),
    )


def moment_table_from_matrices(mats, max_order, atol=1e-12):
    """Exact trace state of a fixed tuple of Hermitian matrices.

    phi(w) = tr(prod of the word) / N.  Such states satisfy every moment
    invariant (unit, Hermitian symmetry, positivity, traciality) up to
    floating point, and their spectral norms are exact upper norm
    estimates.  Useful both as a deterministic table backend and as an
    independent oracle in tests.  Matrices Hermitian within ``atol``
    are replaced by their Hermitian parts.  One trace is taken per
    bracelet class, under the budget of ``mc_moment_table``, by the
    same kernel with every coordinate dense.
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
    plan = _trace_plan(n, max_order, diagonal=False)
    traces = _class_traces(mats, plan)
    norms = tuple(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in mats)
    return MomentTable.from_bracelets(n, max_order,
                                      dict(zip(plan.reps, traces.tolist())),
                                      norm_upper=norms)
