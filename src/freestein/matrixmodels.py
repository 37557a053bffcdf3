"""Random-matrix Monte Carlo backend.

Coordinates are sampled as independent GUE matrices (Hermitian N x N,
strictly-upper entries complex Gaussian with variance 1/N, real
diagonal with variance 1/N; Mingo and Speicher, *Free Probability and
Random Matrices*, 2017, ch. 1) or as self-adjoint polynomial images of
fresh GUE matrices.  A dense GUE draw takes N^2 standard normals, one
per real degree of freedom (``sample_gue``).  Word moments are averaged
normalized traces over ``samples`` independent draws; each draw gets
its own RNG stream spawned from the master seed, so results are
identical no matter how sampling is scheduled.

Coordinate 1 is always held in its own eigenbasis.  Every generator is
unitarily invariant and the coordinates are independent, so with
X_1 = U diag(lambda) U^H, the tuple (U^H X_i U)_{i >= 2} has the law of
(X_i)_{i >= 2} and is independent of lambda: replacing X_1 by
D = diag(lambda) leaves the joint law of every word trace unchanged.
A GUE coordinate 1 takes lambda from the beta = 2 Hermite tridiagonal
model of Dumitriu and Edelman (``sample_gue_spectrum``), solved as a
tridiagonal by LAPACK ``dsterf`` in O(N^2), with no N x N array; a
polynomial coordinate 1 is drawn densely and keeps only the
eigenvalues of its Hermitian part.  So a seed gives a different
realization, of the same law, than a dense draw of every coordinate
would.  ``moment_table_from_matrices`` uses the identity exactly
rather than in law, since a trace does not change under unitary
conjugation: it eigendecomposes its first matrix once and conjugates
the others by the eigenvectors.

Trace states are tracial and, the coordinates being Hermitian,
Hermitian symmetric: tr(rotation of w) = tr(w) and tr(rev w) =
conj tr(w).  So one trace is taken per bracelet class (the words
reachable by rotation and reversal, see ``states.bracelet_classes``),
on the class representative, and the table gives each rotation that
value and each reversed rotation its conjugate.  A class closed under
reversal has a Hermitian product, so its value is taken real.  Every
table is therefore exactly tracial and Hermitian symmetric.

The traces use that the coordinates are Hermitian (GUE draws are
exactly so; polynomial images and the inputs of
``moment_table_from_matrices`` are replaced by their Hermitian parts).
A class is cut, at some rotation, into two words a.b and traced as
tr(P_a P_b) = <P_rev(b), P_a>, one contiguous inner product, where the
product of a reversed word is the adjoint, P_rev(u) = P_u^H.  With D
diagonal, a product 1^j u 1^k is the core P_u scaled along its rows and
columns: only cores beginning and ending with other letters are built
as matrices, pure powers of D stay vectors, and a trace with a diagonal
side is a weighted diagonal sum.  A Hermitian extension h 1^k rev(h)
is the Gram matrix Q diag(lambda)^(k mod 2) Q^H of Q = P_h D^(k // 2),
built by ``_gram`` from real symmetric rank-k updates and one real
GEMM, half the flops of a complex product.  ``_trace_plan`` starts from
every core of up to half the order and their extensions, and prunes
the costliest while every class still has a cut into the rest: at order
8 over two coordinates a draw builds 1 complex product and 4 Grams (the
square of coordinate 2 among them).  The products live in one buffer
each, allocated on a table's first draw.  Running means and variances
are arrays indexed by class, updated once per draw.  Before any matrix
is built, tables whose words have over ``MAX_TABLE_LETTERS`` letters,
or whose kept products, scratch arrays and draw temporaries take over
``MAX_PRODUCT_BYTES`` bytes, are refused with ``BudgetExceededError``.

The output is a ``MomentTable`` carrying per-word standard errors (one
per class) and, as the per-coordinate upper norm estimate, the largest
spectral norm seen across samples.  For coordinate 1 that is the
largest |lambda|.  For the others the maximum is exact too, though a
draw whose norm cannot raise it skips its eigensolve, and only on
proof.  The square X^2 = X X^H of each such coordinate is built first,
as a Gram (it is also the trace products' (i, i) entry, so order >= 3
pays no extra product).  When a Cholesky factorization of
tau^2 I - X^2 succeeds, with tau the running maximum shrunk by
``CERT_MARGIN``, ||X|| lies below the maximum and the draw cannot
change it; otherwise the draw is eigensolved.  LAPACK ``zpotrf``
factors tau^2 I - X^2 in the scratch buffer it is formed in.  The
margin dwarfs the factorization's backward error (about N u ||X||^2;
Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
section 10.1), so the maximum is the float the full eigensolve of
every draw gives.  For iid draws the maximum moves about
ln(samples) + 0.58 times, so most draws are certified.

Tables are byte-identical run to run at a fixed BLAS thread count; the
products and eigensolves may round differently under another.

``dsterf`` and ``zpotrf`` are called through ``ctypes`` from the LAPACK
numpy links, when it exports them under names that fix 64-bit integers
(``_lapack``, looked up on first use), as the OpenBLAS of numpy's
wheels does.  Elsewhere the dense tridiagonal goes to
``np.linalg.eigvalsh`` and the certificate to ``np.linalg.cholesky``,
which give the same bytes.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .algebra import NcPoly
from .errors import BudgetExceededError, ParseError
from .states import MomentTable, bracelet_classes, word_count, words_up_to


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


def sample_gue(rng, size, out=None):
    """One GUE draw: Hermitian, E|H_ij|^2 = 1/size off-diagonal, real
    diagonal with variance 1/size, from size^2 standard normals g scaled
    by 1 / sqrt(2 size).  The strict upper triangle of g gives the real
    parts of the entries above the diagonal, its strict lower triangle
    their imaginary parts, and sqrt 2 times its diagonal the diagonal;
    the draw is exactly Hermitian.  It is written into ``out`` when
    given."""
    g = rng.standard_normal((size, size))
    g *= 1.0 / np.sqrt(2.0 * size)
    if out is None:
        out = np.empty((size, size), dtype=complex)
    # filled in place, no triangle temporaries: below the diagonal each
    # entry is the conjugate of its mirror
    lower = np.tri(size, k=-1, dtype=bool)
    np.copyto(out.real, g)
    np.copyto(out.real, g.T, where=lower)
    np.copyto(out.imag, g.T)
    np.negative(g, out=out.imag, where=lower)
    out.flat[::size + 1] = np.sqrt(2.0) * g.diagonal()
    return out


def eval_poly_matrices(poly, mats, size):
    """Evaluate a noncommutative polynomial on concrete matrices.

    Each monomial's product starts at its first letter and the constant
    term goes on the diagonal, so no GEMM multiplies by the identity."""
    out = np.zeros((size, size), dtype=complex)
    for word, coeff in poly.terms.items():
        if not word:
            out[np.diag_indices(size)] += complex(coeff)
            continue
        if len(word) == 1:
            out += complex(coeff) * mats[word[0] - 1]
            continue
        acc = mats[word[0] - 1] @ mats[word[1] - 1]
        for letter in word[2:]:
            acc = acc @ mats[letter - 1]
        acc *= complex(coeff)  # the monomial's own product, scaled in place
        out += acc
    return out


class _Lapack(NamedTuple):
    """The LAPACK routines called directly, as ctypes functions taking
    int64 (ILP64) integers: ``dsterf``, the root-free QL eigenvalues of a
    real symmetric tridiagonal matrix, and ``zpotrf``, the complex
    Cholesky factorization."""

    sterf: Callable
    potrf: Callable


# symbol names whose integer width the name fixes: the "64_" suffix of
# the ILP64 builds, with and without the scipy-openblas prefix
_LAPACK_NAMES = ("scipy_{}_64_", "{}_64_")


@functools.cache
def _lapack():
    """The ``_Lapack`` of the library numpy's linear algebra links, or
    None when it has no symbol of a fixed integer width; looked up on
    first use.  ``dlsym`` on the extension module also searches the
    libraries it depends on, where the OpenBLAS of a numpy wheel is."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    routines = []
    for routine in ("dsterf", "zpotrf"):
        found = (getattr(lib, name.format(routine), None)
                 for name in _LAPACK_NAMES)
        fn = next((fn for fn in found if fn is not None), None)
        if fn is None:
            return None
        fn.restype = None
        routines.append(fn)
    sterf, potrf = routines
    sterf.argtypes = [ctypes.c_void_p] * 4
    # the trailing hidden length of the character argument uplo
    potrf.argtypes = ([ctypes.c_char_p] + [ctypes.c_void_p] * 4
                      + [ctypes.c_size_t])
    return _Lapack(sterf, potrf)


def sample_gue_spectrum(rng, size):
    """The eigenvalues, ascending, of one GUE draw in the convention of
    ``sample_gue``, from the beta = 2 Hermite tridiagonal model: a real
    symmetric tridiagonal matrix with N(0, 1) diagonal and off-diagonal
    chi_{2(N-1)}, ..., chi_2 / sqrt 2 (Dumitriu and Edelman, *Matrix
    models for beta ensembles*, J. Math. Phys. 43, 2002), scaled by
    1 / sqrt(size).  No dense complex draw, and no dense matrix at all
    where ``_lapack`` resolves: LAPACK ``dsterf`` solves the tridiagonal
    itself in O(N^2) (Parlett, *The Symmetric Eigenvalue Problem*, SIAM
    1998, ch. 8).  It is the routine ``eigvalsh`` ends in, after a
    tridiagonal reduction that leaves this matrix unchanged, so the
    eigenvalues are those of ``eigvalsh`` of the dense tridiagonal, the
    path taken where ``_lapack`` does not resolve."""
    diag = rng.standard_normal(size)
    off = np.sqrt(rng.chisquare(2.0 * np.arange(size - 1, 0, -1)) / 2)
    lapack = _lapack()
    if lapack is None:
        tri = np.diag(diag)
        tri.flat[size::size + 1] = off  # the subdiagonal
        return np.linalg.eigvalsh(tri) / np.sqrt(size)
    info = ctypes.c_int64()
    lapack.sterf(ctypes.byref(ctypes.c_int64(size)), diag.ctypes.data,
                 off.ctypes.data, ctypes.byref(info))
    if info.value:
        raise np.linalg.LinAlgError(f"dsterf failed with info = {info.value}")
    diag /= np.sqrt(size)
    return diag


def _hermitian_part(m):
    """(m + m^H) / 2, in one C-ordered buffer."""
    out = np.empty(m.shape, dtype=complex)
    np.add(m.real, m.real.T, out=out.real)
    np.subtract(m.imag, m.imag.T, out=out.imag)
    out.view(float)[...] *= 0.5
    return out


class _Buffers(dict):
    """The arrays a trace table writes its products into, made on first
    use and kept from draw to draw: an N x N complex buffer per core
    word, "scaled" (N x N complex) for a D-scaled operand, the
    temporaries of ``_gram`` and the elementwise products of the
    traces, and "temp" (N x N real) for ``_gram`` on an operand held in
    "scaled"."""

    def __init__(self, size):
        super().__init__()
        self.size = size

    def __missing__(self, key):
        shape = (self.size, self.size)
        buf = self[key] = np.empty(shape, dtype=float if key == "temp"
                                   else complex)
        return buf


def _gram(q, weights=None, out=None, bufs=None):
    """q diag(weights) q^H for a square q (q q^H without ``weights``),
    exactly Hermitian, in half the flops of a complex product.

    ``weights`` must list its negative entries first, as coordinate 1's
    eigenvalues do (``eigvalsh`` and ``eigh`` return them ascending).
    With s = q diag(sqrt|weights|) and V the interleaved real view of s,
    the real part is V_+ V_+^T - V_- V_-^T over the two contiguous column
    blocks of nonnegative and of negative weights, symmetric rank-k
    updates; the imaginary part is C - C^T for C = (Im s sign) (Re s)^T,
    one real GEMM.  ``out`` first holds contiguous copies of Re s and
    Im s, for C.  With weights, s is written to ``bufs["scaled"]``, where
    q may also be.  When s is there, C goes to ``bufs["temp"]`` and the
    real part to ``out`` and then ``bufs["scaled"]``; otherwise both go
    straight to ``bufs["scaled"]``.  What is not given is allocated."""
    q = np.ascontiguousarray(q)
    m = q.shape[0]
    bufs = _Buffers(m) if bufs is None else bufs
    out = np.empty((m, m), dtype=complex) if out is None else out
    scaled = bufs["scaled"]
    neg = 0
    if weights is not None:
        neg = int(np.count_nonzero(weights < 0))
        if not (weights[:neg] < 0).all():
            raise ValueError(
                "gram weights must list their negative entries first")
        q = np.multiply(q, np.sqrt(np.abs(weights)), out=scaled)
    re, im = out.view(float).reshape(2, m, m)
    np.copyto(re, q.real)
    np.copyto(im, q.imag)
    im[:, :neg] *= -1.0
    real, c = scaled.view(float).reshape(2, m, m)
    if q is scaled:
        c = bufs["temp"]
    np.matmul(im, re.T, out=c)
    v = q.view(float)
    pos = v[:, 2 * neg:]
    if q is scaled:
        # out's copies are spent once C is built, and s once these are
        np.matmul(pos, pos.T, out=re)
        if neg:
            lower = v[:, :2 * neg]
            np.subtract(re, np.matmul(lower, lower.T, out=im), out=real)
        else:
            np.copyto(real, re)
    else:
        np.matmul(pos, pos.T, out=real)
    np.copyto(out.real, real)
    np.subtract(c, c.T, out=out.imag)
    return out


def _draw(config, rng, bufs):
    """One draw: coordinate 1 as the real vector of its eigenvalues,
    every other coordinate as a Hermitian matrix.  A GUE coordinate i
    is written into ``bufs[(i,)]``, the buffer of its letter."""
    coords = []
    for gen in config.generators:
        if isinstance(gen, GueGenerator):
            letter = (len(coords) + 1,)
            coords.append(sample_gue(rng, config.size, bufs[letter])
                          if coords else sample_gue_spectrum(rng, config.size))
        elif isinstance(gen, PolyOfGueGenerator):
            # a fresh array, not the letter's buffer: with the buffer, the
            # evaluation's temporaries sat at the top of the heap, which
            # the allocator trimmed and faulted in again on every draw
            # (9 times the page faults of an order-6 table).  The inputs
            # are a temporary list, released before the next generator's
            # are drawn
            m = _hermitian_part(eval_poly_matrices(
                gen.poly, [sample_gue(rng, config.size)
                           for _ in range(gen.fresh_gues)], config.size))
            if not coords:
                # rebound, so the dense draw is not held past its spectrum
                m = np.linalg.eigvalsh(m)
            coords.append(m)
        else:
            raise ParseError(f"unknown generator {gen!r}", field="generators")
    return coords


class _TracePlan(NamedTuple):
    """What ``_class_traces`` computes for the classes ``reps`` over
    ``nvars`` coordinates, letter 1 diagonal, the same for every draw.

    ``builds`` lists the dense products in the order they are built:
    ("letter", core, i) is coordinate i; ("gram", core, half, j, odd)
    is the Gram matrix Q diag(lambda)^odd Q^H, Q = P_half D^j, of the
    core half 1^(2j + odd) rev(half); ("adjoint", core, rev core) is the
    adjoint of a built product; and ("gemm", core, left, k, right) is
    P_left D^k P_right, one complex product.  ``singles`` gives a class
    index c and its trace: ("power", c, m) is tr D^m, ("diag", c, core,
    q) is tr(D^q P_core), and ("pair", c, u, rev v) is tr(P_u P_v) =
    <P_rev(v), P_u>.  ``scaled`` maps (u, rev v) to the classes with
    traces tr(P_u D^p P_v D^q) = <P_rev(v), D^q P_u D^p>, p + q > 0, as
    (class indices, distinct p, column of each class's p among them, q
    per class).  Traces are taken before the division by N."""

    reps: tuple
    closed: np.ndarray
    max_order: int
    builds: tuple
    singles: tuple
    scaled: dict


def _split(w):
    """(j, core, k) with w = 1^j core 1^k, the core empty or beginning
    and ending with letters other than 1."""
    j = 0
    while j < len(w) and w[j] == 1:
        j += 1
    if j == len(w):
        return j, (), 0
    k = 0
    while w[-1 - k] == 1:
        k += 1
    return j, w[j:len(w) - k], k


def _build_kind(w):
    """How the core w is built: "letter" when it is one letter, "gram"
    when it is a Hermitian extension h 1^k rev(h) (a palindrome of even
    length or with a 1 in its middle), else "gemm", a complex product."""
    if len(w) == 1:
        return "letter"
    if w == w[::-1] and (len(w) % 2 == 0 or w[len(w) // 2] == 1):
        return "gram"
    return "gemm"


def _gram_half(w):
    """(h, k) with the Hermitian extension w = h 1^k rev(h)."""
    h = _split(w[:len(w) // 2])[1]
    return h, len(w) - 2 * len(h)


def _splits(w):
    """Every (a, k, b) with the core w = a 1^k b, a and b cores, the
    longest a first."""
    pos = [i for i, x in enumerate(w) if x != 1]
    return [(w[:s + 1], t - s - 1, w[t:])
            for s, t in reversed(list(zip(pos, pos[1:])))]


def _cuts(w):
    """The cuts of the cyclic word w, which has a letter other than 1,
    as (a, rev b, p, q) with tr(w) = tr(P_a D^p P_b D^q): a core a, the
    run of p 1s after it, the core b and the run of q 1s that closes
    the cycle.  When the cut leaves one core, rev b is None, p = 0 and
    tr(w) = tr(D^q P_a) is a diagonal sum."""
    size = len(w)
    pos = [i for i, x in enumerate(w) if x != 1]
    m = len(pos)
    ends = pos + [i + size for i in pos]
    twice = w + w
    runs = [ends[i + 1] - ends[i] - 1 for i in range(m)]
    out = []
    for i in range(m):
        start, stop = ends[i + 1], ends[i + m] + 1
        out.append((twice[start:stop], None, 0, runs[i]))
        for j in range(i + 1, i + m):
            out.append((twice[start:ends[j] + 1],
                        twice[ends[j + 1]:stop][::-1], runs[j % m], runs[i]))
    return out


def _balanced_cut(w):
    """The cut of w itself after ceil(|w| / 2) letters, as ``_cuts``
    gives it, or None for a power of letter 1."""
    half = (len(w) + 1) // 2
    ja, u, ka = _split(w[:half])
    jb, v, kb = _split(w[half:])
    if not u and not v:
        return None
    if not v:
        return u, None, 0, ja + ka + jb
    if not u:
        return v, None, 0, ja + jb + kb
    return u, v[::-1], ka + jb, kb + ja


# build cost rank: a complex product costs more than a Gram, which costs
# more than a coordinate
_BUILD_RANK = {"letter": 0, "gram": 1, "gemm": 2}


@functools.cache
def _trace_plan(nvars, max_order):
    """The ``_TracePlan`` of the nonempty bracelet classes up to
    ``max_order`` = L over ``nvars`` letters, letter 1 diagonal.

    The candidate cores are every word of length <= ceil(L / 2) that
    begins and ends with a letter other than 1, and their Hermitian
    extensions h 1^k rev(h) shorter than L.  From the costliest down (a
    complex product before a Gram, then the longer, then the larger
    code), a core is dropped when every class is still a cut into kept
    cores (``_cuts``) and every kept core is still built from kept ones:
    a Gram from its half, a complex product from the cores on either
    side of a run of 1s or as the adjoint of its reversal.  Dropping
    only makes that harder, so one pass leaves no core that could go.
    A letter costs nothing and stays.

    Each class keeps its balanced cut (``_balanced_cut``) when its cores
    are kept, so a table whose plan keeps them is traced as before;
    else it takes its cheapest cut: a diagonal sum, then an inner
    product, then a scaled group another class made, then the first
    scaled one.  Plans are cached per (nvars, max_order)."""
    reps, closed = bracelet_classes(nvars, max_order)
    pool = dict.fromkeys(
        w for w in words_up_to(nvars, (max_order + 1) // 2, min_len=1)
        if w[0] != 1 != w[-1])
    for h in list(pool):
        for k in range(max_order - 2 * len(h)):
            pool.setdefault(h + (1,) * k + h[::-1])
    cores = sorted(pool, key=lambda w: (len(w), w))
    bit = {w: 1 << i for i, w in enumerate(cores)}
    kinds = {w: _build_kind(w) for w in cores}

    def mask(words):
        out = 0
        for w in words:
            out |= bit[w]
        return out

    def cores_of(masks):
        used = 0
        for m in masks:
            used |= m
        return [cores[i] for i in range(used.bit_length()) if used >> i & 1]

    # each way to build a core as the mask of the cores it uses, and for
    # each core the cores that one of their ways uses it in
    recipes, dependents = {}, {w: set() for w in cores}
    for w in cores:
        back = w[::-1]
        if kinds[w] == "letter":
            ways = [()]
        elif kinds[w] == "gram":
            ways = [(_gram_half(w)[0],)]
        else:
            ways = [(a, b) for a, _, b in _splits(w)]
            if back != w and back in bit:
                ways += [(back, a, b) for a, _, b in _splits(back)]
        recipes[w] = [mask(way) for way in ways]
        for way in ways:
            for part in way:
                dependents[part].add(w)
    # the masks of each class's cuts into candidate cores, and for each
    # core the classes that one of their cuts uses it in; the cuts
    # themselves are not kept, which at order 12 would hold tens of
    # thousands of words at once
    needs, users = [], {w: [] for w in cores}
    for c, w in enumerate(reps):
        masks = set()
        for a, rb, _, _ in _cuts(w) if _split(w)[1] else ():
            if a in bit and (rb is None or rb in bit):
                masks.add(bit[a] | bit.get(rb, 0))
        needs.append(masks)
        for core in cores_of(masks):
            users[core].append(c)

    dropped = 0
    for w in sorted(cores, key=lambda w: (_BUILD_RANK[kinds[w]], len(w), w),
                    reverse=True):
        if kinds[w] == "letter":
            break
        gone = dropped | bit[w]
        if (all(any(not m & gone for m in needs[c]) for c in users[w])
                and all(any(not m & gone for m in recipes[y])
                        for y in dependents[w] if not bit[y] & gone)):
            dropped = gone
    kept = {w for w in cores if not bit[w] & dropped}

    builds, complex_built = [], set()
    for w in cores:
        if w not in kept:
            continue
        kind, back = kinds[w], w[::-1]
        if kind == "letter":
            builds.append(("letter", w, w[0] - 1))
        elif kind == "gram":
            half, k = _gram_half(w)
            builds.append(("gram", w, half, k // 2, k % 2))
        else:
            split = next(((a, k, b) for a, k, b in _splits(w)
                          if a in kept and b in kept), None)
            if back != w and back in kept and (split is None
                                               or back in complex_built):
                builds.append(("adjoint", w, back))
            else:
                builds.append(("gemm", w) + split)
                complex_built.add(w)
    # an adjoint follows the product it copies, which has its length
    builds.sort(key=lambda b: (len(b[1]), b[0] == "adjoint"))

    singles, scaled, rest = [], {}, []

    def usable(cut):
        return cut[0] in kept and (cut[1] is None or cut[1] in kept)

    def take(c, cut):
        a, rb, p, q = cut
        if rb is None:
            singles.append(("diag", c, a, q))
        elif p or q:
            scaled.setdefault((a, rb), []).append((c, p, q))
        else:
            singles.append(("pair", c, a, rb))

    def cost(cut):
        a, rb, p, q = cut
        return (0 if rb is None else 1 if not p + q
                else 2 if (a, rb) in scaled else 3)

    for c, w in enumerate(reps):
        cut = _balanced_cut(w)
        if cut is None:
            singles.append(("power", c, len(w)))
        elif usable(cut):
            take(c, cut)
        else:
            rest.append(c)
    for c in rest:
        take(c, min(filter(usable, _cuts(reps[c])), key=cost))
    for key, jobs in scaled.items():
        idx, ps, qs = (np.array(x) for x in zip(*jobs))
        distinct, col = np.unique(ps, return_inverse=True)
        scaled[key] = (idx, distinct, col, qs)
        for array in scaled[key]:
            array.flags.writeable = False
    closed.flags.writeable = False
    # cached, so shared by every caller: tuples and read-only arrays
    return _TracePlan(tuple(reps), closed, max_order, tuple(builds),
                      tuple(singles), scaled)


def _class_traces(coords, plan, squares=None, bufs=None):
    """Normalized traces of the bracelet representatives ``plan.reps``
    on Hermitian ``coords``, as a complex array aligned with them.

    ``coords[0]`` is the real vector lambda of a diagonal coordinate D,
    ascending, every other coordinate a dense matrix: a product
    1^j u 1^k is P_u scaled by lambda^j along its rows and lambda^k
    along its columns, and is never built; pure powers of letter 1 stay
    vectors, and a trace with a diagonal side is a weighted diagonal
    sum.  Only the cores of ``plan.builds``, products beginning and
    ending with other letters, are dense: each is a coordinate, a Gram
    matrix (``_gram``), the adjoint of its reversal, or one complex
    product.  The classes that pair the same two cores through powers of
    D share one elementwise product C = conj(P_rev(v)) * P_u, and each
    takes lambda^q . C lambda^p.  ``squares``, when given, maps a letter
    index i to the Gram matrix ``_gram(coords[i])`` already built.
    Every product is written into its buffer of ``bufs`` (a
    ``_Buffers``), so a table that passes the same one on every draw
    allocates them once.  The boolean mask ``plan.closed`` marks the
    reversal-closed classes, whose products are Hermitian: their traces
    are taken real."""
    lam = coords[0]
    size = lam.shape[0]
    bufs = _Buffers(size) if bufs is None else bufs
    pows = np.ones((plan.max_order + 1, size))
    for m in range(1, plan.max_order + 1):
        pows[m] = pows[m - 1] * lam
    prods = {(i + 1,) * 2: sq for i, sq in (squares or {}).items()}
    for kind, w, *args in plan.builds:
        if w in prods:
            continue
        if kind == "letter":
            prods[w] = coords[args[0]]
        elif kind == "adjoint":
            prods[w] = np.conjugate(prods[args[0]].T, out=bufs[w])
        elif kind == "gram":
            half, j, odd = args
            q = (np.multiply(prods[half], pows[j], out=bufs["scaled"]) if j
                 else prods[half])
            prods[w] = _gram(q, lam if odd else None, bufs[w], bufs)
        else:
            left, k, right = args
            a = (np.multiply(prods[left], pows[k], out=bufs["scaled"]) if k
                 else prods[left])
            prods[w] = np.matmul(a, prods[right], out=bufs[w])
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
    # every elementwise product goes to the scaled operands' buffer
    for (u, rv), (idx, ps, col, qs) in plan.scaled.items():
        prod = np.conjugate(prods[rv], out=bufs["scaled"])
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


def _norm_below(square, bound, work=None):
    """True when a Cholesky factorization proves ||X|| < ``bound`` for
    the Hermitian X with ``square`` = X @ X.  tau^2 I - X^2 is formed in
    ``work`` when given (a C-ordered array of the shape of ``square``),
    and ``square`` is left as it is.

    tau^2 I - X^2 is positive definite exactly when ||X|| < tau; with
    tau = bound (1 - CERT_MARGIN), a factorization that succeeds proves
    it up to a backward error the margin covers.  A zero bound proves
    nothing.  Where ``_lapack`` resolves, LAPACK ``zpotrf`` factors the
    formed array in place, with no copy; elsewhere
    ``np.linalg.cholesky`` factors a copy."""
    if bound <= 0.0:
        return False
    tau = bound * (1.0 - CERT_MARGIN)
    a = np.negative(square, out=work)
    a[np.diag_indices_from(a)] += tau * tau
    lapack = _lapack()
    if lapack is None:
        try:
            np.linalg.cholesky(a)
        except np.linalg.LinAlgError:
            return False
        return True
    # read in column-major order, the C-ordered a is its transpose, the
    # conjugate of the Hermitian a, which is positive definite with it
    size, info = ctypes.byref(ctypes.c_int64(a.shape[0])), ctypes.c_int64()
    lapack.potrf(b"L", size, a.ctypes.data, size, ctypes.byref(info), 1)
    if info.value < 0:
        raise np.linalg.LinAlgError(f"zpotrf failed with info = {info.value}")
    return info.value == 0


# caps on a trace table, checked before any matrix is built: the letters
# of all its words (the code of every word is canonicalized to find the
# class representatives), and the bytes of the N x N arrays it keeps
MAX_TABLE_LETTERS = 1 << 20
MAX_PRODUCT_BYTES = 1 << 30
# largest entry of X - X^H that ``moment_table_from_matrices`` accepts
MATRIX_HERM_TOL = 1e-12


def _check_trace_budget(nvars, size, max_order, generators=()):
    """The ``_trace_plan`` of a table of order ``max_order`` over
    ``nvars`` coordinates of size N = ``size``, once its letters and
    the bytes of the N x N arrays it holds at once pass the caps: one
    complex array per product the plan builds, per square the norm
    certificate builds and per coordinate past the first, and 1.5 more
    for "scaled" and "temp", the arrays of its ``_Buffers``.  The
    generators are drawn one at a time, so the largest a draw holds
    while it makes one coordinate is charged: a GUE coordinate past the
    first takes N^2 real normals and a bool triangle mask, 9/16 of an
    array; a polynomial of k fresh GUE inputs takes those k and, while
    it evaluates them, 3 more: the sum, and a monomial's product with
    the next one it makes."""
    letters = 0
    for k in range(1, max_order + 1):
        letters += k * nvars ** k
        if letters > MAX_TABLE_LETTERS:
            raise BudgetExceededError(
                f"a trace table of order {max_order} over {nvars} "
                f"coordinates has more than {MAX_TABLE_LETTERS} letters",
                needed=letters, available=MAX_TABLE_LETTERS,
            )
    plan = _trace_plan(nvars, max_order)
    kept = {build[1] for build in plan.builds if build[0] != "letter"}
    arrays = len(kept | {(i, i) for i in range(2, nvars + 1)}) + nvars + 0.5
    arrays += max((gen.fresh_gues + 3 if isinstance(gen, PolyOfGueGenerator)
                   else 0.5625 * bool(i) for i, gen in enumerate(generators)),
                  default=0)
    nbytes = int(arrays * 16 * size * size)
    if nbytes > MAX_PRODUCT_BYTES:
        raise BudgetExceededError(
            f"a trace table of order {max_order} over {nvars} coordinates "
            f"keeps {arrays} N x N arrays at N = {size}, {nbytes} bytes; the "
            f"cap is {MAX_PRODUCT_BYTES}",
            needed=nbytes, available=MAX_PRODUCT_BYTES,
        )
    return plan


def mc_moment_table(config, max_order):
    """Monte Carlo moment table: per-class sample mean, standard error,
    and sampled spectral-norm upper estimates.  Deterministic in the
    seed at a fixed BLAS thread count (the products and eigensolves may
    round differently under another).

    Each draw holds coordinate 1 as the real vector of its eigenvalues
    (see the module docstring), whose largest modulus is its norm.
    ``norm_upper`` is, per coordinate, the largest spectral norm over
    the draws, exactly as if every draw were eigensolved: any other
    coordinate is eigensolved only when the Cholesky certificate
    ``_norm_below`` cannot prove its norm below the running maximum
    (always on the first draw).  A GUE coordinate 1 takes no eigensolve
    of a dense matrix: ``sample_gue_spectrum`` solves its tridiagonal
    model.  The squares the certificate needs are handed to the
    traces, and the certificate factors in the "scaled" buffer.  The
    products and their scratch arrays live in one ``_Buffers``,
    allocated on the first draw and written over on every later one.
    A draw's other arrays are released as the next draw's replace them,
    not all before it is built: freeing them first let the allocator
    hand more of their pages back and fault them in again on every
    draw.

    Raises ``BudgetExceededError`` before sampling when the table's
    words have over ``MAX_TABLE_LETTERS`` letters, or its products and
    a draw's temporaries over ``MAX_PRODUCT_BYTES`` bytes."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = config.nvars
    plan = _check_trace_budget(n, config.size, max_order, config.generators)
    mean = np.zeros(len(plan.reps), dtype=complex)
    msq = np.zeros(len(plan.reps))
    norm_max = [0.0] * n

    bufs = _Buffers(config.size)
    # spawned one per draw: the keys of spawn(samples), in bounded memory
    root = np.random.SeedSequence(config.seed)
    for s in range(config.samples):
        coords = _draw(config, np.random.default_rng(root.spawn(1)[0]), bufs)
        norm_max[0] = max(norm_max[0], float(np.abs(coords[0]).max()))
        squares = {i: _gram(coords[i], out=bufs[(i + 1,) * 2], bufs=bufs)
                   for i in range(1, n)}
        for i, sq in squares.items():
            if not _norm_below(sq, norm_max[i], bufs["scaled"]):
                eigs = np.linalg.eigvalsh(coords[i])
                norm_max[i] = max(norm_max[i], float(np.abs(eigs).max()))
        traces = _class_traces(coords, plan, squares, bufs)
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


def moment_table_from_matrices(mats, max_order):
    """Exact trace state of a fixed tuple of Hermitian matrices.

    phi(w) = tr(prod of the word) / N.  Such states satisfy every moment
    invariant (unit, Hermitian symmetry, positivity, traciality) up to
    floating point, and their spectral norms are exact upper norm
    estimates.  Useful both as a deterministic table backend and as an
    independent oracle in tests.  Matrices nearly Hermitian are replaced
    by their Hermitian parts; a matrix with a NaN or infinite entry is
    refused, by its index in ``mats``, before any arithmetic.  One trace
    is taken per bracelet class, under the budget of ``mc_moment_table``,
    by the kernel it uses: the first matrix X_1 = U diag(lambda) U^H
    becomes lambda and every other X_i becomes U^H X_i U, which changes
    no trace.
    """
    mats = [np.asarray(m, dtype=complex) for m in mats]
    size = mats[0].shape[0]
    for k, m in enumerate(mats):
        if m.shape != (size, size):
            raise ValueError("all matrices must share one square shape")
        if not np.isfinite(m).all():
            raise ValueError(f"matrix {k} has a non-finite entry")
        if np.abs(m - m.conj().T).max() > MATRIX_HERM_TOL:
            raise ValueError("matrices must be Hermitian")
    mats = [_hermitian_part(m) for m in mats]
    n = len(mats)
    plan = _check_trace_budget(n, size, max_order)
    lam, u = np.linalg.eigh(mats[0])
    rotated = [_hermitian_part(u.conj().T @ m @ u) for m in mats[1:]]
    traces = _class_traces([lam] + rotated, plan)
    norms = (float(np.abs(lam).max()),) + tuple(
        float(np.abs(np.linalg.eigvalsh(m)).max()) for m in mats[1:])
    return MomentTable.from_bracelets(n, max_order,
                                      dict(zip(plan.reps, traces.tolist())),
                                      norm_upper=norms)
