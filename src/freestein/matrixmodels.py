"""Random-matrix Monte Carlo backend.

Coordinates are sampled as independent GUE matrices (Hermitian N x N,
strictly-upper entries complex Gaussian with variance 1/N, real
diagonal with variance 1/N) or as self-adjoint polynomial images of
fresh GUE matrices.  Word moments are averaged normalized traces over
``samples`` independent draws; each draw gets its own RNG stream spawned
from the master seed, so results are identical no matter how sampling
is scheduled.

Word traces use that the coordinates are Hermitian (GUE draws are
exactly so; polynomial images and the inputs of
``moment_table_from_matrices`` are replaced by their Hermitian parts).
The product of a reversed word is the adjoint, P_rev(u) = P_u^H, so a
product whose reversal is already built is a conjugate transpose, not
a GEMM, and a word w = a.b, split at ceil(|w|/2), pairs as
tr(P_a P_b) = <P_rev(b), P_a>, one contiguous inner product.  A word
whose reversal came earlier takes the conjugate of that trace and a
palindrome's trace is real, so every table is exactly Hermitian
symmetric.  Running means and variances are arrays indexed by word
position, updated once per draw.

The output is a ``MomentTable`` carrying per-word standard errors and,
as the per-coordinate upper norm estimate, the largest spectral norm
seen across samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NcPoly
from .errors import ParseError
from .states import MomentTable, words_up_to


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


def _word_traces(mats, size, max_order, words):
    """Normalized traces of ``words`` on Hermitian ``mats``, as a complex
    array aligned with ``words``.

    ``words`` is graded (every prefix and reversal of a word comes no
    later than the word itself, as from ``words_up_to``).  Products of
    at most ceil(max_order / 2) letters are built, each by one GEMM or,
    when its reversal is built, as that product's adjoint."""
    half = (max_order + 1) // 2
    prods = {}
    for w in words:
        if len(w) == 1:
            prods[w] = mats[w[0] - 1]
        elif len(w) <= half:
            rev = w[::-1]
            if rev in prods:
                prods[w] = np.ascontiguousarray(prods[rev].conj().T)
            else:
                prods[w] = prods[w[:-1]] @ mats[w[-1] - 1]
    traces = np.empty(len(words), dtype=complex)
    position = {}
    for k, w in enumerate(words):
        rev = w[::-1]
        j = position.get(rev)
        if j is not None:
            traces[k] = traces[j].conjugate()
            continue
        position[w] = k
        cut = (len(w) + 1) // 2
        left, right = w[:cut], w[cut:]
        if right:
            t = np.vdot(prods[right[::-1]], prods[left]) / size
        else:
            t = np.trace(prods[left]) / size
        # the product of a palindrome is Hermitian
        traces[k] = t.real if rev == w else t
    return traces


def mc_moment_table(config, max_order):
    """Monte Carlo moment table: per-word sample mean, standard error,
    and sampled spectral-norm upper estimates. Deterministic in the seed."""
    if max_order < 1:
        raise ValueError("max_order must be >= 1")
    n = config.nvars
    words = words_up_to(n, max_order, min_len=1)
    mean = np.zeros(len(words), dtype=complex)
    msq = np.zeros(len(words))
    norm_max = [0.0] * n

    streams = np.random.SeedSequence(config.seed).spawn(config.samples)
    for s, ss in enumerate(streams):
        rng = np.random.default_rng(ss)
        mats = _coordinate_matrices(config, rng)
        for i, m in enumerate(mats):
            eigs = np.linalg.eigvalsh(m)
            norm_max[i] = max(norm_max[i], float(np.abs(eigs).max()))
        traces = _word_traces(mats, config.size, max_order, words)
        # Welford over complex values
        d = traces - mean
        mean += d / (s + 1)
        msq += (d.conj() * (traces - mean)).real

    count = config.samples
    stderr = np.sqrt(msq / count / max(count - 1, 1))
    return MomentTable(
        n,
        max_order,
        dict(zip(words, mean.tolist())),
        tracial=True,
        norm_upper=tuple(norm_max),
        stderr=dict(zip(words, stderr.tolist())),
    )


def moment_table_from_matrices(mats, max_order, atol=1e-12):
    """Exact trace state of a fixed tuple of Hermitian matrices.

    phi(w) = tr(prod of the word) / N.  Such states satisfy every moment
    invariant (unit, Hermitian symmetry, positivity, traciality) up to
    floating point, and their spectral norms are exact upper norm
    estimates.  Useful both as a deterministic table backend and as an
    independent oracle in tests.  Matrices Hermitian within ``atol``
    are replaced by their Hermitian parts.
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
    words = words_up_to(n, max_order, min_len=1)
    traces = _word_traces(mats, size, max_order, words)
    norms = tuple(float(np.abs(np.linalg.eigvalsh(m)).max()) for m in mats)
    return MomentTable(n, max_order, dict(zip(words, traces.tolist())),
                       tracial=True, norm_upper=norms)
