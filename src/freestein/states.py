"""Moment functionals (noncommutative distributions) and their pairings.

A state is determined by its word moments phi(t_{i1}...t_{im}).  Two
backends live here:

* ``MomentTable`` -- explicit moments up to a max order, stored as the
  sorted integer codes of its words (see ``word_codes``) and their
  values.  A tracial table with Hermitian symmetry is fixed by one value
  per bracelet class (the words reachable by rotation and reversal), and
  ``MomentTable.from_bracelets`` stores just that, never expanded to
  words.  Its one class rule is ``canonical_codes``, integer arithmetic
  on codes alone: ``bracelet_classes`` runs it over every code to
  enumerate the classes a trace table stores, and a table runs it once
  over the codes of every word up to the longest length it has read,
  whose index then answers each batch by one gather (see
  ``MomentTable``);
* ``CumulantState`` -- moments generated from a ``CumulantSpec`` of free
  cumulants by the moment-cumulant formula
  ``phi(w) = sum over pi in NC(|w|) of prod over blocks B of kappa(w|B)``.
  It is evaluated without enumerating NC(|w|): grouping the partitions
  by the block B that holds the first letter gives
  ``phi(w) = sum over B of kappa(w|B) * prod over the gaps of B of phi(gap)``,
  whose gaps are contiguous subwords held in one per-state memo.  Only
  blocks whose letters spell a prefix of a stored cumulant word are
  tried.  A spec's cumulants are exactly Hermitian and reversal maps
  NC(m) to itself, so phi(rev w) = conj phi(w) and the recursion runs
  once per reversal class, or, when the spec is ``cyclic`` (kappa is
  exactly invariant under rotation, which permutes NC(m), so phi is
  tracial), once per bracelet class.  ``moments_to_cumulants`` solves
  the same recursion for kappa.

(The third backend, Monte Carlo over matrix ensembles, produces a
``MomentTable``; see ``matrixmodels``.)

On top of a state the module provides the evaluation pairings used by
the rest of the library:

* ``moment_of_poly``      phi(p(X)),
* ``tensor_moment``       (phi (x) phi)(q(X)) for tensor-square elements,
* ``inner_tuple``         <p, r> = sum_i phi(p_i r_i*),
* ``inner_matrix``        <A, B> = (phi (x) phi) Tr(A # B*),

all linear in the first slot and conjugate-linear in the second, plus
the Gram assemblies shared by the Stein and Poincare solvers.  The
inner products and every Gram over words are one numpy gather,
``pairing_gather``.  With the sharp product (p1 (x) p2) # (q1 (x) q2) = p1 q1 (x) q2 p2,

    <p (x) q, u (x) v> = (phi (x) phi)((p (x) q) # (u (x) v)*)
                       = phi(p rev u) * phi(rev v q),

and both factors are entries of one moment matrix H[u, v] = phi(u rev v),
so the inner products, the Dirichlet Gram (the Jacobian terms
w[:k] (x) w[k+1:] against themselves) and H itself (the monomials
w (x) 1; ``validate_state`` factors it, the covariance Gram reads it) are
term lists handed to the gather.  None of them builds a symbolic product;
exact ``sharp`` products are for exact output (``algebra``) and for the
oracle in the tests.  The gather asks the state for the entries of H it
needs in one batch, ``MomentFunctional.pair_moments``, and the helpers
below ask for lists of words through ``word_moments``: a table answers
either with one vectorized lookup, the codes code(u rev v) =
code(u) n^|v| + code(rev v) of a Hankel block coming from the codes of
its legs; a cumulant state reads the batch from its memo and asks
``moment`` only for the misses; the base class asks ``moment`` once per
entry.

Symbolic inputs are exact; evaluation is double-precision complex.
A cumulant state's memo only grows, each class written under a lock,
and a table is read-only, so every functional is safe for concurrent
reads.
High-level helpers precompute the word length they need and raise
``BudgetExceededError`` before touching the backend.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, InvalidStateError
from .partitions import noncrossing_partitions  # re-exported; off the moment path


def words_up_to(nvars, max_len, min_len=0):
    """All words over {1..nvars} with min_len <= length <= max_len,
    in graded-lexicographic order."""
    out = []
    for m in range(min_len, max_len + 1):
        out.extend(itertools.product(range(1, nvars + 1), repeat=m))
    return out


def rotations(word):
    m = len(word)
    twice = word + word
    return [twice[k:k + m] for k in range(m)]


# HERM_TOL is the tolerance of every Hermitian check and of the unit and
# cyclic checks; PSD_TOL and PINV_TOL are those of ``graded_cholesky``
HERM_TOL = 1e-8
PSD_TOL = 1e-8
PINV_TOL = 5e-14

# cap on the 16 m^2 bytes of a complex form over m words, which a Gram,
# its factor and inverse each take (1,092 words at n = 3, d = 6: 19 MB)
MAX_FORM_BYTES = 1 << 27


def _orbit(word, cyclic):
    """(forward, reversed) words of the class of ``word`` under reversal
    and, when ``cyclic``, rotation.  ``forward`` starts with ``word``;
    ``reversed`` is empty when the class is closed under reversal."""
    forward = (rotations(word) or [word]) if cyclic else [word]
    back = word[::-1]
    # the rotation classes of a word and of its reversal are equal or
    # disjoint
    if back in forward:
        return forward, []
    return forward, rotations(back) if cyclic else [back]


def _least(rots, flipped):
    forward = min(rots)
    backward = min(flipped, default=forward)
    if backward < forward:
        return backward, True
    return forward, False


class BraceletError(ValueError):
    """A key of a representative map that does not represent its class,
    or a reversal-closed class whose value is not real; ``word`` is the
    key."""

    def __init__(self, message, word):
        super().__init__(message)
        self.word = word


# Word codes.  The code of a word is its letters read as a number in
# base n with digits 1..n (bijective numeration): code(()) = 0 and
# code(w + (a,)) = n code(w) + a.  That is the base-n value of the
# letters minus one, offset by (n^L - 1) / (n - 1) for a word of length
# L, so codes order words graded-lexicographically, and
# code(u + v) = code(u) n^|v| + code(v).

# largest int64, the bound on every code and intermediate product
_CODE_MAX = (1 << 63) - 1


def _code_powers(nvars, top):
    """n^k for k = 0..top as int64; ``BudgetExceededError`` when a word
    of length ``top`` has a code past 64 bits (for n = 2 and 3 exactly
    when n^top >= 2^63)."""
    if word_count(nvars, top) > _CODE_MAX:
        longest = top - 1
        while word_count(nvars, longest) > _CODE_MAX:
            longest -= 1
        raise BudgetExceededError(
            f"words of length {top} over {nvars} letters have codes past "
            f"64 bits; the longest word coded is {longest}",
            needed=top, available=longest)
    return np.power(nvars, np.arange(top + 1, dtype=np.int64))


def word_count(nvars, length):
    """The number of nonempty words of length <= ``length``, the sum of
    n^k over k = 1..length; it is also the code of (n, ..., n)."""
    if nvars == 1:
        return length
    return (nvars ** (length + 1) - 1) // (nvars - 1) - 1


def word_codes(words, nvars):
    """(codes, lengths) of ``words`` as int64 arrays.  Raises ValueError
    on a letter outside 1..nvars and ``BudgetExceededError`` on a word
    whose code needs more than 64 bits."""
    lengths = np.fromiter(map(len, words), dtype=np.int64, count=len(words))
    _code_powers(nvars, int(lengths.max(initial=0)))
    if not set().union(*words) <= set(range(1, nvars + 1)):
        for letter in itertools.chain.from_iterable(words):
            if not 1 <= letter <= nvars:
                raise ValueError(f"letter {letter} out of range 1..{nvars}")
    return np.fromiter(map(functools.partial(_code, nvars), words),
                       dtype=np.int64, count=len(words)), lengths


def _code(nvars, word):
    code = 0
    for letter in word:
        code = code * nvars + letter
    return code


def code_word(code, nvars):
    """The word with code ``code``."""
    code, letters = int(code), []
    while code:
        code, digit = divmod(code - 1, nvars)
        letters.append(digit + 1)
    return tuple(letters[::-1])


def canonical_codes(codes, lengths, nvars, bracelet=True):
    """(class codes, flipped, closed) of the words with these codes and
    lengths, by integer arithmetic on the queries alone.

    A tracial state with Hermitian symmetry has phi(rotation of w) =
    phi(w) and phi(rev w) = conj phi(w), so it is fixed by one value per
    bracelet class, the words reachable from w by rotation and reversal.
    With ``bracelet`` the class code is the code of its representative,
    the least rotation of the word or of its reversal; ``flipped`` says
    it came from the reversal only, so phi(word) = conj phi(class) in
    such a state, and ``closed`` says the class holds the reversal of
    its words.  Without ``bracelet`` each word is its own class.  Raises
    ``BudgetExceededError`` as ``word_codes`` does.
    """
    codes = np.asarray(codes, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    none = np.zeros(codes.shape, dtype=bool)
    if not bracelet:
        return codes, none, none
    top = int(lengths.max(initial=0))
    powers = _code_powers(nvars, top)
    base = np.concatenate(([0], np.cumsum(powers[:top])))[lengths]
    lead = powers[np.maximum(lengths - 1, 0)]
    # Each step moves the last letter of every word to the front, so
    # top - 1 steps pass every rotation.  The letters moved, read in
    # turn for top steps, spell the reversal followed by top - L
    # letters more, which the last division drops.
    turn = codes - base  # the base-n value of the letters minus one
    least, back = turn.copy(), np.zeros_like(turn)
    for _ in range(top):
        rest = turn // nvars
        last = turn - rest * nvars
        turn = rest + last * lead
        np.minimum(least, turn, out=least)
        back *= nvars
        back += last
    back //= powers[top - lengths]
    mirror, turn = back.copy(), back
    for _ in range(top - 1):
        rest = turn // nvars
        turn = rest + (turn - rest * nvars) * lead
        np.minimum(mirror, turn, out=mirror)
    return base + np.minimum(least, mirror), mirror < least, mirror == least


def bracelet_classes(nvars, max_order):
    """(representatives, closed) of the nonempty bracelet classes of the
    words of length <= ``max_order``: the representatives in
    graded-lexicographic order, and a boolean mask of the classes closed
    under reversal.  The codes 1..code(n...n) number exactly those
    words, so this is ``canonical_codes`` over that range, whose size
    the caller bounds."""
    counts = _code_powers(nvars, max_order)[1:]
    codes = np.arange(1, word_count(nvars, max_order) + 1, dtype=np.int64)
    keys, _, closed = canonical_codes(
        codes, np.repeat(np.arange(1, max_order + 1), counts), nvars)
    mine = keys == codes
    return [code_word(c, nvars) for c in codes[mine].tolist()], closed[mine]


class MomentFunctional:
    """Base class: a unital linear functional described by word moments.

    ``norm_upper`` optionally carries per-coordinate upper bounds on the
    operator norms (support edges for analytic laws, sampled spectral
    norms for matrix backends); ``None`` entries mean unknown.
    """

    def __init__(self, nvars, max_order, tracial, norm_upper=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        if max_order < 1:
            raise ValueError("max_order must be >= 1")
        self.nvars = nvars
        self.max_order = max_order
        self.tracial = bool(tracial)
        self.norm_upper = tuple(norm_upper) if norm_upper is not None else None

    def check_order(self, needed):
        if needed > self.max_order:
            raise BudgetExceededError(
                f"computation needs word moments of length {needed}, "
                f"backend supports {self.max_order}",
                needed=needed,
                available=self.max_order,
            )

    def _check_word(self, word):
        self.check_order(len(word))
        self._check_letters(word)

    def _check_letters(self, word):
        for letter in word:
            if not 1 <= letter <= self.nvars:
                raise ValueError(f"letter {letter} out of range 1..{self.nvars}")

    def moment(self, word):
        raise NotImplementedError

    def pair_moments(self, lefts, rights, us, vs):
        """phi(lefts[u] + rights[v]) for each pair (u, v) of the index
        arrays ``us`` and ``vs``, as a complex array: the batch through
        which ``pairing_gather`` reads a Hankel block.  Here it is one
        ``moment`` call per pair, in order."""
        return np.array([self.moment(lefts[u] + rights[v])
                         for u, v in zip(us.tolist(), vs.tolist())],
                        dtype=complex)

    def word_moments(self, words):
        """phi(w) for each of ``words``, as a complex array; here one
        ``moment`` call per word, in order."""
        return np.array([self.moment(w) for w in words], dtype=complex)


# cap on the codes a table's class index covers.  Building the index
# costs about what one canonicalizing batch of the same codes does
# (0.15-0.3 us a code), so it pays once the reads have asked each code,
# as a Gram block of that length does.  2^14 codes cover the largest
# table the benchmark reads (n = 3, order 8: 9,841 codes) and bound the
# index to 80 KB and a first read that builds all of it to about 3 ms.
_INDEX_CODES = 1 << 14


class MomentTable(MomentFunctional):
    """Explicit moment table; absent words within the order budget are 0.

    The table keeps the sorted codes of its stored words (see
    ``word_codes``) with their values, and with their standard errors
    when ``stderr`` maps words to Monte Carlo standard errors.  A table
    built by ``from_bracelets`` stores one word per bracelet class and
    is never expanded: a word reads the value of its class by
    ``canonical_codes``, conjugated when the word is flipped.  A
    word-list table stores every word and its classes are the identity;
    when built, it raises ``InvalidStateError`` unless each stored
    word's reversal reads its conjugate and, when ``tracial``, each
    rotation its value, within ``HERM_TOL``.  Values must be finite.

    Reads go through a class index: for every code up to that of
    (n, ..., n) of length L, the slot of its class among the stored
    codes (-1, read as 0, for an absent class) and its flip flag.  A
    batch first grows L to its longest word, up to the longest length
    <= ``max_order`` whose codes number at most ``_INDEX_CODES``, so
    the index holds only the lengths read so far; it then reads each
    covered code by one gather, and canonicalizes only its longer
    codes, once per distinct word.  The grown index is published by one
    assignment, so concurrent reads stay safe.  ``pair_moments`` and
    ``word_moments`` answer a whole batch at once; ``moment`` is a batch
    of one word.  ``stored`` gives the stored words with their values
    and standard errors.
    """

    def __init__(self, nvars, max_order, entries, tracial=False,
                 norm_upper=None, stderr=None):
        super().__init__(nvars, max_order, tracial, norm_upper)
        self._store(entries, stderr, bracelet=False)
        self._check_symmetry()

    @classmethod
    def from_bracelets(cls, nvars, max_order, values, norm_upper=None,
                       stderr=None):
        """Tracial table from one value (and standard error) per bracelet
        class, keyed by representative; only those words are checked.
        Each rotation of a representative has its value, each reversed
        rotation the conjugate, and a reversal-closed class the real
        part.  Raises ``BraceletError`` on a key that is not its class
        representative, or on a reversal-closed class whose value has an
        imaginary part over ``HERM_TOL``."""
        table = cls(nvars, max_order, {}, tracial=True, norm_upper=norm_upper)
        table._store(values, stderr, bracelet=True)
        return table

    def _store(self, entries, stderr, bracelet):
        self.bracelet = bracelet
        entries = {tuple(w): complex(v) for w, v in entries.items()}
        entries.setdefault((), 1.0 + 0j)
        self._values = self._sorted(entries, complex)
        self._errors = self._sorted(stderr, float) if stderr else None
        # the stored values with a 0 after them, which slot -1 reads
        self._cells = np.append(self._values[1], 0)
        # the longest length whose codes the index may cover
        top = 0
        while (top < self.max_order
               and word_count(self.nvars, top + 1) < _INDEX_CODES):
            top += 1
        self._index_top = top
        self._index = np.empty(0, dtype=np.int32), np.empty(0, dtype=bool)

    def _check_symmetry(self):
        # reversals, conjugated, then rotations when tracial, in one batch
        words = [code_word(c, self.nvars) for c in self._values[0].tolist()]
        pairs = [(k, w[::-1]) for k, w in enumerate(words)]
        if self.tracial:
            pairs += [(k, r) for k, w in enumerate(words)
                      for r in rotations(w)[1:]]
        owners, asked = zip(*pairs)
        read, values = self.word_moments(asked), self._values[1][list(owners)]
        read[:len(words)] = read[:len(words)].conj()
        bad = np.flatnonzero(np.abs(read - values) > HERM_TOL)
        if bad.size:
            k, flip = bad[0], bool(bad[0] < len(words))
            raise InvalidStateError(
                f"{'Hermitian symmetry' if flip else 'traciality'} fails: "
                f"phi({list(words[owners[k]])}) = {complex(values[k])} but "
                f"{'conj ' * flip}phi({list(asked[k])}) = {complex(read[k])}")

    def _sorted(self, values, kind):
        words = [tuple(w) for w in values]
        for word in words:
            if len(word) > self.max_order:
                raise ValueError(
                    f"entry word of length {len(word)} exceeds max_order "
                    f"{self.max_order}")
        codes, lengths = word_codes(words, self.nvars)
        vals = np.array([kind(v) for v in values.values()], dtype=kind)
        infinite = np.flatnonzero(~np.isfinite(vals))
        if infinite.size:
            word = words[infinite[0]]
            raise ValueError(f"value of word {list(word)} is not finite, "
                             f"got {kind(vals[infinite[0]])}")
        if self.bracelet:
            keys, _, closed = canonical_codes(codes, lengths, self.nvars)
            bad = np.flatnonzero((keys != codes)
                                 | closed & (np.abs(vals.imag) > HERM_TOL))
            if bad.size:
                k = bad[0]
                if keys[k] != codes[k]:
                    least = code_word(int(keys[k]), self.nvars)
                    raise BraceletError(
                        f"word {list(words[k])} is not the representative "
                        f"{list(least)} of its bracelet class", words[k])
                raise BraceletError(
                    f"the class of {list(words[k])} is closed under "
                    f"reversal, so its value must be real, got "
                    f"{kind(vals[k])}", words[k])
            vals[closed] = vals[closed].real
        order = np.argsort(codes)
        return codes[order], vals[order]

    def pair_moments(self, lefts, rights, us, vs):
        left, right = (np.fromiter(map(len, side), dtype=np.int64,
                                   count=len(side))
                       for side in (lefts, rights))
        lengths = left[us] + right[vs]
        top = int(lengths.max(initial=0))
        self.check_order(top)
        # checked before the codes of the pairs are formed
        powers = _code_powers(self.nvars, top)
        codes = (word_codes(lefts, self.nvars)[0][us] * powers[right[vs]]
                 + word_codes(rights, self.nvars)[0][vs])
        return self._lookup(codes, lengths, top)

    def _lookup(self, codes, lengths, longest):
        slot, flip = self._grown(longest)
        covered = codes < len(slot)
        at = np.where(covered, codes, 0)
        slot, flip = slot[at], flip[at]
        if not covered.all():
            # codes past the index: one canonicalization per distinct word
            rest = ~covered
            codes, first, repeat = np.unique(codes[rest], return_index=True,
                                             return_inverse=True)
            far, turned = self._slots(codes, lengths[rest][first])
            slot[rest], flip[rest] = far[repeat], turned[repeat]
        found = self._cells[slot]
        np.conjugate(found, out=found, where=flip)
        return found

    def _slots(self, codes, lengths):
        """(slot, flip) of the words with these codes and lengths: the
        position of the code of each word's class among the stored codes,
        -1 when the class is absent, and whether the value is conjugated.
        This is the class rule, ``canonical_codes``; the index is built
        from it."""
        stored = self._values[0]
        keys, flipped, _ = canonical_codes(codes, lengths, self.nvars,
                                           self.bracelet)
        # a binary search over sorted keys is several times faster
        order = np.argsort(keys)
        at = np.empty_like(order)
        at[order] = np.searchsorted(stored, keys[order])
        np.minimum(at, len(stored) - 1, out=at)
        found = stored[at] == keys
        # an absent class reads 0, never its conjugate -0j
        return np.where(found, at, -1), flipped & found

    def _grown(self, longest):
        """The class index, grown to cover every word of length at most
        ``longest`` and ``_index_top``."""
        slot, flip = self._index
        top = min(longest, self._index_top)
        size = word_count(self.nvars, top) + 1
        if size <= len(slot):
            return slot, flip
        # Codes are graded, so the words of length <= m are exactly the
        # codes 0..code(n...n) of length m, and growing appends codes.
        # Concurrent reads may each grow the index; the builds agree on
        # the codes they share, and each is published by one assignment.
        codes = np.arange(len(slot), size, dtype=np.int64)
        # the last code of each length, where searchsorted finds lengths
        ends = [word_count(self.nvars, m) for m in range(top + 1)]
        more, turned = self._slots(codes, np.searchsorted(ends, codes))
        slot = np.concatenate((slot, more), dtype=np.int32)
        flip = np.concatenate((flip, turned))
        self._index = slot, flip
        return slot, flip

    def word_moments(self, words):
        index = np.arange(len(words))
        return self.pair_moments(words, ((),), index, np.zeros_like(index))

    def moment(self, word):
        return complex(self.word_moments((tuple(word),))[0])

    def stored(self):
        """(values, stderr): maps from the stored words, class
        representatives for a bracelet table, to their values and
        standard errors (None without), in graded-lexicographic order."""
        return (self._words(*self._values),
                None if self._errors is None else self._words(*self._errors))

    def _words(self, codes, values):
        return {code_word(c, self.nvars): v
                for c, v in zip(codes.tolist(), values.tolist())}


def _finite(z):
    # math, unlike cmath, is loaded with numpy already
    return math.isfinite(z.real) and math.isfinite(z.imag)


# cap on CumulantSpec.max_order: a dense spec costs up to 2^(m-1) block
# choices for each new class of words of length m
MAX_CUMULANT_ORDER = 16


@dataclass(frozen=True)
class CumulantSpec:
    """Free cumulant values kappa(i1,...,im) indexed by words.

    Words absent from ``kappa`` have cumulant 0.  ``max_order`` caps the
    word length the induced moment functional will evaluate (it bounds
    the moment recursion, not the stored words).  ``blocks`` is the
    letter trie of the cumulant words that the recursion walks.  A
    kappa(w) more than ``HERM_TOL`` from conj kappa(rev w) raises
    ``InvalidStateError``; each word stores the exactly Hermitian part
    (kappa(w) + conj kappa(rev w)) / 2, which is kappa(w) when that
    already is.  ``cyclic`` says kappa(w[1:] + w[:1]) == kappa(w)
    exactly; rotation permutes the noncrossing partitions and rotates
    block subwords, so cyclic cumulants induce a tracial state.
    """

    nvars: int
    kappa: dict
    max_order: int = 12

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("nvars must be >= 1")
        if not 1 <= self.max_order <= MAX_CUMULANT_ORDER:
            raise ValueError(f"max_order must lie in 1..{MAX_CUMULANT_ORDER}")
        clean = {}
        for w, v in self.kappa.items():
            w = tuple(w)
            if not w:
                raise ValueError("cumulant words must be nonempty")
            for letter in w:
                if not 1 <= letter <= self.nvars:
                    raise ValueError(f"letter {letter} out of range 1..{self.nvars}")
            v = complex(v)
            if not _finite(v):
                raise ValueError(f"cumulant of word {list(w)} is not finite, "
                                 f"got {v}")
            if v != 0:
                clean[w] = v
        kappa = dict(clean)
        for w, v in clean.items():
            back = clean.get(w[::-1], 0j).conjugate()
            if v != back:
                if abs(v - back) > HERM_TOL:
                    raise InvalidStateError(
                        f"cumulants are not Hermitian: kappa({list(w)}) = "
                        f"{v} but conj kappa({list(w[::-1])}) = {back}")
                # a word and its reversal get conjugate parts, bit for bit
                kappa[w] = part = (v + back) / 2
                kappa[w[::-1]] = part.conjugate()
        kappa = {w: v for w, v in kappa.items() if v}
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "blocks", _block_trie(kappa))
        # one-step rotation generates every rotation
        object.__setattr__(self, "cyclic", all(
            kappa.get(w[1:] + w[:1], 0j) == v for w, v in kappa.items()))

    @classmethod
    def _raw(cls, nvars, kappa, max_order, cyclic):
        # internal: ``kappa`` already canonical (exactly Hermitian nonzero
        # values on nonempty words of letters 1..nvars), ``cyclic`` exact
        spec = object.__new__(cls)
        for name, value in (("nvars", nvars), ("kappa", kappa),
                            ("max_order", max_order), ("cyclic", cyclic),
                            ("blocks", _block_trie(kappa))):
            object.__setattr__(spec, name, value)
        return spec

    def value(self, word):
        return self.kappa.get(tuple(word), 0j)


class CumulantState(MomentFunctional):
    """Moment functional generated by free cumulants.

    A memo miss evaluates the first-block recursion once, on the least
    word of the asked word's class (its reversals and, for a ``cyclic``
    spec, rotations), and stores the whole class: each rotation gets the
    value, each reversed rotation its conjugate, and a class closed under
    reversal its real part.  So phi(rev w) == conj phi(w) on every word,
    and the state is tracial when the spec is ``cyclic``.

    ``pair_moments`` and ``word_moments`` read a batch straight from the
    memo, in order, and call ``moment`` only on the words still missing
    when their turn comes, so a class filled earlier in the batch is not
    evaluated again and a bad word raises as ``moment`` would.  Memo
    reads take no lock: the memo only grows, one dict read is atomic,
    and each class is written under the lock.
    """

    def __init__(self, spec, norm_upper=None):
        super().__init__(spec.nvars, spec.max_order, spec.cyclic, norm_upper)
        self.spec = spec
        self._memo = {(): 1.0 + 0j}
        self._lock = threading.Lock()

    def moment(self, word):
        word = tuple(word)
        # the memo holds only checked words and their subwords, so a hit
        # needs no check
        value = self._memo.get(word)
        if value is not None:
            return value
        self._check_word(word)
        return self._moment(word)

    def pair_moments(self, lefts, rights, us, vs):
        return self.word_moments(lefts[u] + rights[v]
                                 for u, v in zip(us.tolist(), vs.tolist()))

    def word_moments(self, words):
        # each word is read from the memo when its turn comes, so a class
        # filled by an earlier miss of the batch is a hit, and only a miss
        # is asked of ``moment``, which checks it; the words are never
        # held all at once
        get = self._memo.get
        values = []
        for word in map(tuple, words):
            value = get(word)
            values.append(self.moment(word) if value is None else value)
        return np.array(values, dtype=complex)

    def _moment(self, word):
        # subwords of a checked word, and the words of its class, need no
        # check; the lock serializes the writes of a class and is never
        # held across the recursion
        value = self._memo.get(word)
        if value is not None:
            return value
        spec = self.spec
        forward, flipped = _orbit(word, spec.cyclic)
        least, from_flipped = _least(forward, flipped)
        value = _first_block_sum(spec.blocks, least, self._moment)
        if not _finite(value):
            raise BudgetExceededError(
                f"moment of word {list(word)} overflows double precision")
        if from_flipped:
            value = value.conjugate()
        elif not flipped:
            value = complex(value.real)
        conj = value.conjugate()
        with self._lock:
            for w in forward:
                self._memo[w] = value
            for w in flipped:
                self._memo[w] = conj
        return value


def _block_trie(kappa):
    """Letter trie of cumulant words, ``{letter: [kappa, children]}``.

    Inner nodes carry kappa 0.  A block whose letters leave the trie has
    cumulant 0 however it is extended, so the recursion drops it there.
    """
    root = {}
    for word, value in kappa.items():
        node = root
        for letter in word[:-1]:
            child = node.get(letter)
            if child is None:
                child = node[letter] = [0j, {}]
            node = child[1]
        leaf = node.get(word[-1])
        if leaf is None:
            node[word[-1]] = [value, {}]
        else:
            leaf[0] = value
    return root


def _first_block_sum(blocks, word, moment):
    """Sum over blocks B holding position 0 of the nonempty ``word``:
    kappa(word|B) times the product of ``moment`` over the gaps B leaves.

    ``blocks`` is a ``_block_trie``; ``moment`` is only called on the
    nonempty gaps, which are proper contiguous subwords.  With the
    cumulants of ``blocks`` this is the moment-cumulant formula phi(w),
    grouped by the block of the first letter (Nica-Speicher, Lecture 11).
    The blocks are walked depth first by an explicit stack, so no
    closure refers to itself and keeps ``moment``'s owner alive.
    """
    m = len(word)
    total = 0j
    first = blocks.get(word[0])
    # (trie node of the block's last letter, its position, product of the
    # block's inner gaps); the least next position is popped first
    stack = [(first, 0, 1.0 + 0j)] if first is not None else []
    while stack:
        (value, children), last, acc = stack.pop()
        if value:
            tail = moment(word[last + 1:]) if last + 1 < m else 1.0
            total += value * acc * tail
        for q in range(m - 1, last, -1):
            child = children.get(word[q])
            if child is not None:
                gap = moment(word[last + 1:q]) if q > last + 1 else 1.0
                if gap:
                    stack.append((child, q, acc * gap))
    return total


def cumulants_to_moment(spec, word):
    """Moment of one word under the moment-cumulant formula, evaluated by
    a fresh ``CumulantState``, which checks the word."""
    return CumulantState(spec).moment(word)


def moments_to_cumulants(phi, max_order):
    """Recursive extraction of free cumulants from word moments.

    kappa(w) = phi(w) - sum over blocks B holding the first letter,
    B not all of w, of kappa(w|B) times the moments of the gaps B
    leaves: the first-block recursion solved for its one term of full
    length.  Inverse of ``cumulants_to_moment`` up to double-precision
    rounding.
    """
    phi.check_order(max_order)
    kappa = {}
    for m in range(1, max_order + 1):
        blocks = _block_trie(kappa)  # only cumulants shorter than m
        for word in itertools.product(range(1, phi.nvars + 1), repeat=m):
            val = phi.moment(word) - _first_block_sum(blocks, word, phi.moment)
            if val != 0:
                kappa[word] = val
    return CumulantSpec(phi.nvars, kappa, max_order=max_order)


# ---------------------------------------------------------------------------
# pairings


def moment_of_poly(phi, p):
    """phi(p(X)) by linear extension of word moments."""
    if p.nvars != phi.nvars:
        raise ValueError("polynomial/state nvars mismatch")
    phi.check_order(p.degree())
    total = 0j
    values = phi.word_moments(list(p.terms)).tolist()
    for c, m in zip(p.terms.values(), values):
        total += complex(c) * m
    return total


def tensor_moment(phi, q):
    """(phi (x) phi) applied to a tensor-square element.

    The opposite-algebra structure changes products, not this
    functional: each term contributes coeff * phi(left) * phi(right).
    """
    if q.nvars != phi.nvars:
        raise ValueError("tensor/state nvars mismatch")
    phi.check_order(q.max_leg_degree())
    total = 0j
    for (a, b), c in q.terms.items():
        total += complex(c) * phi.moment(a) * phi.moment(b)
    return total


# cap on the entries of one gathered block in ``pairing_gather``
_GATHER_BLOCK = 1 << 18


def pairing_gather(phi, left, right, shape):
    """M[x, y] = sum of c_e conj(c_f) phi(l_e rev(l_f)) phi(rev(r_f) r_e)
    over the terms e of row x in ``left`` and f of row y in ``right``
    that share a key.

    A term is (owner row, key, coefficient c, left leg l, reversed right
    leg rev(r)) and stands for c (l (x) r); ``shape`` is (rows of
    ``left``, rows of ``right``).  Each pair is the pairing
    <l_e (x) r_e, l_f (x) r_f> = phi(l_e rev(l_f)) phi(rev(r_f) r_e), and
    both factors are entries of H[u, v] = phi(u rev v), H[l_e, l_f] and
    H[rev r_f, rev r_e].  The budget is checked once, for the longest
    pair of legs that some key pairs, and only the entries of H that
    some pair reads are asked of ``phi``.
    """
    groups = {}
    for side, terms in enumerate((left, right)):
        for term in terms:
            groups.setdefault(term[1], ([], []))[side].append(term)
    index = {}
    arrays = [[(np.array([t[0] for t in terms]),
                np.array([t[2] for t in terms], dtype=complex),
                np.array([index.setdefault(t[3], len(index)) for t in terms]),
                np.array([index.setdefault(t[4], len(index)) for t in terms]))
               for terms in group] for group in groups.values() if all(group)]
    legs = list(index)
    length = np.array([len(leg) for leg in legs], dtype=int)
    phi.check_order(int(max((max(length[la].max() + length[lb].max(),
                              length[ra].max() + length[rb].max())
                             for (_, _, la, ra), (_, _, lb, rb) in arrays),
                            default=0)))

    needed = np.zeros((len(legs), len(legs)), dtype=bool)
    for (_, _, la, ra), (_, _, lb, rb) in arrays:
        for u, v in ((la, lb), (rb, ra)):
            needed |= np.outer(np.bincount(u, minlength=len(legs)) > 0,
                               np.bincount(v, minlength=len(legs)) > 0)
    us, vs = np.nonzero(needed)
    hankel = np.zeros(needed.shape, dtype=complex)
    hankel[us, vs] = phi.pair_moments(legs, [leg[::-1] for leg in legs],
                                      us, vs)

    rows, cols = shape
    out = np.zeros(rows * cols, dtype=complex)
    for (oa, ca, la, ra), (ob, cb, lb, rb) in arrays:
        step = max(1, _GATHER_BLOCK // len(ob))
        for lo in range(0, len(oa), step):
            e = slice(lo, lo + step)
            prod = hankel[np.ix_(la[e], lb)]
            prod *= ca[e, None]
            prod *= cb.conj()
            prod *= hankel[np.ix_(rb, ra[e])].T
            np.add.at(out, (oa[e, None] * cols + ob).ravel(), prod.ravel())
    return out.reshape(rows, cols)


def tensor_terms(owner, key, q):
    """``pairing_gather`` terms of the tensor-square element q."""
    return [(owner, key, complex(c), a, b[::-1]) for (a, b), c in q.terms.items()]


def jacobian_terms(words):
    """``pairing_gather`` terms of the Jacobian rows of the monomials
    ``words``: w[:k] (x) w[k+1:] of d_{w[k]} w, owned by the index of w
    and keyed by the letter w[k]."""
    return [(a, letter, 1.0, w[:k], w[k + 1:][::-1])
            for a, w in enumerate(words) for k, letter in enumerate(w)]


def inner_tuple(phi, ps, rs):
    """<p, r> = sum_i phi(p_i r_i*); conjugate-linear in r."""
    if len(ps) != len(rs):
        raise ValueError("tuple length mismatch")
    for p, r in zip(ps, rs):
        if p.nvars != r.nvars:
            raise ValueError("mismatched nvars")
        if p.nvars != phi.nvars:
            raise ValueError("polynomial/state nvars mismatch")

    def terms(tup):
        # right legs are empty, so each pair's right factor is phi(()) = 1
        return [(0, i, complex(c), w, ())
                for i, p in enumerate(tup) for w, c in p.terms.items()]

    return complex(pairing_gather(phi, terms(ps), terms(rs), (1, 1))[0, 0])


def inner_matrix(phi, a, b):
    """<A, B> = (phi (x) phi) Tr(A # B*) = sum_ij (phi (x) phi)(A_ij # B_ij*)."""
    if a.size != b.size or a.nvars != b.nvars:
        raise ValueError("kernel matrix mismatch")
    if a.nvars != phi.nvars:
        raise ValueError("tensor/state nvars mismatch")

    def terms(k):
        return [t for i, row in enumerate(k.rows) for j, q in enumerate(row)
                for t in tensor_terms(0, (i, j), q)]

    return complex(pairing_gather(phi, terms(a), terms(b), (1, 1))[0, 0])


# ---------------------------------------------------------------------------
# Gram assemblies shared by the Stein and Poincare solvers


def dirichlet_gram(phi, words):
    """Hermitian Gram of Jacobian rows over monomial words.

    G[a, b] = sum_i (phi (x) phi)( d_i(w_b) # (d_i(w_a))* ), so that the
    Dirichlet energy of P = sum_b alpha_b w_b is alpha^H G alpha.  It is
    the transposed ``pairing_gather`` of the Jacobian terms with
    themselves (whose budget check asks for 2 (longest word - 1)),
    checked Hermitian, then its upper triangle copied over the lower one.
    """
    terms = jacobian_terms(words)
    gram = pairing_gather(phi, terms, terms, (len(words), len(words))).T
    # checked before the copy, which would hide the lower triangle
    _check_hermitian(gram, "Dirichlet form")
    gram = np.triu(gram) + np.triu(gram, 1).conj().T
    return (gram + gram.conj().T) / 2


def covariance_gram(phi, words):
    """Hermitian form of centered monomials.

    S[a, b] = phi((w_b - phi w_b)(w_a - phi w_a)*), so the variance of
    P = sum_b alpha_b w_b is alpha^H S alpha, checked Hermitian.  S^T is
    the Schur complement of () in ``moment_matrix``, H[w, ()] = phi(w).
    """
    hankel = moment_matrix(phi, max(map(len, words), default=0))
    rows = word_codes(words, phi.nvars)[0]
    means = hankel[rows, 0]
    cov = hankel[np.ix_(rows, rows)].T - np.outer(means.conj(), means)
    _check_hermitian(cov, "covariance form")
    return (cov + cov.conj().T) / 2


def _check_hermitian(mat, what):
    # within HERM_TOL of the largest entry, or of 1 when all are smaller
    scale = max(np.abs(mat).max(initial=0.0), 1.0)
    if np.abs(mat - mat.conj().T).max(initial=0.0) > HERM_TOL * scale:
        raise InvalidStateError(f"{what} is not Hermitian (invalid state)")


def graded_cholesky(gram, words, what, pinv_tol, floor_is_relation=False):
    """(L, s, kept pivots) of the left-looking Cholesky ``gram`` = L L^H
    over ``words`` in graded order (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 10).  Pivot k, with Schur complement s_k
    and diagonal delta_k, is a relation (a zero column of L) if delta_k =
    0 or |s_k| <= pinv_tol delta_k; else the form ``what`` is indefinite
    (``InvalidStateError``) if s_k < -``PSD_TOL`` delta_k; else, if s_k <
    0, in the float floor: a relation if ``floor_is_relation``, else
    ``BudgetExceededError``.  With ``floor_is_relation``, a relation's
    Schur column c must also vanish, |c_j|^2 <= ``PSD_TOL`` delta_k
    delta_j, as it does in a PSD form, or the form is indefinite."""
    factor = np.zeros_like(gram)
    schur = np.zeros(len(gram))
    diags = gram.diagonal().real
    kept = []
    for k, word in enumerate(words):
        col = gram[k:, k] - factor[k:, :k] @ factor[k, :k].conj()
        pivot = schur[k] = col[0].real
        diag = diags[k]
        if diag != 0 and abs(pivot) > pinv_tol * diag:
            if pivot < -PSD_TOL * diag:
                raise InvalidStateError(
                    f"{what} indefinite: pivot {pivot:.3e} at word {word} "
                    f"(invalid state)")
            if pivot > 0:
                factor[k:, k] = col / np.sqrt(pivot)
                kept.append(k)
                continue
            if not floor_is_relation:
                raise BudgetExceededError(
                    f"{what} pivot {pivot / diag:.2e} (relative) at degree "
                    f"{len(word)} is below double precision")
        if floor_is_relation:
            bad = np.flatnonzero(np.abs(col) ** 2 > PSD_TOL * diag * diags[k:])
            if len(bad):
                raise InvalidStateError(
                    f"{what} indefinite: the relation at word {word} has a "
                    f"Schur entry of modulus {abs(col[bad[0]]):.3e} at word "
                    f"{words[k + bad[0]]} (invalid state)")
    return factor, schur, np.array(kept, dtype=int)


def moment_matrix(phi, length=None):
    """H[u, v] = phi(u rev v) over the words of length <= ``length``, in
    graded order (a word's row is its code).  ``length`` defaults to
    max_order // 2, lowered only as ``MAX_FORM_BYTES`` forces.  The
    ``graded_cholesky`` of H, which reads its lower triangle, must find
    no violation (a pivot in the float floor, which a finite-rank state
    reaches past its rank, is a relation); the largest H read so far is
    then kept on ``phi``, and its leading blocks serve every shorter
    length."""
    if length is None:
        length = phi.max_order // 2
        while 16 * word_count(phi.nvars, length) ** 2 > MAX_FORM_BYTES:
            length -= 1
    size = word_count(phi.nvars, length) + 1
    hankel = vars(phi).get("_moment_matrix")
    if hankel is None or len(hankel) < size:
        words = words_up_to(phi.nvars, length)
        terms = [(a, (), 1.0, w, ()) for a, w in enumerate(words)]
        hankel = pairing_gather(phi, terms, terms, (size, size))
        graded_cholesky(hankel, words, "moment matrix", PINV_TOL,
                        floor_is_relation=True)
        phi._moment_matrix = hankel
    return hankel[:size, :size]


def coordinate_moments(phi):
    """(means, second): the lists phi(x_i) and phi(x_i x_j), i, j = 1..n,
    that the centering and covariance hypotheses of the solvers read."""
    n = phi.nvars
    letters = range(1, n + 1)
    values = phi.word_moments([(i,) for i in letters]
                          + [(i, j) for i in letters for j in letters])
    values = values.tolist()
    return values[:n], [values[n * i:n * (i + 1)] for i in letters]


# ---------------------------------------------------------------------------
# operator norms


@dataclass(frozen=True)
class NormEstimate:
    """Lower estimate phi(t_i^order)^(1/order) and, when available, an
    upper bound on the operator norm of the i-th coordinate."""

    coordinate: int
    order: int
    lower: float
    upper: float | None

    def best(self):
        return self.upper if self.upper is not None else self.lower


def operator_norm_estimate(phi, i, order):
    """Norm estimates for coordinate i from the moment of t_i^order.

    ``order`` must be even; a negative even moment signals an invalid
    functional.  The upper estimate comes from ``phi.norm_upper`` when
    the backend provides one (support edge or sampled spectral norm).
    """
    if order % 2 != 0 or order <= 0:
        raise ValueError("order must be a positive even integer")
    phi.check_order(order)
    m = phi.moment((i,) * order)
    if m.real < -1e-10:
        raise InvalidStateError(
            f"negative even moment phi(t_{i}^{order}) = {m.real}"
        )
    lower = max(m.real, 0.0) ** (1.0 / order)
    upper = None
    if phi.norm_upper is not None:
        upper = phi.norm_upper[i - 1]
    return NormEstimate(coordinate=i, order=order, lower=lower, upper=upper)


# ---------------------------------------------------------------------------
# validation


def validate_state(phi):
    """Return a list of violated invariant descriptions (empty if valid).

    Checks the unit moment, up to ``HERM_TOL``, and positivity on every
    pair of words of length <= max_order // 2 (as ``MAX_FORM_BYTES``
    allows): the pivots of ``moment_matrix`` and the Schur columns of
    its relations.  Tables and specs check Hermitian symmetry and
    traciality on every stored word when built.
    """
    problems = []
    unit = phi.moment(())
    if abs(unit - 1.0) > HERM_TOL:
        problems.append(f"unit moment is {unit}, expected 1")
    try:
        moment_matrix(phi)
    except InvalidStateError as exc:
        problems.append(str(exc))
    return problems


def check_state(phi):
    """Raise InvalidStateError when ``validate_state`` finds violations."""
    problems = validate_state(phi)
    if problems:
        raise InvalidStateError(
            "state failed validation: " + "; ".join(problems),
            violations=problems,
        )


# ---------------------------------------------------------------------------
# builtin states


def semicircular(nvars=1, max_order=12):
    """Free standard semicircular family: kappa(i, i) = 1, all else 0.

    Moments of t_i^{2m} are the Catalan numbers; the operator norm of
    each coordinate is exactly 2 (support edge), recorded as the upper
    norm estimate.
    """
    kappa = {(i, i): 1.0 for i in range(1, nvars + 1)}
    spec = CumulantSpec(nvars, kappa, max_order=max_order)
    return CumulantState(spec, norm_upper=(2.0,) * nvars)


def centered_free_poisson(nvars=1, max_order=12):
    """Centered free Poisson coordinates, free from each other.

    Per coordinate kappa_m = 1 for every m >= 2 (the law of g^2 - 1 for
    a standard semicircular g); mixed cumulants vanish.  Support is
    [-1, 3], so the norm upper estimate is 3.
    """
    kappa = {}
    for i in range(1, nvars + 1):
        for m in range(2, max_order + 1):
            kappa[(i,) * m] = 1.0
    spec = CumulantSpec(nvars, kappa, max_order=max_order)
    return CumulantState(spec, norm_upper=(3.0,) * nvars)
