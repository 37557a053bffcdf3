"""Moment functionals (noncommutative distributions) and their pairings.

A state is determined by its word moments phi(t_{i1}...t_{im}), read by
the integer codes of the words (``word_codes``).  Both backends store
one value per class of words whose values agree up to conjugation, by
one class rule on codes, ``canonical_codes``, and read a batch of codes
by one gather through one class index per letters and mode, bracelet
or reversal classes, grown only as far as batches pay for; past it, a
code is canonicalized once per distinct code:

* ``MomentTable`` -- explicit moments up to a max order, by the sorted
  codes of its stored words, a bracelet table's one per class;
* ``CumulantState`` -- moments generated from a ``CumulantSpec`` of free
  cumulants by the moment-cumulant formula, grouped by the block B of
  the first letter: ``phi(w) = sum over B of kappa(w|B) * prod over the
  gaps of B of phi(gap)``, evaluated once per class (bracelet classes
  when the spec is ``cyclic``, else reversal classes) with the blocks'
  cumulants and the gaps both read by code.  ``moments_to_cumulants``
  solves the recursion for kappa.

(The Monte Carlo backend, ``matrixmodels``, produces a ``MomentTable``.)

On top of a state: ``moment_of_poly`` phi(p(X)), ``tensor_moment``
(phi (x) phi)(q(X)), ``inner_tuple`` <p, r> = sum_i phi(p_i r_i*) and
``inner_matrix`` <A, B> = (phi (x) phi) Tr(A # B*), linear in the first
slot and conjugate-linear in the second, and the Gram assemblies of the
Stein and Poincare solvers.  The inner products and every Gram over
words are one numpy gather, ``pairing_gather``: with the sharp product
(p1 (x) p2) # (q1 (x) q2) = p1 q1 (x) q2 p2,

    <p (x) q, u (x) v> = phi(p rev u) * phi(rev v q),

and both factors are entries of the moment matrix H[u, v] = phi(u rev v).
Its terms are integer arrays keyed by word code (``Terms``,
``jacobian_terms``, ``tensor_terms``); it reads the H that
``moment_matrix`` caches on a validated state where that covers the
legs, and asks the state for the rest in one ``code_moments`` batch by
pair code code(u rev v) = code(u) n^|v| + code(rev v).  Exact ``sharp``
products are for exact output (``algebra``) and the test oracles.

Symbolic inputs are exact; evaluation is double-precision complex.  A
table is read-only and a cumulant state's classes only fill, so every
functional is safe for concurrent reads.  High-level helpers
precompute the word length they need and raise ``BudgetExceededError``
before touching the backend.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

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


# HERM_TOL is the tolerance of every Hermitian check and of the unit and
# cyclic checks; PSD_TOL and PINV_TOL are those of ``graded_cholesky``
HERM_TOL = 1e-8
PSD_TOL = 1e-8
PINV_TOL = 5e-14

# cap on the 16 m^2 bytes of a complex form over m words, which a Gram,
# its factor and inverse each take (1,092 words at n = 3, d = 6: 19 MB)
MAX_FORM_BYTES = 1 << 27


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


@functools.cache
def _code_powers(nvars, top):
    """n^k for k = 0..top as a read-only int64 array;
    ``BudgetExceededError`` when a word of length ``top`` has a code past
    64 bits (for n = 2 and 3 exactly when n^top >= 2^63)."""
    if word_count(nvars, top) > _CODE_MAX:
        longest = top - 1
        while word_count(nvars, longest) > _CODE_MAX:
            longest -= 1
        raise BudgetExceededError(
            f"words of length {top} over {nvars} letters have codes past "
            f"64 bits; the longest word coded is {longest}",
            needed=top, available=longest)
    powers = np.power(nvars, np.arange(top + 1, dtype=np.int64))
    powers.flags.writeable = False
    return powers


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
    powers = _code_powers(nvars, int(lengths.max(initial=0)))
    ends = lengths.cumsum()
    total = int(ends[-1]) if len(words) else 0
    try:
        letters = np.fromiter(itertools.chain.from_iterable(words),
                              dtype=np.int64, count=total)
    except OverflowError:  # a letter past int64
        letters = np.zeros(1, dtype=np.int64)
    if total and (letters.min() < 1 or letters.max() > nvars):
        bad = next(letter for letter in itertools.chain.from_iterable(words)
                   if not 1 <= letter <= nvars)
        raise ValueError(f"letter {bad} out of range 1..{nvars}")
    # Horner over every word at once: each letter times n to the number
    # of letters after it, summed per word as a difference of running
    # sums, which int64 wraparound leaves exact
    sums = np.zeros(total + 1, dtype=np.int64)
    np.cumsum(letters * powers[np.repeat(ends, lengths)
                               - np.arange(1, total + 1)], out=sums[1:])
    return sums[ends] - sums[ends - lengths], lengths


@functools.cache
def _offsets(nvars, top):
    """The code of (1, ..., 1) of each length 0..top as a read-only int64
    array, the sum of n^k over k < length, so that a code minus the
    offset of its length is the base-n value of its letters minus one."""
    offsets = np.concatenate(([0], np.cumsum(_code_powers(nvars, top)[:-1])))
    offsets.flags.writeable = False
    return offsets


def code_lengths(codes, nvars):
    """The lengths of the words with these codes: the number of lengths
    whose least code, the offset, is at most the code, less one."""
    top, most = 0, int(np.max(codes, initial=0))
    while word_count(nvars, top) < most:
        top += 1
    return np.searchsorted(_offsets(nvars, top), codes, side="right") - 1


def code_words(codes, nvars):
    """The words with the ascending codes ``codes``, as tuples.  Their
    lengths then ascend too, and each length is one block of the rows of
    the letter matrix."""
    lengths = code_lengths(codes, nvars)
    top = int(lengths[-1]) if len(codes) else 0
    turn = codes - _offsets(nvars, top)[lengths]
    letters = np.empty((len(codes), top), dtype=np.int64)
    for j in range(top - 1, -1, -1):
        turn, letters[:, j] = np.divmod(turn, nvars)
    letters += 1
    words, lo = [], 0
    ends = np.searchsorted(lengths, np.arange(top + 1), side="right")
    for m, hi in enumerate(ends.tolist()):
        words += map(tuple, letters[lo:hi, top - m:].tolist())
        lo = hi
    return words


def reversed_codes(codes, lengths, nvars):
    """The codes of the reversals of the words with these codes and
    lengths: their letters read back, ``top`` steps for every word and
    then divided by n once for each step past its length."""
    top = int(np.max(lengths, initial=0))
    powers = _code_powers(nvars, top)
    base = _offsets(nvars, top)[lengths]
    turn, back = codes - base, np.zeros_like(codes)
    for _ in range(top):
        rest = turn // nvars  # faster than np.divmod on small arrays
        back *= nvars
        back += turn - rest * nvars
        turn = rest
    return base + back // powers[top - lengths]


def _turns(turn, lead, nvars, steps):
    """The base-n values ``turn`` of words w, with n^(|w| - 1) = ``lead``,
    after each of ``steps`` steps that move every word's last letter to
    its front, each yielded with the letters that step moved."""
    for _ in range(steps):
        rest = turn // nvars
        last = turn - rest * nvars
        turn = rest + last * lead
        yield turn, last


def rotated_codes(codes, lengths, nvars):
    """The codes of the rotations w[k:] + w[:k], k = 1..|w| - 1, of the
    words w with these codes and lengths, word by word and in order of
    k.  Step s moves the last letter of every word to the front, which
    makes the rotation k = |w| - s."""
    top = int(np.max(lengths, initial=0))
    base = _offsets(nvars, top)[lengths]
    count = np.maximum(lengths - 1, 0)
    starts = np.cumsum(count) - count
    out = np.empty(int(count.sum()), dtype=np.int64)
    turns = _turns(codes - base, _code_powers(nvars, top)[count], nvars,
                   top - 1)
    for step, (turn, _) in enumerate(turns, 1):
        live = np.flatnonzero(lengths > step)
        out[starts[live] + lengths[live] - step - 1] = (base + turn)[live]
    return out


def code_word(code, nvars):
    """The word with code ``code``."""
    return code_words(np.array([code], dtype=np.int64), nvars)[0]


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
    its words.  Without ``bracelet`` the class is the word and its
    reversal, represented by the lesser code, as a Hermitian state that
    need not be tracial has it.  Raises ``BudgetExceededError`` as
    ``word_codes`` does.
    """
    codes = np.asarray(codes, dtype=np.int64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if not bracelet:
        back = reversed_codes(codes, lengths, nvars)
        return np.minimum(codes, back), back < codes, back == codes
    top = int(lengths.max(initial=0))
    powers = _code_powers(nvars, top)
    base = _offsets(nvars, top)[lengths]
    lead = powers[np.maximum(lengths - 1, 0)]
    # Each step moves the last letter of every word to the front, so
    # top - 1 steps pass every rotation.  The letters moved, read in
    # turn for top steps, spell the reversal followed by top - L
    # letters more, which the last division drops.
    turn = codes - base  # the base-n value of the letters minus one
    least, back = turn.copy(), np.zeros_like(turn)
    for turn, last in _turns(turn, lead, nvars, top):
        np.minimum(least, turn, out=least)
        back *= nvars
        back += last
    back //= powers[top - lengths]
    mirror = back.copy()
    for turn, _ in _turns(back, lead, nvars, top - 1):
        np.minimum(mirror, turn, out=mirror)
    return base + np.minimum(least, mirror), mirror < least, mirror == least


def bracelet_classes(nvars, max_order):
    """(representatives, closed) of the nonempty bracelet classes of the
    words of length <= ``max_order``: the representatives in
    graded-lexicographic order, and a boolean mask of the classes closed
    under reversal.  The codes 1..code(n...n) number exactly those
    words, so these are the classes of ``_class_index``, whose size the
    caller bounds."""
    reps = _class_index(nvars, True, max_order).reps[1:]
    closed = canonical_codes(reps, code_lengths(reps, nvars), nvars)[2]
    return code_words(reps, nvars), closed


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
        for letter in word:
            if not 1 <= letter <= self.nvars:
                raise ValueError(f"letter {letter} out of range 1..{self.nvars}")

    def moment(self, word):
        raise NotImplementedError

    def code_moments(self, codes, lengths):
        """phi(w) for the words w with these codes and lengths, as a
        complex array: the batch through which ``moment_matrix`` and
        ``pairing_gather`` read entries of H.  The longest word is
        checked first; the backend's ``_read`` then reads the batch."""
        lengths = np.asarray(lengths, dtype=np.int64)
        self.check_order(int(np.max(lengths, initial=0)))
        return self._read(np.asarray(codes, dtype=np.int64), lengths)

    def _read(self, codes, lengths):
        # each distinct word decoded, in code order, and read by ``moment``
        codes, inverse = np.unique(codes, return_inverse=True)
        return np.array([self.moment(w) for w in code_words(
            codes, self.nvars)], dtype=complex)[inverse]

    def word_moments(self, words):
        """phi(w) for each of ``words``, as a complex array, read by
        ``code_moments``.  A bad word raises as ``moment`` on each word
        in turn would: the first word too long or with a bad letter."""
        if max(map(len, words), default=0) > self.max_order:
            for word in words:
                self._check_word(word)
        return self.code_moments(*word_codes(words, self.nvars))


# cap on the codes of a view of a class index, 5 bytes each: every word
# over 3 letters to length 12 (797,161 codes), which a moment matrix of
# that order asks anyway
_INDEX_CAP = 1 << 20


class _ClassIndex(NamedTuple):
    """By code, the ``slot`` and ``flip`` of the words of length <=
    ``top``; by slot, the code of the representative (``reps``)."""

    top: int
    slot: np.ndarray
    flip: np.ndarray
    reps: np.ndarray


_NO_INDEX = _ClassIndex(-1, np.empty(0, dtype=np.int32),
                        np.empty(0, dtype=bool), np.empty(0, dtype=np.int64))
# the largest index built, by (nvars, bracelet), for the eight made last
_INDEXES = {}
_INDEX_LOCK = threading.Lock()


def _class_index(nvars, bracelet, top):
    """The read-only ``_ClassIndex`` of the bracelet classes when
    ``bracelet``, else the reversal classes, of the words of length <=
    ``top`` over ``nvars`` letters.  A slot is the rank of its
    representative in code order, so this is a prefix of the largest
    index built, which grows by appending the lengths it lacks."""
    size = word_count(nvars, top) + 1
    whole = _INDEXES.get((nvars, bracelet), _NO_INDEX)
    if whole.top < top:
        with _INDEX_LOCK:
            whole = _INDEXES.get((nvars, bracelet), _NO_INDEX)
            if whole.top < top:
                codes = np.arange(len(whole.slot), size, dtype=np.int64)
                keys, flip, _ = canonical_codes(
                    codes, code_lengths(codes, nvars), nvars, bracelet)
                # a key is a code of the same length, so its slot is the
                # count of the representatives up to it
                mine = keys == codes
                slot = (mine.cumsum() + len(whole.reps) - 1)[keys - codes[0]]
                whole = _ClassIndex(
                    top, np.concatenate((whole.slot, slot), dtype=np.int32),
                    np.concatenate((whole.flip, flip)),
                    np.concatenate((whole.reps, codes[mine])))
                for array in whole[1:]:
                    array.flags.writeable = False
            _INDEXES[nvars, bracelet] = whole
            if len(_INDEXES) > 8:
                del _INDEXES[next(iter(_INDEXES))]
    return _ClassIndex(top, whole.slot[:size], whole.flip[:size],
                       whole.reps[:np.searchsorted(whole.reps, size)])


def _grown_index(index, nvars, bracelet, lengths):
    """``index``, or the longer view a batch of words of these lengths
    pays for: to the longest m for which it asks as many words of
    lengths top < l <= m as the built index lacks codes up to m (a code
    costs about as much to build as to canonicalize), within
    ``_INDEX_CAP`` codes."""
    asked = np.cumsum(np.bincount(lengths))
    built = _INDEXES.get((nvars, bracelet), _NO_INDEX).top
    have, top = word_count(nvars, max(index.top, built)), index.top
    for m in range(index.top + 1, len(asked)):
        size = word_count(nvars, m)
        if size < _INDEX_CAP and asked[m] - asked[index.top] >= size - have:
            top = m
    return index if top == index.top else _class_index(nvars, bracelet, top)


def _index_slots(index, codes, lengths, nvars, bracelet):
    """(slot, flip, far) of a batch read through ``index``: slot 0 for a
    code past it, and then far = (rest, keys, closed, repeat), the mask
    of those codes and, canonicalized once per distinct code, their
    class keys and closed flags, with the inverse that spreads them."""
    rest = codes >= len(index.slot)
    if not rest.any():
        return index.slot[codes], index.flip[codes], None
    at = np.where(rest, 0, codes)
    slot, flip = index.slot[at], index.flip[at]
    codes, first, repeat = np.unique(codes[rest], return_index=True,
                                     return_inverse=True)
    keys, turned, closed = canonical_codes(codes, lengths[rest][first], nvars,
                                           bracelet)
    flip[rest] = turned[repeat]
    return slot, flip, (rest, keys, closed, repeat)


class MomentTable(MomentFunctional):
    """Explicit moment table; absent words within the order budget are 0.

    The table keeps the sorted codes of its stored words (see
    ``word_codes``) with their values, and with their standard errors
    when ``stderr`` maps words to Monte Carlo standard errors.  A
    word-list table stores every word and needs no class index: a code
    is looked up in the stored codes, an absent one reading 0.  When
    built, it raises ``InvalidStateError`` unless each stored word's
    reversal reads its conjugate and, when ``tracial``, each rotation
    its value, within ``HERM_TOL``.  Values must be finite.

    A table built by ``from_bracelets`` stores one word per bracelet
    class and is never expanded: a word reads the value of its class,
    conjugated when flipped, by one gather, slot -> position -> value,
    through a view of the bracelet class index (``_grown_index``) and
    one int32 position per slot into the stored values, -1 if absent.
    A code past the view looks its class key up in the stored codes.
    The view is published with its positions by one assignment, so
    concurrent reads stay safe.  ``moment`` is a batch of one word;
    ``stored`` gives the stored words, values and standard errors.
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
        table = cls.__new__(cls)
        MomentFunctional.__init__(table, nvars, max_order, True, norm_upper)
        table._store(values, stderr, bracelet=True)
        return table

    def _store(self, entries, stderr, bracelet):
        self.bracelet = bracelet
        entries = {tuple(w): complex(v) for w, v in entries.items()}
        entries.setdefault((), 1.0 + 0j)
        self._values = self._sorted(entries, complex)
        self._errors = self._sorted(stderr, float) if stderr else None
        # each stored value and its conjugate, then the 0s of position -1
        values = self._values[1]
        self._cells = np.append(np.stack((values, values.conj()), 1), [0, 0])
        if bracelet:  # slot 0, the empty word's, holds the first value
            self._view = _class_index(self.nvars, True, 0), np.int32([0])

    def _check_symmetry(self):
        # reversals, conjugated, then the rotations of each word when
        # tracial, read in one batch; the first failure is reported
        codes = self._values[0]
        lengths = code_lengths(codes, self.nvars)
        asked = [reversed_codes(codes, lengths, self.nvars)]
        owners = [np.arange(len(codes))]
        if self.tracial:
            asked.append(rotated_codes(codes, lengths, self.nvars))
            owners.append(np.repeat(owners[0], np.maximum(lengths - 1, 0)))
        asked, owners = np.concatenate(asked), np.concatenate(owners)
        read = self._cells[2 * self._positions(asked)
                           + (np.arange(len(asked)) < len(codes))]
        values = self._values[1][owners]
        bad = np.flatnonzero(np.abs(read - values) > HERM_TOL)
        if bad.size:
            k, flip = bad[0], bool(bad[0] < len(codes))
            raise InvalidStateError(
                f"{'Hermitian symmetry' if flip else 'traciality'} fails: "
                f"phi({list(code_word(codes[owners[k]], self.nvars))}) = "
                f"{complex(values[k])} but {'conj ' * flip}"
                f"phi({list(code_word(asked[k], self.nvars))}) = "
                f"{complex(read[k])}")

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

    def _read(self, codes, lengths):
        if not self.bracelet:
            return self._cells[2 * self._positions(codes)]
        index, pos = self._view
        grown = _grown_index(index, self.nvars, True, lengths)
        if grown is not index:
            self._view = index, pos = grown, np.concatenate((
                pos, self._positions(grown.reps[len(pos):])))
        slot, flip, far = _index_slots(index, codes, lengths, self.nvars, True)
        at = pos[slot]
        if far is not None:
            rest, keys, _, repeat = far
            at[rest] = self._positions(keys)[repeat]
        return self._cells[2 * at + flip]

    def _positions(self, keys):
        """The int32 position of each code of ``keys`` among the stored
        codes, -1 where it is absent."""
        stored = self._values[0]
        # a binary search over sorted keys is several times faster
        order = np.argsort(keys)
        at = np.empty(len(keys), dtype=np.int32)
        at[order] = np.searchsorted(stored, keys[order])
        np.minimum(at, len(stored) - 1, out=at)
        return np.where(stored[at] == keys, at, np.int32(-1))

    def moment(self, word):
        return complex(self.word_moments((tuple(word),))[0])

    def stored(self):
        """(values, stderr): maps from the stored words, class
        representatives for a bracelet table, to their values and
        standard errors (None without), in graded-lexicographic order."""
        return (self._words(*self._values),
                None if self._errors is None else self._words(*self._errors))

    def _words(self, codes, values):
        return dict(zip(code_words(codes, self.nvars), values.tolist()))


# cap on CumulantSpec.max_order: a dense spec costs up to 2^(m-1) block
# choices for each new class of words of length m
MAX_CUMULANT_ORDER = 16
# classes whose subword keys ``_class_parts`` forms at once
_GAP_ROWS = 1 << 12
# _TRI[b] + a - 1 is the place of the subword w[a:b], 1 <= a <= b, in
# the gap list ``_first_block_sum`` reads
_TRI = tuple(b * (b - 1) // 2 for b in range(MAX_CUMULANT_ORDER + 2))
# the value of a class not yet evaluated
_MISSING = complex(math.nan, math.nan)


@dataclass(frozen=True)
class CumulantSpec:
    """Free cumulant values kappa(i1,...,im) indexed by words.

    Words absent from ``kappa`` have cumulant 0.  ``max_order`` caps the
    word length the induced moment functional will evaluate (it bounds
    the moment recursion, not the stored words, whose codes must fit in
    64 bits).  ``words`` and ``values`` list the nonzero cumulants, and
    ``blocks`` maps their codes to their positions and the codes of
    their other prefixes to -1 (``_block_codes``).  Letters, finiteness,
    Hermitian symmetry and cyclicity are checked on the word codes at
    once.  A kappa(w) more than ``HERM_TOL`` from conj kappa(rev w)
    raises ``InvalidStateError``; each word stores the exactly Hermitian
    part (kappa(w) + conj kappa(rev w)) / 2, which is kappa(w) when that
    already is.  ``cyclic`` says kappa(w[-1:] + w[:-1]) == kappa(w)
    exactly; rotation permutes the noncrossing partitions and rotates
    block subwords, so cyclic cumulants induce a tracial state.
    """

    nvars: int
    kappa: dict
    max_order: int = 12

    def __post_init__(self):
        n = self.nvars
        if n < 1:
            raise ValueError("nvars must be >= 1")
        if not 1 <= self.max_order <= MAX_CUMULANT_ORDER:
            raise ValueError(f"max_order must lie in 1..{MAX_CUMULANT_ORDER}")
        words = [tuple(w) for w in self.kappa]
        if not all(words):
            raise ValueError("cumulant words must be nonempty")
        codes, lengths = word_codes(words, n)
        values = np.fromiter(map(complex, self.kappa.values()), dtype=complex,
                             count=len(words))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise ValueError(f"cumulant of word {list(words[bad[0]])} is not "
                             f"finite, got {complex(values[bad[0]])}")
        keep = values != 0
        words = list(itertools.compress(words, keep.tolist()))
        codes, lengths, values = codes[keep], lengths[keep], values[keep]
        back = _values_at(codes, values, reversed_codes(codes, lengths, n))
        if (values != back.conj()).any():
            words, values = _hermitian_parts(words, values.tolist())
            codes, lengths = word_codes(words, n)
        # one-step rotations w[-1:] + w[:-1], which generate every rotation
        top = int(lengths.max(initial=0))
        base = _offsets(n, top)[lengths]
        turn = next(_turns(codes - base, _code_powers(n, top)[
            np.maximum(lengths - 1, 0)], n, 1))[0]
        turned = _values_at(codes, values, base + turn)
        self._set(kappa=dict(zip(words, values.tolist())), words=tuple(words),
                  values=values, blocks=_block_codes(codes, n),
                  cyclic=bool((turned == values).all()))

    def _set(self, **fields):
        fields["values"].flags.writeable = False
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def value(self, word):
        return self.kappa.get(tuple(word), 0j)

    def _scaled(self, factor):
        """The spec of factor(|w|) kappa(w) for a real positive
        ``factor``: the same words, ``blocks`` and ``cyclic``, one array
        of new values.  A value that underflows to 0 leaves ``kappa`` and
        stays in ``blocks``, read as 0."""
        lengths = np.fromiter(map(len, self.words), dtype=np.int64,
                              count=len(self.words))
        scale = [factor(m) for m in range(lengths.max(initial=0) + 1)]
        values = self.values * np.array(scale)[lengths]
        spec = object.__new__(type(self))
        spec._set(nvars=self.nvars, max_order=self.max_order,
                  kappa={w: v for w, v in zip(self.words, values.tolist())
                         if v},
                  words=self.words, values=values, blocks=self.blocks,
                  cyclic=self.cyclic)
        return spec


def _values_at(codes, values, asked):
    """The values of the ``asked`` codes among ``codes``, 0 where absent."""
    if not len(codes):
        return np.zeros(asked.shape, dtype=complex)
    order = np.argsort(codes)
    at = order[np.minimum(np.searchsorted(codes, asked, sorter=order),
                          len(codes) - 1)]
    return np.where(codes[at] == asked, values[at], 0)


def _hermitian_parts(words, values):
    """(words, values) of the nonzero Hermitian parts of the cumulants,
    formed word by word in order; a pair more than ``HERM_TOL`` apart
    raises ``InvalidStateError``."""
    clean = dict(zip(words, values))
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
    return list(kappa), np.array(list(kappa.values()), dtype=complex)


@functools.lru_cache(maxsize=8)
def _class_parts(nvars, bracelet, top):
    """What the cumulant recursion reads of the classes of
    ``_class_index(nvars, bracelet, top)``, by slot: the representative's
    word, whether its class is ``closed``, and the keys 2 slot + flip of
    its subwords (``_subword_codes``), an empty one's 1.  Tables never
    build it."""
    index = _class_index(nvars, bracelet, top)
    reps = index.reps
    lengths = code_lengths(reps, nvars)
    closed = canonical_codes(reps, lengths, nvars, bracelet)[2]
    gaps = np.ones((len(reps), _TRI[top + 1]), dtype=np.int32)
    for lo in range(0, len(reps), _GAP_ROWS):
        sub = _subword_codes(reps[lo:lo + _GAP_ROWS],
                             lengths[lo:lo + _GAP_ROWS], nvars)[0]
        gaps[lo:lo + _GAP_ROWS, :sub.shape[1]] = np.maximum(
            2 * index.slot[sub] + index.flip[sub], 1)
    gaps.flags.writeable = False
    return code_words(reps, nvars), closed.tolist(), gaps


def _subword_codes(codes, lengths, nvars):
    """(codes, lengths) of the subwords w[a:b], 1 <= a <= b <= T, of the
    words w with these codes and lengths, T the longest: one row per
    word, by b and then a, whose first |w| (|w| + 1) / 2 are w's own and
    the rest 0.  code(w[a:b]) = code(w[:b]) - code(w[:a]) n^(b - a), and
    the prefix w[:j] is the offset of length j plus t // n^(|w| - j), t
    the base-n value of w's letters minus one."""
    top = int(np.max(lengths, initial=0))
    powers, offsets = _code_powers(nvars, top), _offsets(nvars, top)
    ends = np.repeat(np.arange(1, top + 1), np.arange(1, top + 1))
    starts = np.arange(len(ends)) - ends * (ends - 1) // 2 + 1
    short = lengths[:, None] - np.arange(top + 1)
    prefix = offsets + ((codes - offsets[lengths])[:, None]
                        // powers[np.maximum(short, 0)])
    sub = prefix[:, ends] - prefix[:, starts] * powers[ends - starts]
    sub[ends > lengths[:, None]] = 0
    return sub, np.broadcast_to(ends - starts, sub.shape)


def _block_codes(codes, nvars):
    """The ``blocks`` map of cumulant words with these codes: each word's
    code to its position, and each code of a shorter nonempty prefix that
    is no word to -1.  A word's prefixes are found a letter at a time,
    code(w[:-1]) = (code(w) - 1) // n, up to the first already found."""
    blocks = {}
    for code in codes.tolist():
        code = (code - 1) // nvars
        while code and code not in blocks:
            blocks[code] = -1
            code = (code - 1) // nvars
    blocks.update(zip(codes.tolist(), range(len(codes))))
    return blocks


class CumulantState(MomentFunctional):
    """Moment functional generated by free cumulants.

    Reversal maps NC(m) to itself and a spec's cumulants are exactly
    Hermitian, so phi(rev w) = conj phi(w); a ``cyclic`` spec's phi is
    also tracial.  The state keeps one value per class, bracelet classes
    for a cyclic spec and reversal classes otherwise, read by word code
    through a view of the class index of that mode (``_grown_index``): a
    class in the view by its slot, one past it by its code, copied to
    its slot when the view grows over it.  A class is evaluated once, on
    its representative, by ``_first_block_sum``, its gap subwords read
    by key (``_class_parts``) or, past the view, by code, a missing one
    evaluated first.  A batch is one gather; its missing classes are
    evaluated in code order, each through ``moment``, so a wrapper of
    ``moment`` sees one call per class.  ``_memo`` is a read-only view
    of the evaluated classes.  Reads take no lock: a value is stored
    after its conjugate, and the view and values only grow, under the
    lock.
    """

    def __init__(self, spec, norm_upper=None):
        super().__init__(spec.nvars, spec.max_order, spec.cyclic, norm_upper)
        self.spec = spec
        self._kappa = spec.values.tolist()
        # the value and conjugate of each class slot; slot 0 is the empty
        # word, whose conjugate place holds the float 1.0 of an empty gap
        self._both = [1.0 + 0j, 1.0]
        self._index = _class_index(self.nvars, spec.cyclic, 0)
        self._parts = None  # ``_class_parts``, built to evaluate
        self._far = {}  # the values of classes past the view, by code
        self._jobs = {}  # the evaluations a batch hands ``moment``, by word
        self._lock = threading.Lock()

    @property
    def _memo(self):
        return _EvaluatedClasses(self)

    def moment(self, word):
        word = tuple(word)
        job = self._jobs.pop(word, None)
        if job is not None:
            return self._evaluate(job)
        self._check_word(word)
        key = self._cell(word)
        if key is None:
            return complex(self._read(*word_codes([word], self.nvars),
                                      False)[0])
        if self._both[key] is _MISSING:
            self._evaluate(key >> 1)
        return self._both[key]

    def _cell(self, word):
        """2 slot + flip of the checked ``word``'s class, None past the view."""
        code, n, index = 0, self.nvars, self._index
        for letter in word:
            code = code * n + letter
        if code < len(index.slot):
            return 2 * int(index.slot[code]) + bool(index.flip[code])
        return None

    def _read(self, codes, lengths, queue=True):
        """phi of these words; each missing class is evaluated, in code
        order, by ``moment`` on its representative with the evaluation
        queued, or at once without ``queue``."""
        n, cyclic = self.nvars, self.spec.cyclic
        index = _grown_index(self._index, n, cyclic, lengths)
        self._grow(index)
        slot, flip, far = _index_slots(index, codes, lengths, n, cyclic)
        found = self._gather(slot)
        jobs = [(self._class(s)[0], s)
                for s in sorted(set(slot[np.isnan(found)].tolist()))]
        if far is not None:
            rest, keys, closed, repeat = far
            for key, shut in sorted(set(zip(keys.tolist(), closed.tolist()))):
                if self._class_value(key) is _MISSING:
                    word = code_word(key, n)
                    jobs.append((word, functools.partial(
                        self._evaluate_far, word, key, shut)))
        for word, job in jobs:
            if queue:
                self._jobs[word] = job
                self.moment(word)
            else:
                self._evaluate(job)
        if jobs:
            found = self._gather(slot)
        if far is not None:
            found[rest] = np.array(list(map(self._class_value,
                                            keys.tolist())))[repeat]
        np.conjugate(found, out=found, where=flip)
        return found

    def _gather(self, slot):
        """The values of these class slots; a batch of fewer slots than
        half the classes reads them one by one, not through a copy of
        every value."""
        both = self._both
        if 4 * len(slot) < len(both):
            return np.array([both[2 * s] for s in slot.tolist()], dtype=complex)
        return np.array(both[::2])[slot]

    def _grow(self, index):
        """Publish a longer view ``index``, copying far classes it covers."""
        with self._lock:
            if index.top > self._index.top:
                self._both += [_MISSING, _MISSING] * (len(index.reps)
                                                      - len(self._both) // 2)
                for code, value in self._far.items():
                    if code < len(index.slot):
                        self._put(int(index.slot[code]), value)
                self._index = index

    def _put(self, slot, value):
        both = self._both
        both[2 * slot + 1] = value.conjugate()
        both[2 * slot] = value

    def _class(self, slot):
        """(representative, closed, keys of its subwords) of a slot."""
        parts = self._parts
        if parts is None or slot >= len(parts[0]):
            # those of the process's index, which the view is a prefix of
            key = self.nvars, self.spec.cyclic
            top = min(_INDEXES.get(key, _NO_INDEX).top, self.max_order)
            parts = self._parts = _class_parts(*key, max(top, self._index.top))
        word = parts[0][slot]
        return word, parts[1][slot], parts[2][slot, :_TRI[len(word) + 1]]

    def _class_value(self, code):
        """The value of the class whose representative has code ``code``,
        ``_MISSING`` before it is evaluated."""
        index = self._index
        if code < len(index.slot):
            return self._both[2 * int(index.slot[code])]
        return self._far.get(code, _MISSING)

    def _evaluate(self, slot):
        if callable(slot):  # the evaluation of a class past the view
            return slot()
        word, closed, keys = self._class(slot)
        keys = keys.tolist()
        both = self._both
        gaps = [both[key] for key in keys]
        if _MISSING in gaps:  # shorter classes, evaluated first
            for key in keys:
                if both[key] is _MISSING:
                    self._evaluate(key >> 1)
            gaps = [both[key] for key in keys]
        value = self._sum(word, closed, gaps)
        self._put(slot, value)
        return value

    def _evaluate_far(self, word, code, closed):
        # the gaps read by code, an empty one as the float 1.0
        sub, sizes = _subword_codes(np.array([code]), np.array([len(word)]),
                                    self.nvars)
        gaps = self._read(sub[0], sizes[0], False).tolist()
        value = self._sum(word, closed, [gap if size else 1.0 for gap, size
                                         in zip(gaps, sizes[0].tolist())])
        with self._lock:
            self._far[code] = value
            if code < len(self._index.slot):  # the view grew over it
                self._put(int(self._index.slot[code]), value)
        return value

    def _sum(self, word, closed, gaps):
        value = _first_block_sum(self.spec.blocks, self._kappa, self.nvars,
                                 word, gaps)
        if not (math.isfinite(value.real) and math.isfinite(value.imag)):
            raise BudgetExceededError(
                f"moment of word {list(word)} overflows double precision")
        return complex(value.real) if closed else value


class _EvaluatedClasses:
    """``word in view`` says whether the class of ``word`` holds its
    value in ``state``, and ``len(view)`` counts those classes, the
    empty word's included; neither grows the view nor stores a value."""

    def __init__(self, state):
        self._state = state

    def __contains__(self, word):
        state, word = self._state, tuple(word)
        try:
            state._check_word(word)
            key = state._cell(word)
            if key is None:  # past the view, by the code of its class
                code = canonical_codes(*word_codes([word], state.nvars),
                                       state.nvars, state.spec.cyclic)[0]
                return state._class_value(int(code[0])) is not _MISSING
        except (ValueError, BudgetExceededError):
            return False
        return state._both[key] is not _MISSING

    def __len__(self):
        state = self._state
        return (sum(value is not _MISSING for value in state._both[::2])
                + sum(code >= len(state._index.slot) for code in state._far))


def _first_block_sum(blocks, kappa, nvars, word, gaps):
    """Sum over blocks B holding position 0 of the nonempty ``word``:
    kappa(word|B) times the product of the moments of the gaps B leaves.

    ``blocks`` (``_block_codes``) maps a block's word code to its place
    in ``kappa``, -1 for none; ``gaps`` holds phi(word[a:b]) at
    ``_TRI[b] + a - 1``, 1.0 if a = b.  This is the moment-cumulant
    formula grouped by the block of the first letter (Nica-Speicher,
    Lecture 11), walked depth first, the least next position first: a
    block of code c grows by position q to code c n + word[q], and is
    dropped where that code is not in ``blocks`` or a gap reads 0.
    """
    m, tri = len(word), _TRI
    total = 0j
    tail = tri[m]
    first = blocks.get(word[0])
    # (code of the block's word, its position in kappa, the position of
    # its last letter, product of the block's inner gaps)
    stack = [(word[0], first, 0, 1.0 + 0j)] if first is not None else []
    pop, push, get = stack.pop, stack.append, blocks.get
    while stack:
        code, at, last, acc = pop()
        value = kappa[at] if at >= 0 else 0
        if value:
            total += value * acc * gaps[tail + last]
        code *= nvars
        for q in range(m - 1, last, -1):
            gap = gaps[tri[q] + last]
            if gap:
                child = code + word[q]
                at = get(child)
                if at is not None:
                    push((child, at, q, acc * gap))
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
    length, reading each word and its subwords in one batch.  Inverse of
    ``cumulants_to_moment`` up to double-precision rounding.
    """
    phi.check_order(max_order)
    if max_order > MAX_CUMULANT_ORDER:
        raise ValueError(f"max_order must lie in 1..{MAX_CUMULANT_ORDER}")
    n, words, values = phi.nvars, [], []
    for m in range(1, max_order + 1):
        blocks = _block_codes(word_codes(words, n)[0], n)  # shorter only
        spans = [(a, b) for b in range(1, m + 1) for a in range(1, b + 1)]
        for word in itertools.product(range(1, n + 1), repeat=m):
            read = phi.word_moments([word] + [word[a:b] for a, b in spans])
            gaps = [1.0 if a == b else g
                    for (a, b), g in zip(spans, read[1:].tolist())]
            val = complex(read[0]) - _first_block_sum(blocks, values, n, word,
                                                      gaps)
            if val != 0:
                words.append(word)
                values.append(val)
    return CumulantSpec(n, dict(zip(words, values)), max_order=max_order)


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


class Terms(NamedTuple):
    """``pairing_gather`` terms as arrays.  Term e stands for
    ``coef[e]`` (l_e (x) r_e) in row ``owner[e]`` and pairs only with
    terms of its ``key``; ``left`` holds code(l_e) and ``back`` holds
    code(rev r_e)."""

    owner: np.ndarray
    key: np.ndarray
    coef: np.ndarray
    left: np.ndarray
    back: np.ndarray


def pairing_gather(phi, left, right, shape):
    """M[x, y] = sum of c_e conj(c_f) phi(l_e rev(l_f)) phi(rev(r_f) r_e)
    over the ``Terms`` e of row x in ``left`` and f of row y in ``right``
    that share a key, summed key by key in the order the keys first
    appear, then in term order; ``shape`` is (rows of ``left``, rows of
    ``right``).

    Each pair is the pairing
    <l_e (x) r_e, l_f (x) r_f> = phi(l_e rev(l_f)) phi(rev(r_f) r_e), and
    both factors are entries of H[u, v] = phi(u rev v), H[l_e, l_f] and
    H[rev r_f, rev r_e].  They are read from the moment matrix cached on
    ``phi`` when it covers every leg, else from ``_hankel_block`` over
    the distinct legs, after the budget is checked for the longest pair
    of legs that some key pairs.  Each key's left terms meet its right
    terms in blocks of about ``_GATHER_BLOCK`` pairs.
    """
    # the keys numbered in the order they first appear
    order = np.fromiter(dict.fromkeys(left.key.tolist() + right.key.tolist()),
                        dtype=np.int64)
    rank = np.argsort(order)
    kl, kr = (rank[np.searchsorted(order, side.key, sorter=rank)]
              for side in (left, right))
    sides = (left.left, left.back, right.left, right.back)
    codes = np.concatenate(sides)
    cuts = np.cumsum([0] + [len(side) for side in sides])
    hankel = vars(phi).get("_moment_matrix", _NO_MATRIX)
    if codes.max(initial=0) >= len(hankel):
        legs, codes = np.unique(codes, return_inverse=True)
        # which legs meet which keys on each side; u meets v through a
        # key in H[l_e, l_f] (sides 0, 2) and H[rev r_f, rev r_e] (3, 1)
        meets = np.zeros((4, len(order), len(legs)), dtype=bool)
        for side, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
            meets[side, kl if side < 2 else kr, codes[lo:hi]] = True
        hankel = _hankel_block(phi, legs, meets[0].T @ meets[2]
                               | meets[3].T @ meets[1])
    width = len(hankel)
    hankel = hankel.ravel()
    la, ra, lb, rb = (codes[lo:hi] for lo, hi in zip(cuts, cuts[1:]))
    # unit coefficients, as the Jacobian terms have, change no product
    scaled = not ((left.coef == 1).all() and (right.coef == 1).all())

    # the terms sorted by key, in term order within a key; each key's
    # left terms meet its right terms in blocks
    el, fr = np.argsort(kl, kind="stable"), np.argsort(kr, kind="stable")
    oa, ca, ia, ja = left.owner[el], left.coef[el], la[el] * width, ra[el]
    ob, cb, ib, jb = (right.owner[fr], right.coef[fr].conj(), lb[fr],
                      rb[fr] * width)
    nl, nr = (np.bincount(side, minlength=len(order)) for side in (kl, kr))
    rows, cols = shape
    out = np.zeros(rows * cols, dtype=complex)
    for lo, hi, fo, fi in zip(*(bound.tolist() for bound in (
            np.cumsum(nl) - nl, np.cumsum(nl), np.cumsum(nr) - nr,
            np.cumsum(nr)))):
        if fo == fi:
            continue
        f = slice(fo, fi)
        step = max(1, _GATHER_BLOCK // (fi - fo))
        for start in range(lo, hi, step):
            e = slice(start, min(start + step, hi))
            prod = hankel.take(ia[e, None] + ib[f])
            if scaled:
                prod *= ca[e, None]
                prod *= cb[f]
            prod *= hankel.take(ja[e, None] + jb[f])
            np.add.at(out, (oa[e, None] * cols + ob[f]).ravel(), prod.ravel())
    return out.reshape(rows, cols)


# the moment matrix of a state that has none cached
_NO_MATRIX = np.zeros((0, 0), dtype=complex)


def _hankel_block(phi, legs, needed):
    """M[i, j] = H[u, v] = phi(u rev v) for the words u, v with codes
    ``legs[i]``, ``legs[j]`` wherever ``needed[i, j]``, once the budget is
    checked for the longest such pair: read from the moment matrix
    cached on ``phi`` where it covers both words, the rest asked of
    ``phi`` in one ``code_moments`` batch by the codes
    code(u) n^|v| + code(rev v)."""
    lengths = code_lengths(legs, phi.nvars)
    sizes = lengths[:, None] + lengths
    phi.check_order(int(sizes[needed].max(initial=0)))
    block = np.zeros(needed.shape, dtype=complex)
    cached = vars(phi).get("_moment_matrix", _NO_MATRIX)
    if len(cached):
        covered = np.flatnonzero(legs < len(cached))
        inner = legs[covered]
        block[covered[:, None], covered] = cached[inner[:, None], inner]
        needed[covered[:, None], covered] = False
    us, vs = np.nonzero(needed)
    if len(us):
        sizes = sizes[us, vs]
        # checked before the codes of the pairs are formed
        powers = _code_powers(phi.nvars, int(sizes.max()))
        back = reversed_codes(legs, lengths, phi.nvars)
        block[us, vs] = phi.code_moments(
            legs[us] * powers[lengths[vs]] + back[vs], sizes)
    return block


def tensor_terms(entries, nvars):
    """``Terms`` of the (owner, key, terms) triples ``entries``, where
    ``terms`` maps leg pairs (a, b) to the coefficient of a (x) b, as
    ``TensorPoly.terms`` does.  Each leg a and reversed leg rev b is
    coded once, all in one batch."""
    owner, key, coef, lefts, backs = [], [], [], [], []
    for row, tag, terms in entries:
        owner += [row] * len(terms)
        key += [tag] * len(terms)
        coef += map(complex, terms.values())
        for a, b in terms:
            lefts.append(a)
            backs.append(b[::-1])
    codes = word_codes(lefts + backs, nvars)[0]
    return Terms(np.array(owner, dtype=np.int64), np.array(key, dtype=np.int64),
                 np.array(coef, dtype=complex), codes[:len(lefts)],
                 codes[len(lefts):])


def jacobian_terms(codes, lengths, nvars):
    """``Terms`` of the Jacobian rows of the monomials with these codes
    and lengths: w[:k] (x) w[k+1:] of d_{w[k]} w, owned by the index of w
    and keyed by the letter w[k], for every word and position at once.
    With t the base-n value of w's letters minus one, the prefix w[:k]
    is the quotient of t by n^(|w| - k), the letter w[k] the next digit,
    and rev(w[k+1:]), the prefix of rev w of length |w| - k - 1, the
    quotient of the value of rev w by n^(k + 1)."""
    top = int(np.max(lengths, initial=0))
    powers = _code_powers(nvars, top)
    base = _offsets(nvars, top)
    owner = np.repeat(np.arange(len(codes)), lengths)
    size = lengths[owner]
    k = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    turn = (codes - base[lengths])[owner]
    back = (reversed_codes(codes, lengths, nvars) - base[lengths])[owner]
    return Terms(owner, turn // powers[size - 1 - k] % nvars + 1,
                 np.ones(len(owner), dtype=complex),
                 base[k] + turn // powers[size - k],
                 base[size - 1 - k] + back // powers[k + 1])


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
        return tensor_terms([(0, i, {(w, ()): c for w, c in p.terms.items()})
                             for i, p in enumerate(tup)], phi.nvars)

    return complex(pairing_gather(phi, terms(ps), terms(rs), (1, 1))[0, 0])


def inner_matrix(phi, a, b):
    """<A, B> = (phi (x) phi) Tr(A # B*) = sum_ij (phi (x) phi)(A_ij # B_ij*)."""
    if a.size != b.size or a.nvars != b.nvars:
        raise ValueError("kernel matrix mismatch")
    if a.nvars != phi.nvars:
        raise ValueError("tensor/state nvars mismatch")

    def terms(k):
        return tensor_terms([(0, i * k.size + j, q.terms)
                             for i, row in enumerate(k.rows)
                             for j, q in enumerate(row)], phi.nvars)

    return complex(pairing_gather(phi, terms(a), terms(b), (1, 1))[0, 0])


# ---------------------------------------------------------------------------
# Gram assemblies shared by the Stein and Poincare solvers


def dirichlet_gram(phi, words):
    """Hermitian Gram of Jacobian rows over monomial words.

    G[a, b] = sum_i (phi (x) phi)( d_i(w_b) # (d_i(w_a))* ), so that the
    Dirichlet energy of P = sum_b alpha_b w_b is alpha^H G alpha.  G is
    the transposed ``pairing_gather`` of the Jacobian terms with
    themselves, whose legs are shorter than the longest word: it reads
    them from the moment matrix a validated state caches, else asks the
    state for them.  G is checked Hermitian, then its upper triangle
    copied over the lower one.
    """
    terms = jacobian_terms(*word_codes(words, phi.nvars), phi.nvars)
    gram = pairing_gather(phi, terms, terms, (len(words), len(words))).T
    # checked before the copy, which would hide the lower triangle
    _check_hermitian(gram, "Dirichlet form")
    n = len(gram)
    lower = np.tri(n, k=-1, dtype=bool)
    out = np.where(lower, gram.conj().T, gram)
    # the bytes of (U + U^H) / 2 for U the upper triangle plus the
    # conjugate transpose of the strict upper one, signed zeros
    # included: real parts and mirrored imaginary parts are never -0,
    # an upper imaginary -0 stays -0 only over a real part >= 0 (the
    # complex division by 2 subtracts re * 0), and the diagonal is real
    out.real += 0.0
    out.imag -= np.where(lower, -0.0, out.real * 0.0)
    out.imag.flat[::n + 1] = 0.0
    return out


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
    graded order (a word's row is its code), read in one ``code_moments``
    batch of the codes code(u) n^|v| + code(rev v).  ``length`` defaults
    to max_order // 2, lowered only as ``MAX_FORM_BYTES`` forces.  The
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
        phi.check_order(2 * length)
        codes = np.arange(size, dtype=np.int64)
        lengths = code_lengths(codes, phi.nvars)
        pairs = (codes[:, None] * _code_powers(phi.nvars, 2 * length)[lengths]
                 + reversed_codes(codes, lengths, phi.nvars))
        hankel = phi.code_moments(pairs.ravel(), (lengths[:, None] + lengths)
                                  .ravel()).reshape(size, size)
        # adding 0 reads each -0 as +0, the zero a sum from 0 leaves, so
        # H holds the bytes of a pairing of the monomials w (x) 1
        hankel += 0
        graded_cholesky(hankel, words_up_to(phi.nvars, length),
                        "moment matrix", PINV_TOL, floor_is_relation=True)
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
