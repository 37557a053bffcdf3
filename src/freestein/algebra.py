"""Exact symbolic algebra of noncommutative polynomials and tensor squares.

Polynomials live in the free unital *-algebra over ``n`` self-adjoint
generators ``t1..tn`` with exact complex-rational coefficients.  A word
is a tuple of 1-based generator indices; the empty tuple is the unit.
Multiplication is word concatenation, the involution reverses words and
conjugates coefficients.

The tensor square carries the bimodule actions
``p . (a (x) b) . q = (p a) (x) (b q)``, the involution
``(a (x) b)* = a* (x) b*`` and the sharp product

    (p1 (x) p2) # (q1 (x) q2) = (p1 q1) (x) (q2 p2),

which is multiplication in the algebra tensored with its opposite.  On
top of these the module provides:

* ``NcPoly`` and ``TensorPoly`` -- sparse maps from a word, or a pair
  of words, to an exact coefficient; both inherit their linear-space
  operations from one private base, ``_SparseTerms``;
* ``partial_derivative(i, p)`` -- the derivation with
  ``d_i t_j = delta_ij 1 (x) 1`` (Leibniz rule in the bimodule sense);
* ``delta(p) = p (x) 1 - 1 (x) p`` -- an inner derivation; the two are
  linked by ``delta(p) = sum_i partial_derivative(i, p) # delta(t_i)``;
* cyclic derivatives ``D_i = multiply . flip . d_i`` and gradients;
* Jacobian matrices ``(J p)_ij = d_j p_i`` over the tensor square;
* the explicit kernel ``K(v)_ij = 1/2 delta(D_i v) # delta(t_j)``.

All values are immutable after construction and every operation is a
pure function, so anything here may be shared freely between threads.
No floats enter: identities hold as dictionary equalities.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class ComplexRational:
    """Exact complex scalar with rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @classmethod
    def from_number(cls, z):
        """Coerce an int, Fraction, float, complex or ComplexRational.

        Floats convert exactly (every float is a dyadic rational).
        """
        if isinstance(z, ComplexRational):
            return z
        if isinstance(z, complex):
            return cls(Fraction(z.real), Fraction(z.imag))
        return cls(Fraction(z))

    def conjugate(self):
        return ComplexRational(self.re, -self.im)

    def __add__(self, other):
        return ComplexRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return ComplexRational(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ComplexRational(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, ComplexRational):
            other = ComplexRational.from_number(other)
        # a real factor takes two products instead of four and two sums
        if not other.im:
            return ComplexRational(self.re * other.re, self.im * other.re)
        if not self.im:
            return ComplexRational(self.re * other.re, self.re * other.im)
        return ComplexRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ComplexRational(self.re / other, self.im / other)
        return NotImplemented

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = ComplexRational(other)
        if not isinstance(other, ComplexRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}j"
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}j)"


CR_ONE = ComplexRational(1)
CR_HALF = ComplexRational(Fraction(1, 2))


def word_key(word):
    """Graded-lexicographic sort key for words."""
    return (len(word), word)


def pair_key(pair):
    """Sort key for (word, word) pairs: graded-lex on the left leg first."""
    return (word_key(pair[0]), word_key(pair[1]))


def _check_index(i, nvars):
    if not 1 <= i <= nvars:
        raise IndexError(f"generator index {i} out of range 1..{nvars}")


def _add_term(acc, key, coeff):
    cur = acc.get(key)
    acc[key] = coeff if cur is None else cur + coeff


def _prune(acc):
    return {k: v for k, v in acc.items() if v}


class _SparseTerms:
    """Sparse linear combination: key -> exact nonzero coefficient.

    The linear-space part shared by ``NcPoly`` and ``TensorPoly``: the
    canonical constructor, sums, differences, negation, products with
    scalars, equality and ``repr``.  A subclass supplies ``_key``,
    which normalizes one key and checks its letters, ``_show`` and
    ``_show_order``, which render a key and order the keys for ``repr``,
    and its own products, involution and constructors.  The stored map
    is canonical (no zero coefficients) and must never be mutated after
    construction.  Values of different subclasses never mix: their sums
    are a TypeError and they compare unequal.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        if nvars < 1:
            raise ValueError("nvars must be >= 1")
        self.nvars = nvars
        clean = {}
        for key, c in (terms or {}).items():
            key = self._key(key, nvars)
            c = ComplexRational.from_number(c)
            if c:
                clean[key] = c
        self.terms = clean

    @classmethod
    def _raw(cls, nvars, terms):
        # internal: terms already canonical
        p = object.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    def is_zero(self):
        return not self.terms

    def _check_compat(self, other):
        if self.nvars != other.nvars:
            raise ValueError("mismatched nvars")

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check_compat(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            _add_term(acc, key, c)
        return self._raw(self.nvars, _prune(acc))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._raw(self.nvars, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        c = ComplexRational.from_number(scalar)
        if not c:
            return type(self)(self.nvars)
        return self._raw(self.nvars, {k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        # scalars commute with everything
        return self.scale(other)

    __rmul__ = __mul__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(f"({self.terms[k]!r})*{self._show(k)}"
                          for k in sorted(self.terms, key=self._show_order))


def _mono(word):
    return "*".join(f"t{j}" for j in word) if word else "1"


class NcPoly(_SparseTerms):
    """Sparse noncommutative polynomial: word -> exact coefficient."""

    __slots__ = ()

    @staticmethod
    def _key(word, nvars):
        word = tuple(word)
        for letter in word:
            _check_index(letter, nvars)
        return word

    _show = staticmethod(_mono)
    _show_order = staticmethod(word_key)

    @classmethod
    def one(cls, nvars):
        return cls(nvars, {(): CR_ONE})

    @classmethod
    def gen(cls, i, nvars):
        """The generator t_i (1-based)."""
        return cls(nvars, {(i,): CR_ONE})

    @classmethod
    def monomial(cls, word, nvars, coeff=1):
        return cls(nvars, {tuple(word): coeff})

    def degree(self):
        """Largest word length, or 0 for the zero polynomial."""
        return max((len(w) for w in self.terms), default=0)

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            self._check_compat(other)
            acc = {}
            for w1, c1 in self.terms.items():
                for w2, c2 in other.terms.items():
                    _add_term(acc, w1 + w2, c1 * c2)
            return NcPoly._raw(self.nvars, _prune(acc))
        return self.scale(other)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = NcPoly.one(self.nvars)
        for _ in range(k):
            out = out * self
        return out

    def star(self):
        """Involution: reverse every word, conjugate every coefficient."""
        return NcPoly._raw(
            self.nvars, {w[::-1]: c.conjugate() for w, c in self.terms.items()}
        )


class TensorPoly(_SparseTerms):
    """Sparse element of the tensor square: (word, word) -> coefficient."""

    __slots__ = ()

    @staticmethod
    def _key(key, nvars):
        a, b = key
        key = (tuple(a), tuple(b))
        for letter in key[0] + key[1]:
            _check_index(letter, nvars)
        return key

    @staticmethod
    def _show(key):
        return f"[{_mono(key[0])} (x) {_mono(key[1])}]"

    _show_order = staticmethod(pair_key)

    @classmethod
    def one(cls, nvars):
        """The unit 1 (x) 1."""
        return cls(nvars, {((), ()): CR_ONE})

    @classmethod
    def of(cls, p, q):
        """Tensor product p (x) q of two polynomials."""
        if p.nvars != q.nvars:
            raise ValueError("mismatched nvars")
        acc = {}
        for w1, c1 in p.terms.items():
            for w2, c2 in q.terms.items():
                _add_term(acc, (w1, w2), c1 * c2)
        return cls._raw(p.nvars, _prune(acc))

    def max_leg_degree(self):
        """Largest length of a single leg over all terms (0 if zero)."""
        return max((max(len(a), len(b)) for a, b in self.terms), default=0)

    def sharp(self, other):
        """(p1 (x) p2) # (q1 (x) q2) = (p1 q1) (x) (q2 p2), bilinearly."""
        self._check_compat(other)
        acc = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                _add_term(acc, (a1 + a2, b2 + b1), c1 * c2)
        return TensorPoly._raw(self.nvars, _prune(acc))

    def star(self):
        """Involution (a (x) b)* = a* (x) b* applied legwise.

        This is an antihomomorphism for the sharp product:
        (q1 # q2)* = q2* # q1*.
        """
        return TensorPoly._raw(
            self.nvars,
            {(a[::-1], b[::-1]): c.conjugate() for (a, b), c in self.terms.items()},
        )


def partial_derivative(i, p):
    """Noncommutative derivative d_i.

    On a word t_{j1}..t_{jm} this is the sum over positions k with
    j_k = i of (prefix before k) (x) (suffix after k).
    """
    _check_index(i, p.nvars)
    acc = {}
    for w, c in p.terms.items():
        for k, letter in enumerate(w):
            if letter == i:
                _add_term(acc, (w[:k], w[k + 1:]), c)
    return TensorPoly._raw(p.nvars, _prune(acc))


def delta(p):
    """The derivation p -> p (x) 1 - 1 (x) p."""
    acc = {}
    for w, c in p.terms.items():
        _add_term(acc, (w, ()), c)
        _add_term(acc, ((), w), -c)
    return TensorPoly._raw(p.nvars, _prune(acc))


def delta_gen(i, nvars):
    """delta(t_i) = t_i (x) 1 - 1 (x) t_i."""
    return delta(NcPoly.gen(i, nvars))


def cyclic_derivative(i, p):
    """D_i = multiply . flip . d_i, an endomorphism of the polynomials."""
    _check_index(i, p.nvars)
    acc = {}
    for w, c in p.terms.items():
        for k, letter in enumerate(w):
            if letter == i:
                # flip sends prefix (x) suffix to suffix (x) prefix,
                # multiplication concatenates
                _add_term(acc, w[k + 1:] + w[:k], c)
    return NcPoly._raw(p.nvars, _prune(acc))


def cyclic_gradient(p):
    """Tuple (D_1 p, ..., D_n p)."""
    return tuple(cyclic_derivative(i, p) for i in range(1, p.nvars + 1))


def _check_tuple(ps):
    if not ps:
        raise ValueError("empty polynomial tuple")
    nvars = ps[0].nvars
    for p in ps:
        if p.nvars != nvars:
            raise ValueError("mismatched nvars in tuple")
    if len(ps) != nvars:
        raise ValueError("tuple length must equal nvars")
    return nvars


class KernelMatrix:
    """Square matrix over the tensor square (Jacobians, Stein kernels)."""

    __slots__ = ("nvars", "rows")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or any(len(r) != len(rows) for r in rows):
            raise ValueError("kernel matrix must be square and nonempty")
        nvars = rows[0][0].nvars
        for r in rows:
            for q in r:
                if q.nvars != nvars:
                    raise ValueError("mismatched nvars in kernel matrix")
        self.nvars = nvars
        self.rows = rows

    @property
    def size(self):
        return len(self.rows)

    @classmethod
    def identity(cls, nvars):
        """(1 (x) 1) I_n with matrix size n = nvars."""
        one = TensorPoly.one(nvars)
        zero = TensorPoly.zero(nvars)
        return cls(
            tuple(
                tuple(one if i == j else zero for j in range(nvars))
                for i in range(nvars)
            )
        )

    @classmethod
    def zero(cls, nvars):
        z = TensorPoly.zero(nvars)
        return cls(tuple(tuple(z for _ in range(nvars)) for _ in range(nvars)))

    def entry(self, i, j):
        return self.rows[i][j]

    def _entrywise(self, other, op):
        self._check_compat(other)
        return KernelMatrix(
            tuple(tuple(map(op, ra, rb)) for ra, rb in zip(self.rows, other.rows))
        )

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return KernelMatrix(tuple(tuple(-a for a in r) for r in self.rows))

    def scale(self, scalar):
        return KernelMatrix(tuple(tuple(a.scale(scalar) for a in r) for r in self.rows))

    def _check_compat(self, other):
        if self.size != other.size or self.nvars != other.nvars:
            raise ValueError("mismatched kernel matrices")

    def adjoint(self):
        """Transpose with legwise involution: (B*)_ij = (B_ji)*."""
        n = self.size
        return KernelMatrix(
            tuple(tuple(self.rows[j][i].star() for j in range(n)) for i in range(n))
        )

    def sharp(self, other):
        """Matrix product with sharp-multiplied entries."""
        self._check_compat(other)
        zero = TensorPoly.zero(self.nvars)
        return KernelMatrix(
            tuple(tuple(sum((a.sharp(b) for a, b in zip(row, col)), zero)
                        for col in zip(*other.rows))
                  for row in self.rows)
        )

    def __eq__(self, other):
        if not isinstance(other, KernelMatrix):
            return NotImplemented
        return self.nvars == other.nvars and self.rows == other.rows

    def __repr__(self):
        return "KernelMatrix([\n" + "\n".join(
            "  [" + ", ".join(repr(q) for q in r) + "]" for r in self.rows
        ) + "\n])"


def jacobian(ps):
    """Jacobian matrix (J p)_ij = d_j p_i for a tuple p of length n."""
    nvars = _check_tuple(ps)
    return KernelMatrix(
        tuple(
            tuple(partial_derivative(j, ps[i]) for j in range(1, nvars + 1))
            for i in range(len(ps))
        )
    )


def quadratic_potential(nvars):
    """The potential 1/2 (t_1^2 + ... + t_n^2)."""
    return NcPoly(nvars, {(i, i): CR_HALF for i in range(1, nvars + 1)})


def explicit_kernel(v):
    """The kernel with entries 1/2 delta(D_i v) # delta(t_j).

    Purely symbolic; for the quadratic potential this reduces to
    1/2 (t_i (x) 1 - 1 (x) t_i) # (t_j (x) 1 - 1 (x) t_j).  The 1/2
    sits on the two terms of delta(t_j), before the sharp product, so
    it is multiplied in once per j instead of once per product term;
    the sharp product is bilinear, so the entries are the same exactly.
    """
    n = v.nvars
    grad_deltas = [delta(cyclic_derivative(i, v)) for i in range(1, n + 1)]
    half_gen_deltas = [delta_gen(j, n).scale(CR_HALF) for j in range(1, n + 1)]
    return KernelMatrix(
        tuple(
            tuple(grad_deltas[i].sharp(half_gen_deltas[j]) for j in range(n))
            for i in range(n)
        )
    )
