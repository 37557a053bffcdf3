"""Independent oracles the production code never touches.

* set-partition enumeration with a pairwise crossing filter, giving a
  second route to noncrossing partitions and cumulant-generated moments;
* a concrete matrix model of the tensor-square algebra: the second leg
  acts through transposes, so ``a (x) b -> kron(a, b.T)`` turns the sharp
  product into plain matrix multiplication and (phi (x) phi) into the
  normalized trace.  This checks the entire symbolic/pairing pipeline
  against dense linear algebra on trace states;
* the Dirichlet Gram, the minimal-kernel right-hand side, the matrix
  and tuple pairings and the Stein residual assembled from exact sharp
  and polynomial products, one ``TensorPoly`` or ``NcPoly`` per matrix
  entry or coordinate, against which the word-index gathers are checked;
* the same gathers keyed by word tuples (``tuple_pairing_gather`` and
  its term lists): legs sliced from tuples and indexed in a dict, each
  entry of H read by ``moment``, summed in the order the code-keyed
  gather sums, against which the moment matrix, the Dirichlet Gram and
  the minimal-kernel right-hand side are checked byte for byte;
* the Hermitian copy of the Dirichlet Gram's upper triangle as the
  triangle sum it once was (``triangle_copy``), against which the
  one-``np.where`` copy is checked byte for byte;
* the represented minimal kernel assembled one partial derivative of
  one monomial at a time, against which I + J(P) is checked;
* the Dirichlet Gram of the trace state of Gaussian-integer Hermitian
  matrices in exact ``ComplexRational`` arithmetic, and its rank by
  exact elimination, against which the relations of the graded
  Cholesky are counted;
* the balanced trace rule (``balanced_builds``), which builds every
  core of up to half the table's order, against whose counts of
  complex products, Grams and kept products the pruned trace plans are
  checked;
* Monte Carlo moment tables from the same spawned sample streams and
  the same realization, a GUE coordinate 1 a dense diagonal matrix of
  its eigenvalues, one ``einsum`` trace per word from identity-started
  products and a two-pass mean and standard error, against which the
  diagonal scalings, reversal-shared inner products and array Welford
  updates are checked;
* the JSON writer as one recursive append per token, one ``json.dumps``
  per key and string, against which the join-per-container writer is
  checked byte for byte;
* the moments of a cumulant spec from a memo keyed by word tuple
  (``WordMemoState``): each miss runs the first-block recursion on the
  least word of its class, with gaps sliced from tuples and read back
  from the memo, and writes every word of the class; against it the
  class store of ``states.CumulantState``, keyed by word code, is
  checked byte for byte;
* the bracelet class rule on word tuples (``bracelet_orbit``,
  ``bracelet_rep``, ``bracelets_up_to``) and the word map of a
  bracelet-class table expanded class by class by that rule, against
  which the integer canonicalization of ``states.canonical_codes`` and
  ``states.bracelet_classes`` and the class-stored tables are checked.
"""

import functools
import json

import numpy as np

from freestein import (
    ComplexRational,
    GueGenerator,
    KernelMatrix,
    NcPoly,
    TensorPoly,
    explicit_kernel,
    jacobian,
    moment_of_poly,
    partial_derivative,
    sample_gue,
    states,
    tensor_moment,
)
from freestein.states import HERM_TOL, BraceletError, words_up_to


def rotations(word):
    """The rotations w[k:] + w[:k], k = 0..|w| - 1, of ``word``."""
    m = len(word)
    twice = word + word
    return [twice[k:k + m] for k in range(m)]


def set_partitions(m):
    """All partitions of {0..m-1} as tuples of sorted blocks."""
    if m == 0:
        return [()]
    out = []

    def grow(k, blocks):
        if k == m:
            out.append(tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(k)
            grow(k + 1, blocks)
            b.pop()
        blocks.append([k])
        grow(k + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def blocks_cross(b1, b2):
    """True when the two blocks interleave as ... a b a b ... ."""
    tagged = sorted([(x, 0) for x in b1] + [(y, 1) for y in b2])
    runs = []
    for _, tag in tagged:
        if not runs or runs[-1] != tag:
            runs.append(tag)
    return len(runs) >= 4


def is_noncrossing(blocks):
    blocks = list(blocks)
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            if blocks_cross(blocks[i], blocks[j]):
                return False
    return True


@functools.cache
def noncrossing_by_filter(m):
    return tuple(p for p in set_partitions(m) if is_noncrossing(p))


def brute_moment(kappa, word):
    """Cumulant-generated moment through the filtered enumeration."""
    if not word:
        return 1.0 + 0j
    total = 0j
    for part in noncrossing_by_filter(len(word)):
        prod = 1.0 + 0j
        for block in part:
            prod *= kappa.get(tuple(word[p] for p in block), 0j)
            if prod == 0:
                break
        total += prod
    return total


# ---------------------------------------------------------------------------
# dense matrix model of the tensor square


def word_matrix(word, mats, size):
    acc = np.eye(size, dtype=complex)
    for letter in word:
        acc = acc @ mats[letter - 1]
    return acc


def poly_matrix(p, mats, size):
    acc = np.zeros((size, size), dtype=complex)
    for w, c in p.terms.items():
        acc += complex(c) * word_matrix(w, mats, size)
    return acc


def tensor_matrix(q, mats, size):
    """Realize a tensor-square element as an N^2 x N^2 matrix."""
    acc = np.zeros((size * size, size * size), dtype=complex)
    for (a, b), c in q.terms.items():
        acc += complex(c) * np.kron(
            word_matrix(a, mats, size), word_matrix(b, mats, size).T
        )
    return acc


def tensor_functional(mat, size):
    """(phi (x) phi) of a realized tensor element: tr / N^2."""
    return np.trace(mat) / (size * size)


def kernel_pairing(a_mats, b_mats, size):
    """<A, B> = sum_ij tr(A_ij B_ij^H) / N^2 on realized matrices."""
    total = 0j
    for row_a, row_b in zip(a_mats, b_mats):
        for ma, mb in zip(row_a, row_b):
            total += np.trace(ma @ mb.conj().T) / (size * size)
    return total


def kernel_matrices(kernel, mats, size):
    return [
        [tensor_matrix(q, mats, size) for q in row] for row in kernel.rows
    ]


# ---------------------------------------------------------------------------
# exact sharp-product assembly of the Jacobian Grams


def _derivatives(words, n):
    return [[partial_derivative(i, NcPoly.monomial(w, n)) for i in range(1, n + 1)]
            for w in words]


def sharp_dirichlet_gram(phi, words):
    """G[a, b] = sum_i (phi (x) phi)(d_i(w_b) # (d_i(w_a))*), every entry
    from its own exact sharp product."""
    derivs = _derivatives(words, phi.nvars)
    gram = np.zeros((len(words), len(words)), dtype=complex)
    for a, row_a in enumerate(derivs):
        for b, row_b in enumerate(derivs):
            for da, db in zip(row_a, row_b):
                prod = db.sharp(da.star())
                if prod.terms:
                    gram[a, b] += tensor_moment(phi, prod)
    return gram


def sharp_minimal_kernel(prob, degree, pinv_tol=1e-10):
    """(sigma_sq, coefficients) of ``stein.minimal_kernel`` with the Gram
    and r_s[b] = sum_k (phi (x) phi)((A0 - I)_sk # (d_k w_b)*) built from
    exact sharp products, solved by the same eigenvalue pseudo-inverse."""
    phi, n = prob.phi, prob.n
    words = words_up_to(n, degree)
    eigs, vecs = np.linalg.eigh(sharp_dirichlet_gram(phi, words))
    keep = eigs > pinv_tol * max(eigs.max(), 1e-300)
    pinv = (vecs[:, keep] / eigs[keep]) @ vecs[:, keep].conj().T
    diff = explicit_kernel(prob.v) - KernelMatrix.identity(n)
    derivs = _derivatives(words, n)
    sigma_sq = 0.0
    coefficients = np.zeros((len(words), n), dtype=complex)
    for slot in range(n):
        r = np.array([
            sum(tensor_moment(phi, diff.rows[slot][k].sharp(row[k].star()))
                for k in range(n))
            for row in derivs
        ])
        c = pinv @ r
        sigma_sq += float((r.conj() @ c).real)
        coefficients[:, slot] = c
    return sigma_sq, coefficients.ravel()


def monomial_minimal_kernel(n, words, coeff_blocks):
    """I + sum over slots s and words w of c_{s,w} J(e_{w,s}), adding one
    scaled partial derivative of one monomial at a time."""
    rows = []
    for slot in range(n):
        row = []
        for k in range(1, n + 1):
            acc = TensorPoly.one(n) if (k - 1) == slot else TensorPoly.zero(n)
            for w, c in zip(words, coeff_blocks[slot]):
                if c == 0:
                    continue
                d = partial_derivative(k, NcPoly.monomial(w, n))
                if d.terms:
                    acc = acc + d.scale(ComplexRational.from_number(complex(c)))
            row.append(acc)
        rows.append(tuple(row))
    return KernelMatrix(tuple(rows))


def exact_trace_moments(mats, max_len):
    """phi(w) = tr(X_w1 ... X_wm) / N for every word of length <= max_len,
    exactly, for matrices given as nested lists of Gaussian integers."""
    size = len(mats[0])
    exact = [[[ComplexRational(int(z.real), int(z.imag)) for z in row]
              for row in m] for m in mats]
    products = {(): [[ComplexRational(int(i == j)) for j in range(size)]
                     for i in range(size)]}
    moments = {}
    for w in words_up_to(len(mats), max_len):
        if w:
            prev, last = products[w[:-1]], exact[w[-1] - 1]
            products[w] = [[sum((prev[i][k] * last[k][j] for k in range(size)),
                                ComplexRational(0))
                            for j in range(size)] for i in range(size)]
        trace = sum((products[w][i][i] for i in range(size)), ComplexRational(0))
        moments[w] = trace / size
    return moments


def exact_dirichlet_gram(moments, words):
    """G[a, b] = sum over letters w_a[k] = w_b[l] of
    phi(w_b[:l] rev(w_a[:k])) phi(rev(w_a[k+1:]) w_b[l+1:]), exactly."""
    return [[sum((moments[wb[:l] + wa[:k][::-1]]
                  * moments[wa[k + 1:][::-1] + wb[l + 1:]]
                  for k, x in enumerate(wa) for l, y in enumerate(wb) if x == y),
                 ComplexRational(0))
             for wb in words] for wa in words]


def exact_rank(matrix):
    """Rank of a ``ComplexRational`` matrix by Gaussian elimination."""
    rows = [list(row) for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        p = rows[rank][col]
        inv = p.conjugate() / (p.re * p.re + p.im * p.im)
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def sharp_inner_matrix(phi, a, b):
    """<A, B> = (phi (x) phi) of sum_ij A_ij # B_ij*, summed as one exact
    ``TensorPoly`` of sharp products."""
    acc = TensorPoly.zero(a.nvars)
    for row_a, row_b in zip(a.rows, b.rows):
        for qa, qb in zip(row_a, row_b):
            acc = acc + qa.sharp(qb.star())
    return tensor_moment(phi, acc)


def product_inner_tuple(phi, ps, rs):
    """<p, r> = sum_i phi(p_i r_i*) from exact polynomial products."""
    return sum(moment_of_poly(phi, p * r.star()) for p, r in zip(ps, rs))


def sharp_stein_residual(prob, a, ps):
    """sum_i [phi(g_i P_i*) - phi(g_i) phi(P_i*)] - <A, JP> with g = Dv(X),
    both sides from exact products."""
    phi = prob.phi
    lhs = sum(moment_of_poly(phi, g * p.star()) - mean * moment_of_poly(phi, p.star())
              for g, mean, p in zip(prob.gradient, prob.gradient_means, ps))
    return lhs - sharp_inner_matrix(phi, a, jacobian(ps))


# ---------------------------------------------------------------------------
# Monte Carlo tables, one einsum trace per word


def einsum_word_traces(mats, size, max_order, words):
    """{word: tr(word) / N}, splitting each word at ceil(|w|/2) into
    half-length products started from the identity."""
    half = (max_order + 1) // 2
    prods = {(): np.eye(size, dtype=complex)}
    for w in words:
        if 0 < len(w) <= half:
            prods[w] = prods[w[:-1]] @ mats[w[-1] - 1]
    traces = {}
    for w in words:
        cut = (len(w) + 1) // 2
        left, right = w[:cut], w[cut:]
        if right:
            traces[w] = np.einsum("ij,ji->", prods[left], prods[right]) / size
        else:
            traces[w] = np.trace(prods[left]) / size
    return traces


def balanced_builds(nvars, max_order):
    """The dense products of the balanced trace rule, the cost reference
    of ``matrixmodels._trace_plan``: every word of length
    <= ceil(L / 2) that begins and ends with a letter other than 1 is
    built, as ("letter", w) for one letter, ("gram", w) for a palindrome
    of even length, ("adjoint", w) when its reversal is built, else
    ("gemm", w), one complex product; each class is then cut after
    ceil(|w| / 2) letters."""
    builds, built = [], set()
    for w in words_up_to(nvars, (max_order + 1) // 2, min_len=1):
        if w[0] == 1 or w[-1] == 1:
            continue
        if len(w) == 1:
            kind = "letter"
        elif len(w) % 2 == 0 and w == w[::-1]:
            kind = "gram"
        elif w[::-1] in built:
            kind = "adjoint"
        else:
            kind = "gemm"
        builds.append((kind, w))
        built.add(w)
    return builds


def gue_spectrum(rng, size):
    """``sample_gue_spectrum`` by ``np.linalg.eigvalsh`` of the dense
    tridiagonal model, from the same draws of ``rng``."""
    diag = rng.standard_normal(size)
    off = np.sqrt(rng.chisquare(2.0 * np.arange(size - 1, 0, -1)) / 2)
    tri = np.diag(diag) + np.diag(off, -1)
    return np.linalg.eigvalsh(tri) / np.sqrt(size)


def mc_draws(config):
    """Per sample, the coordinates ``mc_moment_table`` realizes from the
    same spawned streams: coordinate 1 as the dense diagonal matrix of
    its eigenvalues (a GUE's by ``gue_spectrum``, a polynomial one's
    from ``eigvalsh`` of its Hermitian part), every other coordinate
    dense, polynomial ones by ``poly_matrix`` and their Hermitian
    parts."""
    size = config.size
    for ss in np.random.SeedSequence(config.seed).spawn(config.samples):
        rng = np.random.default_rng(ss)
        mats = []
        for gen in config.generators:
            if isinstance(gen, GueGenerator):
                m = sample_gue(rng, size) if mats else gue_spectrum(rng, size)
            else:
                fresh = [sample_gue(rng, size) for _ in range(gen.fresh_gues)]
                m = poly_matrix(gen.poly, fresh, size)
                m = (m + m.conj().T) / 2
                if not mats:
                    m = np.linalg.eigvalsh(m)
            mats.append(m if mats else np.diag(m).astype(complex))
        yield mats


def norm_records(config):
    """Per coordinate, how many draws of ``mc_draws`` have a norm above
    every earlier one: for a dense coordinate, the draws whose norm no
    certificate proves below the running maximum."""
    top = [0.0] * config.nvars
    records = [0] * config.nvars
    for mats in mc_draws(config):
        for i, m in enumerate(mats):
            norm = np.linalg.norm(m, 2)
            records[i] += norm > top[i]
            top[i] = max(top[i], norm)
    return records


def mc_moment_oracle(config, max_order):
    """(entries, stderr, norm_upper) of ``mc_moment_table`` on the draws
    of ``mc_draws``: per-word ``einsum`` traces, two-pass statistics."""
    words = words_up_to(config.nvars, max_order, min_len=1)
    samples = []
    norms = []
    for mats in mc_draws(config):
        norms.append([np.abs(np.linalg.eigvalsh(m)).max() for m in mats])
        traces = einsum_word_traces(mats, config.size, max_order, words)
        samples.append([traces[w] for w in words])
    samples = np.array(samples)
    count = config.samples
    mean = samples.mean(axis=0)
    spread = (np.abs(samples - mean) ** 2).sum(axis=0)
    stderr = np.sqrt(spread / count / max(count - 1, 1))
    return (dict(zip(words, mean.tolist())), dict(zip(words, stderr.tolist())),
            tuple(float(x) for x in np.max(norms, axis=0)))


def reference_dumps(obj, indent=2):
    """``serialize.dumps`` written one token at a time: containers on
    their own lines except arrays of numbers and booleans, floats with 17
    significant digits, keys and strings through ``json.dumps``."""
    out = []
    _write(obj, out, indent, 0)
    out.append("\n")
    return "".join(out)


def _write(obj, out, indent, level):
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        for idx, (key, value) in enumerate(obj.items()):
            out.append(f"{pad}{json.dumps(str(key))}: ")
            _write(value, out, indent, level + 1)
            out.append(",\n" if idx < len(obj) - 1 else "\n")
        out.append(close_pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        simple = all(isinstance(x, (int, float, bool)) for x in seq)
        if simple:
            out.append("[" + ", ".join(_scalar(x) for x in seq) + "]")
            return
        out.append("[\n")
        for idx, value in enumerate(seq):
            out.append(pad)
            _write(value, out, indent, level + 1)
            out.append(",\n" if idx < len(seq) - 1 else "\n")
        out.append(close_pad + "]")
    else:
        out.append(_scalar(obj))


def _scalar(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if x != x or x in (float("inf"), float("-inf")):
            raise ValueError(f"non-finite float {x} in JSON output")
        return format(x, ".17g")
    if isinstance(x, str):
        return json.dumps(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


# ---------------------------------------------------------------------------
# bracelet classes by tuples


def bracelet_orbit(rep):
    """(rotations, reversed rotations) of the class of ``rep``.  The
    second list is empty when the class is closed under reversal, whose
    value is then real; a periodic word lists its rotations repeatedly."""
    rots = rotations(rep) or [rep]
    back = rep[::-1]
    # the rotation classes of a word and of its reversal are equal or
    # disjoint
    return rots, [] if back in rots else rotations(back)


def bracelet_rep(word):
    """(representative, reversed) of the bracelet class of ``word``: the
    least rotation of ``word`` or of its reversal, and whether it came
    from the reversal only, so that phi(word) = conj phi(representative)
    in a tracial Hermitian state."""
    rots, flipped = bracelet_orbit(tuple(word))
    forward, backward = min(rots), min(flipped, default=None)
    if backward is not None and backward < forward:
        return backward, True
    return forward, False


def bracelets_up_to(nvars, max_len, min_len=0):
    """Representatives of the bracelet classes of ``words_up_to``, in
    graded-lexicographic order."""
    return [w for w in words_up_to(nvars, max_len, min_len)
            if bracelet_rep(w) == (w, False)]


def word_values(table, words):
    """{word: value} of ``table`` on ``words``, read in one batch through
    the lookup the solvers use."""
    return dict(zip(words, table.word_moments(words).tolist()))


def word_stderr(table):
    """{word: standard error} of every word of ``table`` that has one,
    or None: a class-stored table's classes expanded by
    ``expand_bracelets``."""
    errors = table.stored()[1]
    if errors is None or not table.bracelet:
        return errors
    return expand_bracelets(errors)


def expand_bracelets(values):
    """Word map of a representative map: each rotation gets the value,
    each reversed rotation its conjugate, a reversal-closed class its
    real part.  Values keep their type, so real standard errors expand
    by the same rule.  Raises ``BraceletError`` on a key that is not its
    class representative, or on a reversal-closed class whose value has
    an imaginary part over ``HERM_TOL``."""
    out = {}
    for rep, value in values.items():
        least = bracelet_rep(rep)[0]
        if least != rep:
            raise BraceletError(f"word {list(rep)} is not the representative "
                                f"{list(least)} of its bracelet class", rep)
        rots, flipped = bracelet_orbit(rep)
        if not flipped:
            if abs(value.imag) > HERM_TOL:
                raise BraceletError(
                    f"the class of {list(rep)} is closed under reversal, so "
                    f"its value must be real, got {value}", rep)
            value = type(value)(value.real)
        for w in rots:
            out[w] = value
        conj = value.conjugate()
        for w in flipped:
            out[w] = conj
    return out


# ---------------------------------------------------------------------------
# the word-tuple pairing path


def tuple_pairing_gather(phi, left, right, shape):
    """``states.pairing_gather`` on terms (owner row, key, coefficient c,
    left leg l, reversed right leg rev(r)) with word-tuple legs.  Legs
    are indexed in a dict, each entry of H[u, v] = phi(u rev v) that
    some key pairs is read by ``moment(u + rev v)``, and each output
    sums its pairs key by key, in the order the keys first appear, then
    term by term, by ``np.add.at``, over the left terms of a key in
    blocks of ``states._GATHER_BLOCK`` pairs.  numpy's complex products
    can round differently with the shapes of their operands, so the
    blocks, like the order, are those of the code path."""
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
            needed[np.ix_(u, v)] = True
    hankel = np.zeros(needed.shape, dtype=complex)
    for u, v in zip(*np.nonzero(needed)):
        hankel[u, v] = phi.moment(legs[u] + legs[v][::-1])

    rows, cols = shape
    out = np.zeros(rows * cols, dtype=complex)
    for (oa, ca, la, ra), (ob, cb, lb, rb) in arrays:
        step = max(1, states._GATHER_BLOCK // len(ob))
        for lo in range(0, len(oa), step):
            e = slice(lo, lo + step)
            prod = hankel[np.ix_(la[e], lb)]
            prod *= ca[e, None]
            prod *= cb.conj()
            prod *= hankel[np.ix_(rb, ra[e])].T
            np.add.at(out, (oa[e, None] * cols + ob).ravel(), prod.ravel())
    return out.reshape(rows, cols)


def tuple_jacobian_terms(words):
    """w[:k] (x) w[k+1:] of d_{w[k]} w, owned by the index of w and keyed
    by the letter w[k], sliced from the word tuples."""
    return [(a, letter, 1.0, w[:k], w[k + 1:][::-1])
            for a, w in enumerate(words) for k, letter in enumerate(w)]


def tuple_tensor_terms(owner, key, q):
    return [(owner, key, complex(c), a, b[::-1])
            for (a, b), c in q.terms.items()]


def tuple_moment_matrix(phi, length):
    """H over the words of length <= ``length`` as the gather of the
    monomials w (x) 1 against themselves."""
    words = words_up_to(phi.nvars, length)
    terms = [(a, (), 1.0, w, ()) for a, w in enumerate(words)]
    return tuple_pairing_gather(phi, terms, terms, (len(words), len(words)))


def triangle_copy(gram):
    """The Hermitian copy ``states.dirichlet_gram`` makes of its gather,
    in the three numpy steps it once took: the upper triangle plus the
    conjugated strict upper one, averaged with its adjoint."""
    gram = np.triu(gram) + np.triu(gram, 1).conj().T
    return (gram + gram.conj().T) / 2


def tuple_dirichlet_gram(phi, words):
    """``states.dirichlet_gram`` through the tuple gather."""
    terms = tuple_jacobian_terms(words)
    gram = tuple_pairing_gather(phi, terms, terms, (len(words),) * 2).T
    gram = np.triu(gram) + np.triu(gram, 1).conj().T
    return (gram + gram.conj().T) / 2


def tuple_kernel_rhs(prob, words):
    """``stein.kernel_rhs`` through the tuple gather."""
    diff = [t for s, row in enumerate(prob.kernel_defect.rows)
            for k, q in enumerate(row, 1) for t in tuple_tensor_terms(s, k, q)]
    return tuple_pairing_gather(prob.phi, diff, tuple_jacobian_terms(words),
                                (prob.n, len(words)))


# ---------------------------------------------------------------------------
# cumulant moments from a word-keyed memo


class WordMemoState:
    """phi of ``spec`` by a memo keyed by word tuple.  A miss evaluates
    the first-block recursion on the least word of the asked word's
    class (its reversals and, for a ``cyclic`` spec, rotations) and
    stores every word of the class: each rotation the value, each
    reversed rotation its conjugate, a class closed under reversal its
    real part.  Words are not checked."""

    def __init__(self, spec):
        self.spec = spec
        self.memo = {(): 1.0 + 0j}
        self.evaluations = 0
        self.blocks = {}
        for word, value in spec.kappa.items():
            node = self.blocks
            for letter in word[:-1]:
                node = node.setdefault(letter, [0j, {}])[1]
            node.setdefault(word[-1], [0j, {}])[0] = value

    def moment(self, word):
        word = tuple(word)
        value = self.memo.get(word)
        if value is not None:
            return value
        cyclic = self.spec.cyclic
        forward = (rotations(word) or [word]) if cyclic else [word]
        back = word[::-1]
        flipped = ([] if back in forward
                   else rotations(back) if cyclic else [back])
        least, backward = min(forward), min(flipped, default=None)
        from_flipped = backward is not None and backward < least
        value = self._first_block_sum(backward if from_flipped else least)
        self.evaluations += 1
        if from_flipped:
            value = value.conjugate()
        elif not flipped:
            value = complex(value.real)
        for w in forward:
            self.memo[w] = value
        for w in flipped:
            self.memo[w] = value.conjugate()
        return value

    def _first_block_sum(self, word):
        # blocks holding position 0, least next position first; a block
        # is dropped where its letters leave the trie or a gap reads 0
        m = len(word)
        total = 0j
        first = self.blocks.get(word[0])
        stack = [(first, 0, 1.0 + 0j)] if first is not None else []
        while stack:
            (value, children), last, acc = stack.pop()
            if value:
                tail = self.moment(word[last + 1:]) if last + 1 < m else 1.0
                total += value * acc * tail
            for q in range(m - 1, last, -1):
                child = children.get(word[q])
                if child is not None:
                    gap = self.moment(word[last + 1:q]) if q > last + 1 else 1.0
                    if gap:
                        stack.append((child, q, acc * gap))
        return total
