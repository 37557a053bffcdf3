"""JSON interchange for polynomials, states, ensembles and reports.

Polynomial coefficients travel as exact rationals (re_num/re_den + i
im_num/im_den, denominators nonzero); moment and cumulant values as
re/im doubles.  Words are 1-based index arrays, the empty array is the
unit.  A table is written in the form it is stored: one entry per
bracelet class for a class-stored table, one per word for a word-list
table (see ``table_to_obj``); a class file is read into a class-stored
table, never expanded to words.  ``dumps`` renders floats with 17
significant digits and keeps dictionary insertion order, so identical
inputs produce byte-identical files; it builds each container with one
``join`` and escapes keys and strings with the C escaper behind
``json.dumps``, keeping no cache.  The readers check every field they
take and raise ``ParseError`` naming it; the entries of moment tables
and cumulant files, which can number thousands, are tested inline, and a
field path such as ``state.entries[17].re`` is only formatted for an
entry that fails.  A word may appear only once among a file's entries.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _string
from fractions import Fraction

from .algebra import ComplexRational, NcPoly, pair_key, word_key
from .errors import ParseError
from .matrixmodels import EnsembleConfig, GueGenerator, PolyOfGueGenerator
from .states import BraceletError, CumulantSpec, MomentTable


# ---------------------------------------------------------------------------
# deterministic writer


INDENT = 2


def dumps(obj):
    """``obj`` as JSON text: every container on its own lines, indented
    by ``INDENT`` per level, except arrays of numbers and booleans, which
    stay on one line; floats with 17 significant digits; strings and
    keys escaped as ``json.dumps`` escapes them.  Each container is one
    ``join`` of its rendered items, and scalars are rendered in place."""
    return _render(obj, 0) + "\n"


def _render(obj, level):
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        pad = " " * (INDENT * (level + 1))
        items = ",\n".join([
            f"{pad}{_string(str(key))}: {_item(value, level + 1)}"
            for key, value in obj.items()])
        return "{\n" + items + "\n" + " " * (INDENT * level) + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:  # a word
            return "[" + ", ".join(map(str, obj)) + "]"
        if all(isinstance(x, (int, float)) for x in obj):  # bool is an int
            return "[" + ", ".join(map(_scalar, obj)) + "]"
        pad = " " * (INDENT * (level + 1))
        items = ",\n".join([pad + _item(value, level + 1) for value in obj])
        return "[\n" + items + "\n" + " " * (INDENT * level) + "]"
    return _scalar(obj)


def _item(value, level):
    kind = type(value)
    if kind is float and math.isfinite(value):
        return format(value, ".17g")
    if kind is int:
        return str(value)
    if kind is str:
        return _string(value)
    return _render(value, level)


def _scalar(x):
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"non-finite float {x} in JSON output")
        return format(x, ".17g")
    if isinstance(x, str):
        return _string(x)
    if x is None:
        return "null"
    raise TypeError(f"cannot serialize {type(x)!r}")


# ---------------------------------------------------------------------------
# field access helpers


def _get(obj, key, kind, path):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {path}{key}", field=path + key)
    value = obj[key]
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ParseError(f"field {path}{key} must be an integer",
                             field=path + key)
    elif kind is float:
        value = _finite(value, path + key)
    elif kind is list:
        if not isinstance(value, list):
            raise ParseError(f"field {path}{key} must be an array",
                             field=path + key)
    elif kind is bool:
        if not isinstance(value, bool):
            raise ParseError(f"field {path}{key} must be a boolean",
                             field=path + key)
    return value


def _finite(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"field {field} must be a number", field=field)
    value = float(value)
    if not math.isfinite(value):
        raise ParseError(f"field {field} must be finite, got {value}",
                         field=field)
    return value


def _norm_upper(obj, nvars, path):
    """The optional per-coordinate ``norm_upper`` list of finite numbers."""
    norm_upper = obj.get("norm_upper")
    if norm_upper is None:
        return None
    if not isinstance(norm_upper, list) or len(norm_upper) != nvars:
        raise ParseError("norm_upper must list one value per coordinate",
                         field=path + "norm_upper")
    return tuple(_finite(x, f"{path}norm_upper[{i}]")
                 for i, x in enumerate(norm_upper))


def _word(raw, path):
    if not isinstance(raw, list) or not all(type(x) is int for x in raw):
        raise ParseError(f"{path} must be an array of generator indices",
                         field=path)
    return tuple(raw)


_NUMBER = (int, float)  # the types json.load gives numbers; bool is not one


def _value_entries(obj, key, path, stderr=False):
    """The entries of the array ``obj[key]`` as word -> complex value,
    word -> standard error (always empty without ``stderr``) and word ->
    entry index.

    An entry holds a word of generator indices, finite ``re`` and ``im``
    and, with ``stderr``, an optional finite ``stderr``; no word may
    appear twice.  Each field is tested inline, and only a field that
    fails the test goes through ``_get`` and ``_word``, which format its
    path (``state.entries[17].re``) and raise the ParseError.
    """
    values = {}
    errors = {}
    first = {}
    for idx, e in enumerate(_get(obj, key, list, path)):
        fields = e if type(e) is dict else {}  # anything else takes _get
        word = fields.get("word")
        if type(word) is list and all(type(x) is int for x in word):
            word = tuple(word)
        else:
            epath = f"{path}{key}[{idx}]."
            word = _word(_get(e, "word", list, epath), epath + "word")
        if word in first:
            field = f"{path}{key}[{idx}]"
            raise ParseError(
                f"{field} repeats the word of {path}{key}[{first[word]}]",
                field=field)
        first[word] = idx
        re, im = fields.get("re"), fields.get("im")
        if (type(re) in _NUMBER and type(im) in _NUMBER
                and math.isfinite(re) and math.isfinite(im)):
            values[word] = complex(re, im)
        else:
            epath = f"{path}{key}[{idx}]."
            values[word] = complex(_get(e, "re", float, epath),
                                   _get(e, "im", float, epath))
        if stderr and "stderr" in e:
            err = fields.get("stderr")
            if type(err) in _NUMBER and math.isfinite(err):
                errors[word] = float(err)
            else:
                errors[word] = _get(e, "stderr", float,
                                    f"{path}{key}[{idx}].")
    return values, errors, first


# ---------------------------------------------------------------------------
# polynomials


def _coeff_obj(c):
    return {"re_num": c.re.numerator, "re_den": c.re.denominator,
            "im_num": c.im.numerator, "im_den": c.im.denominator}


def _coeff(t, path):
    """The exact coefficient re_num/re_den + i im_num/im_den of a term;
    a zero denominator is refused, naming its field."""
    parts = []
    for part in ("re", "im"):
        num = _get(t, part + "_num", int, path)
        den = _get(t, part + "_den", int, path)
        if not den:
            raise ParseError(f"field {path}{part}_den must be nonzero",
                             field=f"{path}{part}_den")
        parts.append(Fraction(num, den))
    return ComplexRational(*parts)


def poly_to_obj(p):
    terms = [{"word": list(w), **_coeff_obj(p.terms[w])}
             for w in sorted(p.terms, key=word_key)]
    return {"nvars": p.nvars, "terms": terms}


def poly_from_obj(obj, path="poly."):
    nvars = _get(obj, "nvars", int, path)
    terms = {}
    for idx, t in enumerate(_get(obj, "terms", list, path)):
        tpath = f"{path}terms[{idx}]."
        word = _word(_get(t, "word", list, tpath), tpath + "word")
        terms[word] = terms.get(word, ComplexRational(0)) + _coeff(t, tpath)
    try:
        return NcPoly(nvars, terms)
    except (ValueError, IndexError) as exc:
        raise ParseError(str(exc), field=path.rstrip(".")) from exc


def tuple_to_obj(ps):
    return {"entries": [poly_to_obj(p) for p in ps]}


def tuple_from_obj(obj, path="tuple."):
    entries = _get(obj, "entries", list, path)
    return tuple(
        poly_from_obj(e, f"{path}entries[{i}].") for i, e in enumerate(entries)
    )


def tensor_to_obj(q):
    terms = [{"left": list(a), "right": list(b), **_coeff_obj(q.terms[(a, b)])}
             for a, b in sorted(q.terms, key=pair_key)]
    return {"nvars": q.nvars, "terms": terms}


def kernel_to_obj(a):
    return {
        "nvars": a.nvars,
        "size": a.size,
        "entries": [[tensor_to_obj(q) for q in row] for row in a.rows],
    }


# ---------------------------------------------------------------------------
# states


BRACELET = "bracelet"


def table_to_obj(table):
    """Moment table object, in the form the table is stored: a table
    stored by bracelet class lists one entry per class representative
    under ``"classes": "bracelet"``, any other table one entry per
    word."""
    values, stderr = table.stored()
    entries = []
    for w, v in values.items():
        if not w:
            continue
        entry = {"word": list(w), "re": float(v.real), "im": float(v.imag)}
        if stderr is not None and w in stderr:
            entry["stderr"] = stderr[w]
        entries.append(entry)
    obj = {
        "nvars": table.nvars,
        "max_order": table.max_order,
        "tracial": bool(table.tracial),
    }
    if table.bracelet:
        obj["classes"] = BRACELET
    obj["entries"] = entries
    if table.norm_upper is not None:
        obj["norm_upper"] = [float(x) for x in table.norm_upper]
    return obj


def table_from_obj(obj, path="state."):
    """Moment table from its object.  With ``"classes": "bracelet"``
    each entry is a bracelet class representative, checked as such, and
    the table stores the class and answers for each of its words;
    otherwise each entry is one word.  No word may appear in two
    entries."""
    nvars = _get(obj, "nvars", int, path)
    max_order = _get(obj, "max_order", int, path)
    tracial = "tracial" in obj and _get(obj, "tracial", bool, path)
    classes = obj.get("classes")
    if classes is not None:
        if classes != BRACELET:
            raise ParseError(f"unknown classes format {classes!r}",
                             field=path + "classes")
        if not tracial:
            raise ParseError("bracelet classes need a tracial table",
                             field=path + "tracial")
    entries, stderr, first = _value_entries(obj, "entries", path, stderr=True)
    norm_upper = _norm_upper(obj, nvars, path)
    try:
        if classes is not None:
            return MomentTable.from_bracelets(
                nvars, max_order, entries, norm_upper=norm_upper,
                stderr=stderr or None)
        return MomentTable(
            nvars, max_order, entries, tracial=tracial,
            norm_upper=norm_upper, stderr=stderr or None,
        )
    except BraceletError as exc:
        field = f"{path}entries[{first[exc.word]}]"
        raise ParseError(f"{field}: {exc}", field=field) from exc
    except ValueError as exc:
        raise ParseError(str(exc), field=path.rstrip(".")) from exc


def cumulants_to_obj(spec, norm_upper=None):
    kappa = []
    for w in sorted(spec.kappa, key=word_key):
        v = spec.kappa[w]
        kappa.append({"word": list(w), "re": float(v.real), "im": float(v.imag)})
    obj = {
        "nvars": spec.nvars,
        "max_order": spec.max_order,
        "tracial": spec.cyclic,
        "kappa": kappa,
    }
    if norm_upper is not None:
        obj["norm_upper"] = [float(x) for x in norm_upper]
    return obj


def cumulants_from_obj(obj, path="cumulants."):
    """Cumulant spec from its object.  Each ``kappa`` entry names a
    distinct word.  An optional ``"tracial"`` must agree with whether
    the cumulants are exactly cyclic, which is what makes the state
    tracial."""
    nvars = _get(obj, "nvars", int, path)
    max_order = _get(obj, "max_order", int, path)
    kappa = _value_entries(obj, "kappa", path)[0]
    try:
        spec = CumulantSpec(nvars, kappa, max_order=max_order)
    except ValueError as exc:
        raise ParseError(str(exc), field=path.rstrip(".")) from exc
    if "tracial" in obj and _get(obj, "tracial", bool, path) != spec.cyclic:
        raise ParseError(
            f"field {path}tracial disagrees with the cumulants, which are "
            f"{'' if spec.cyclic else 'not '}invariant under rotation",
            field=path + "tracial")
    return spec


def cumulant_state_from_obj(obj, path="cumulants."):
    """CumulantState with the optional norm_upper hints applied."""
    from .states import CumulantState

    spec = cumulants_from_obj(obj, path)
    return CumulantState(spec, norm_upper=_norm_upper(obj, spec.nvars, path))


# ---------------------------------------------------------------------------
# ensembles


def ensemble_from_obj(obj, path="ensemble."):
    size = _get(obj, "N", int, path)
    samples = _get(obj, "samples", int, path)
    seed = _get(obj, "seed", int, path)
    if seed < 0:
        raise ParseError(f"seed must be >= 0, got {seed}", field=path + "seed")
    generators = []
    for idx, g in enumerate(_get(obj, "generators", list, path)):
        gpath = f"{path}generators[{idx}]."
        kind = _get(g, "kind", str, gpath)
        if kind == "gue":
            generators.append(GueGenerator())
        elif kind == "poly_of_gue":
            poly = poly_from_obj(_get(g, "poly", dict, gpath), gpath + "poly.")
            fresh = _get(g, "fresh_gues", int, gpath)
            try:
                generators.append(PolyOfGueGenerator(poly, fresh))
            except ValueError as exc:
                raise ParseError(str(exc), field=gpath.rstrip(".")) from exc
        else:
            raise ParseError(
                f"unknown generator kind {kind!r}", field=gpath + "kind"
            )
    try:
        return EnsembleConfig(size=size, samples=samples, seed=seed,
                              generators=tuple(generators))
    except ValueError as exc:
        raise ParseError(str(exc), field=path.rstrip(".")) from exc


def ensemble_to_obj(config):
    gens = []
    for g in config.generators:
        if isinstance(g, GueGenerator):
            gens.append({"kind": "gue"})
        else:
            gens.append(
                {
                    "kind": "poly_of_gue",
                    "poly": poly_to_obj(g.poly),
                    "fresh_gues": g.fresh_gues,
                }
            )
    return {
        "N": config.size,
        "samples": config.samples,
        "seed": config.seed,
        "generators": gens,
    }


# ---------------------------------------------------------------------------
# reports


def stein_report_obj(potential, report):
    return {
        "n": potential.nvars,
        "potential": poly_to_obj(potential),
        "degree": report.degree,
        "sigma_lower_sq": report.sigma_lower_sq,
        "upper_explicit_sq": report.upper_explicit_sq,
        "upper_poincare_sq": report.upper_poincare_sq,
        "gram_rank": report.gram_rank,
        "null_dim": report.null_dim,
        "centering_defect": report.centering_defect,
    }


def poincare_report_obj(est):
    return {
        "degree": est.degree,
        "c_lower": est.c_lower,
        "voiculescu_tracial": est.voiculescu.tracial_sq,
        "voiculescu_general": est.voiculescu.general_sq,
        "null_dim": est.null_dim,
        "norm_estimates": [{"coordinate": e.coordinate, "order": e.order,
                            "lower": e.lower, "upper": e.upper}
                           for e in est.voiculescu.norm_estimates],
    }
