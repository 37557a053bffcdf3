"""JSON interchange for polynomials, states, ensembles and reports.

Polynomial coefficients travel as exact rationals
(re_num/re_den + i im_num/im_den); moment and cumulant values as
re/im doubles.  Words are 1-based index arrays, the empty array is the
unit.  A tracial moment table is written one entry per bracelet class
when its classes agree exactly (see ``table_to_obj``).  ``dumps``
renders floats with 17 significant digits and keeps dictionary
insertion order, so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .algebra import ComplexRational, NcPoly, word_key
from .errors import ParseError
from .matrixmodels import EnsembleConfig, GueGenerator, PolyOfGueGenerator
from .states import (
    BraceletError,
    CumulantSpec,
    MomentTable,
    bracelet_rep,
    expand_bracelets,
)


# ---------------------------------------------------------------------------
# deterministic writer


def dumps(obj, indent=2):
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


# ---------------------------------------------------------------------------
# polynomials


def poly_to_obj(p):
    terms = []
    for w in sorted(p.terms, key=word_key):
        c = p.terms[w]
        terms.append(
            {
                "word": list(w),
                "re_num": c.re.numerator,
                "re_den": c.re.denominator,
                "im_num": c.im.numerator,
                "im_den": c.im.denominator,
            }
        )
    return {"nvars": p.nvars, "terms": terms}


def poly_from_obj(obj, path="poly."):
    nvars = _get(obj, "nvars", int, path)
    terms = {}
    for idx, t in enumerate(_get(obj, "terms", list, path)):
        tpath = f"{path}terms[{idx}]."
        word = _word(_get(t, "word", list, tpath), tpath + "word")
        coeff = ComplexRational(
            Fraction(_get(t, "re_num", int, tpath), _get(t, "re_den", int, tpath)),
            Fraction(_get(t, "im_num", int, tpath), _get(t, "im_den", int, tpath)),
        )
        terms[word] = terms.get(word, ComplexRational(0)) + coeff
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
    terms = []
    for a, b in sorted(q.terms, key=lambda k: (word_key(k[0]), word_key(k[1]))):
        c = q.terms[(a, b)]
        terms.append(
            {
                "left": list(a),
                "right": list(b),
                "re_num": c.re.numerator,
                "re_den": c.re.denominator,
                "im_num": c.im.numerator,
                "im_den": c.im.denominator,
            }
        )
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


def _bracelet_values(table):
    """Representative -> value of a tracial ``table`` whose entries and
    standard errors are exactly what their representatives expand to;
    None for any other table."""
    if not table.tracial:
        return None
    words = {w: v for w, v in table.entries.items() if w}
    values = {}
    for w in words:
        rep = bracelet_rep(w)[0]
        if rep not in words:
            return None
        values[rep] = words[rep]
    try:
        if expand_bracelets(values) != words:
            return None
        if table.stderr is not None:
            stderr = {w: table.stderr[w] for w in values if w in table.stderr}
            if expand_bracelets(stderr) != table.stderr:
                return None
    except BraceletError:  # a reversal-closed class with a complex value
        return None
    return values


def table_to_obj(table):
    """Moment table object.  A tracial table whose bracelet classes
    agree exactly is written one entry per class, on the class
    representative, under ``"classes": "bracelet"``; any other table
    lists every word."""
    values = _bracelet_values(table)
    source = table.entries if values is None else values
    entries = []
    for w in sorted(source, key=word_key):
        if not w:
            continue
        v = source[w]
        entry = {"word": list(w), "re": float(v.real), "im": float(v.imag)}
        if table.stderr is not None and w in table.stderr:
            entry["stderr"] = table.stderr[w]
        entries.append(entry)
    obj = {
        "nvars": table.nvars,
        "max_order": table.max_order,
        "tracial": bool(table.tracial),
    }
    if values is not None:
        obj["classes"] = BRACELET
    obj["entries"] = entries
    if table.norm_upper is not None:
        obj["norm_upper"] = [float(x) for x in table.norm_upper]
    return obj


def table_from_obj(obj, path="state."):
    """Moment table from its object.  With ``"classes": "bracelet"``
    each entry is a bracelet class representative, checked as such, and
    the table holds its whole class; otherwise each entry is one word."""
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
    entries = {}
    stderr = {}
    first = {}
    for idx, e in enumerate(_get(obj, "entries", list, path)):
        epath = f"{path}entries[{idx}]."
        field = epath.rstrip(".")
        word = _word(_get(e, "word", list, epath), epath + "word")
        if word in first:
            raise ParseError(
                f"{field} repeats the word of {path}entries[{first[word]}]",
                field=field)
        first[word] = idx
        entries[word] = complex(_get(e, "re", float, epath),
                                _get(e, "im", float, epath))
        if "stderr" in e:
            stderr[word] = _get(e, "stderr", float, epath)
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
        "tracial": spec.is_cyclic(),
        "kappa": kappa,
    }
    if norm_upper is not None:
        obj["norm_upper"] = [float(x) for x in norm_upper]
    return obj


def cumulants_from_obj(obj, path="cumulants."):
    """Cumulant spec from its object.  An optional ``"tracial"`` must
    agree with whether the cumulants are exactly cyclic, which is what
    makes the state tracial."""
    nvars = _get(obj, "nvars", int, path)
    max_order = _get(obj, "max_order", int, path)
    kappa = {}
    for idx, e in enumerate(_get(obj, "kappa", list, path)):
        epath = f"{path}kappa[{idx}]."
        word = _word(_get(e, "word", list, epath), epath + "word")
        kappa[word] = complex(_get(e, "re", float, epath),
                              _get(e, "im", float, epath))
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
