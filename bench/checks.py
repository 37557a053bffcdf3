"""Output checks of the benchmark ops.

``check_op`` returns the list of problems of one op's output (empty
when it passes).  An op fails when it exits non-zero, when it has a
problem here, or when its output differs byte for byte from the same
op's output in the run's first pass.

* stein: ``sigma_lower_sq <= upper_explicit_sq``.
* poincare: ``c_lower <= voiculescu_tracial`` when every norm estimate
  carries an ``upper`` (all benchmark states are tracial).
* rotated twins: C_d and sigma_d^2 are invariant under an orthogonal
  change of variables, so ``c_lower``, ``sigma_lower_sq`` and the clt
  ``sigma_d_lower`` column agree with the unrotated twin within
  TWIN_RTOL.
* references: the fixed-seed table-solve ops match ``references.json``
  within its ``rtol``.
* mc: the pure-power moments phi(t_i^m) lie within MC_SIGMAS standard
  errors plus MC_BIAS_PER_N / N of their free limits: Catalan numbers
  for a GUE coordinate, Riordan numbers (centered free Poisson moments,
  computed here from binomials) for g^2 - 1.
"""

from __future__ import annotations

import json
import math
import os

TWIN_RTOL = 1e-8
BOUND_SLACK = 1e-9
MC_SIGMAS = 6.0
# finite-N bias of the normalized trace moments is O(1/N^2) with small
# constants at the orders used; this allowance is 0.0025 at N = 200
MC_BIAS_PER_N = 0.5

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "references.json")


def catalan(m):
    return math.comb(2 * m, m) // (m + 1)


def free_limit(law, m):
    """m-th moment of the standard semicircle or of g^2 - 1."""
    if law == "catalan":
        return 0 if m % 2 else catalan(m // 2)
    if law == "riordan":
        return sum((-1) ** (m - k) * math.comb(m, k) * catalan(k)
                   for k in range(m + 1))
    raise ValueError(f"unknown limit law {law!r}")


def load_references():
    with open(REFERENCES) as fh:
        return json.load(fh)


def parse_output(command, data):
    """JSON object for stein/poincare/mc/derive, list of row dicts for clt."""
    text = data.decode()
    if command == "clt":
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, map(float, line.split(","))))
                for line in lines[1:]]
    return json.loads(text)


def _close(a, b, rtol, atol=1e-14):
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def check_op(op, outputs, references=None):
    """Problems of ``op``'s output; ``outputs`` maps op names to bytes."""
    try:
        obj = parse_output(op.command, outputs[op.name])
    except (KeyError, ValueError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
    problems = []
    if op.command == "stein":
        if not obj["sigma_lower_sq"] <= obj["upper_explicit_sq"] * (
                1 + BOUND_SLACK) + BOUND_SLACK:
            problems.append("sigma_lower_sq exceeds upper_explicit_sq")
    elif op.command == "poincare":
        if all(e["upper"] is not None for e in obj["norm_estimates"]) and not (
                obj["c_lower"] <= obj["voiculescu_tracial"]):
            problems.append("c_lower exceeds voiculescu_tracial")
    elif op.command == "mc":
        problems += _mc_problems(op, obj)
    elif op.command == "derive":
        if obj.get("size") != obj.get("nvars") or len(obj["entries"]) != obj["size"]:
            problems.append("explicit kernel has the wrong shape")

    if op.twin is not None:
        problems += _twin_problems(op, obj, outputs)
    if op.reference is not None:
        refs = references if references is not None else load_references()
        want = refs["values"][op.reference]
        for key, value in want.items():
            if not _close(obj[key], value, refs["rtol"]):
                problems.append(f"{key} = {obj[key]!r}, reference {value!r}")
    return problems


def _twin_problems(op, obj, outputs):
    try:
        other = parse_output(op.command, outputs[op.twin])
    except (KeyError, ValueError, IndexError):
        return [f"twin {op.twin} has no readable output"]
    if op.command == "clt":
        if len(obj) != len(other):
            return ["twin clt tables differ in length"]
        pairs = [(a["sigma_d_lower"], b["sigma_d_lower"])
                 for a, b in zip(obj, other)]
    else:
        key = "c_lower" if op.command == "poincare" else "sigma_lower_sq"
        pairs = [(obj[key], other[key])]
    return [f"twin disagreement {a!r} vs {b!r}" for a, b in pairs
            if not _close(a, b, TWIN_RTOL)]


def _mc_problems(op, obj):
    entries = {tuple(e["word"]): e for e in obj["entries"]}
    size = None
    problems = []
    for i, law in enumerate(op.mc_limits, start=1):
        for m in range(1, obj["max_order"] + 1):
            e = entries.get((i,) * m)
            if e is None:
                problems.append(f"missing moment of t{i}^{m}")
                continue
            if size is None:
                size = _ensemble_size(op)
            tol = MC_SIGMAS * e["stderr"] + MC_BIAS_PER_N / size
            if abs(e["re"] - free_limit(law, m)) > tol:
                problems.append(
                    f"phi(t{i}^{m}) = {e['re']!r}, free limit "
                    f"{free_limit(law, m)} (tolerance {tol:.3g})")
    return problems


def _ensemble_size(op):
    path = op.argv[op.argv.index("--ensemble") + 1]
    with open(path) as fh:
        return json.load(fh)["N"]
