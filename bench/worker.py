"""One pass of a workload in a fresh process.

    python3 bench/worker.py <pass.json>

``pass.json`` names the source tree, the ops (name and CLI argv), the
output directory, whether to trace and where to write the result.  The
worker times its own set-up (importing freestein plus one warm-up
LAPACK call, so a slow first eigensolve lands there and not in the
first op), then sends the ops one after another through
``freestein.cli.main`` in process, each writing its output file with
``--out``.  The BLAS thread cap is set by the parent in the
environment before numpy is imported here.

A shared host runs everything up to about 1.8x slower for spells from
under a second to minutes, as other tenants come and go.  So the
worker times a fixed calibration kernel (``calibrate``) after set-up
and after each op; the parent rescales each op latency by the mean of
the kernel times on either side of it, and the set-up time by the
first.
"""

import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402


def calibrate():
    """Seconds for a fixed kernel of interpreter work like freestein's:
    tuple-keyed dict updates and Fraction arithmetic."""
    t = time.perf_counter()
    table = {}
    acc = Fraction(0)
    for i in range(12000):
        key = (i % 5, i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
        acc += Fraction(i % 97 + 1, i % 89 + 1)
    return time.perf_counter() - t


def run_pass(ops, out_dir, trace=False, t0=None):
    """Run ``ops`` ([name, argv] pairs) in this process; return the result
    object.  ``t0`` is when set-up began (default: now)."""
    t0 = time.perf_counter() if t0 is None else t0
    import numpy as np

    import freestein.cli as cli

    rng = np.random.default_rng(0)
    a = rng.standard_normal((64, 64))
    np.linalg.eigh(a + a.T)
    setup_s = time.perf_counter() - t0
    calibrate()  # untimed: the first call warms the kernel up
    cals = [calibrate()]

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    os.makedirs(out_dir, exist_ok=True)
    results = []
    try:
        for name, argv in ops:
            out = os.path.join(out_dir, name + ".out")
            err = io.StringIO()
            if tracer is not None:
                tracer.op = name
            t = time.perf_counter()
            try:
                with contextlib.redirect_stderr(err):
                    code = cli.main(list(argv) + ["--out", out])
            except Exception:  # an escaped exception fails the op, not the pass
                code = -1
                err.write(traceback.format_exc())
            latency_s = time.perf_counter() - t
            cals.append(calibrate())
            results.append({"name": name, "code": code, "latency_s": latency_s,
                            "stderr": err.getvalue()[-2000:]})
    finally:
        if tracer is not None:
            tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "cal_s": cals,
        "wall_s": sum(r["latency_s"] for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": results,
    }
    if tracer is not None:
        result["trace"] = trace_summary(tracer, [name for name, _ in ops])
    return result


def trace_summary(tracer, names):
    """Per-pass layer totals plus the self-time consistency of each op."""
    from tracer import effective_cond

    checks = {}
    for name in names:
        total, root = tracer.op_self_check(name)
        checks[name] = {"self_sum_s": total, "cli_main_s": root}
    conds = [effective_cond(g) for g in tracer.grams]
    return {
        "self_s": dict(tracer.self_by_layer()),
        "inclusive_s": dict(tracer.inclusive),
        "calls": dict(tracer.calls_by_layer()),
        "counts": dict(tracer.counts),
        "gram_dims": [len(g) for g in tracer.grams],
        "gram_conds": conds,
        "op_checks": checks,
        "spans": tracer.spans_obj(),
    }


def main(path):
    with open(path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    result = run_pass(spec["ops"], spec["out_dir"], spec["trace"], t0=T0)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
