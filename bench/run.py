"""freestein benchmark: one seeded workload, measured for a fixed time.

    python3 bench/run.py --workload cumulant-solve --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The inputs of the workload are
generated from the seed and written before timing starts.  Then one
closed-loop client runs passes -- the workload's fixed op sequence
through ``freestein.cli.main`` -- each pass in a fresh worker process,
until the time is up (at least MIN_PASSES passes).  BLAS runs one
thread: on a small shared host, idle BLAS threads spinning beside the
interpreter thread made op latencies slower and far noisier.

With ``--trace 0`` the metrics are end to end: median set-up time of
the workers (SETUP_PROBES set-up-only workers plus the passes), median
pass wall time (the sum of the pass's op latencies), median op latency
over all passes and median worker peak RSS.  The times are rescaled to
a quiet host: other tenants of a shared host slow everything by up to
about 1.8x, in spells from under a second to minutes, so each worker
times a fixed calibration kernel after set-up and after every op, and
each time is scaled by the kernel times around it (see ``host_scale``);
the raw times and kernel times are kept in ``result.json``.  With
``--trace 1`` passes alternate between untraced and traced, and the
metrics are per layer, raw, taken from the traced passes;
``trace.overhead_s`` is the traced minus the untraced median pass wall
time.

Every op's output is checked (see ``checks``) and compared byte for byte
with the run's first pass; an op that exits non-zero or fails a check
counts as failed.  The last line of standard output is the JSON summary
``{"correct", "attempted", "failed", "metrics"}``; the full result, with
every op latency and the recorded environment, goes to
``.freestein-bench/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check_op, load_references

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".freestein-bench")

MIN_PASSES = 2
BLAS_THREADS = 1
# time of the calibration kernel on a quiet 2-vCPU Xeon host; the
# reported times are rescaled to it (see ``host_scale``)
CAL_REFERENCE_S = 0.04
# how strongly set-up time follows the kernel time, chosen like
# ``workloads.HOST_SENSITIVITY``
SETUP_SENSITIVITY = 0.7
SETUP_PROBES = 4
# a run must end within 180 s; no pass starts or runs past this
HARD_LIMIT_S = 165.0

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _get(d, key):
    return d.get(key, 0)


def _hit_ratio(tr):
    calls = _get(tr["calls"], "states.moment")
    evals = _get(tr["counts"], "states.moment_evals")
    return (calls - evals) / calls if calls else 0.0


# name -> (unit, value from one traced pass summary)
PER_LAYER = {
    "partitions.calls": ("count", lambda t: _get(t["calls"], "partitions")),
    "partitions.visited": ("count", lambda t: _get(t["counts"], "partitions.visited")),
    "partitions.s": ("s", lambda t: _get(t["inclusive_s"], "partitions")),
    "states.moment_calls": ("count", lambda t: _get(t["calls"], "states.moment")),
    "states.moment_evals": ("count", lambda t: _get(t["counts"], "states.moment_evals")),
    "states.moment_hit_ratio": ("ratio", _hit_ratio),
    "states.moment_s": ("s", lambda t: _get(t["self_s"], "states.moment")),
    "states.table_lookups": ("count", lambda t: _get(t["counts"], "states.table_lookups")),
    "states.tensor_moment_calls": ("count", lambda t: _get(t["calls"], "states.tensor_moment")),
    "states.tensor_moment_s": ("s", lambda t: _get(t["inclusive_s"], "states.tensor_moment")),
    "states.dirichlet_gram_s": ("s", lambda t: _get(t["inclusive_s"], "states.dirichlet_gram")),
    "states.dirichlet_gram_dim": ("count", lambda t: max(t["gram_dims"], default=0)),
    "states.dirichlet_cond_max": ("ratio", lambda t: max(t["gram_conds"], default=0.0)),
    "states.covariance_gram_s": ("s", lambda t: _get(t["inclusive_s"], "states.covariance_gram")),
    "states.validate_s": ("s", lambda t: _get(t["self_s"], "states.validate")),
    "algebra.sharp_calls": ("count", lambda t: _get(t["calls"], "algebra.sharp")),
    "algebra.sharp_s": ("s", lambda t: _get(t["inclusive_s"], "algebra.sharp")),
    "algebra.partial_derivative_calls": (
        "count", lambda t: _get(t["counts"], "algebra.partial_derivative_calls")),
    "algebra.explicit_kernel_s": ("s", lambda t: _get(t["inclusive_s"], "algebra.explicit_kernel")),
    "stein.minimal_kernel_s": ("s", lambda t: _get(t["self_s"], "stein.minimal_kernel")),
    "stein.discrepancy_bounds_s": ("s", lambda t: _get(t["self_s"], "stein.discrepancy_bounds")),
    "stein.explicit_distance_s": ("s", lambda t: _get(t["inclusive_s"], "stein.explicit_distance")),
    "stein.eig_s": ("s", lambda t: _get(t["inclusive_s"], "stein.eig")),
    "poincare.lower_bound_s": ("s", lambda t: _get(t["self_s"], "poincare.lower_bound")),
    "poincare.eig_s": ("s", lambda t: _get(t["inclusive_s"], "poincare.eig")),
    "poincare.eig_max_dim": ("count", lambda t: _get(t["counts"], "poincare.eig_max_dim")),
    "clt.rate_table_s": ("s", lambda t: _get(t["self_s"], "clt.rate_table")),
    "clt.rows": ("count", lambda t: _get(t["counts"], "clt.rows")),
    "matrixmodels.mc_table_s": ("s", lambda t: _get(t["self_s"], "matrixmodels.mc_table")),
    "matrixmodels.sample_s": ("s", lambda t: _get(t["inclusive_s"], "matrixmodels.sample")),
    "matrixmodels.norm_eig_s": ("s", lambda t: _get(t["inclusive_s"], "matrixmodels.norm_eig")),
    "matrixmodels.samples": ("count", lambda t: _get(t["counts"], "matrixmodels.samples")),
    "matrixmodels.trace_gflop": ("GFLOP", lambda t: _get(t["counts"], "matrixmodels.trace_gflop")),
    "serialize.parse_s": ("s", lambda t: _get(t["inclusive_s"], "serialize.parse")),
    "serialize.in_bytes": ("B", lambda t: _get(t["counts"], "serialize.in_bytes")),
    "serialize.dumps_s": ("s", lambda t: _get(t["inclusive_s"], "serialize.dumps")),
    "serialize.out_bytes": ("B", lambda t: _get(t["counts"], "serialize.out_bytes")),
    "cli.self_s": ("s", lambda t: _get(t["self_s"], "cli.main")),
}
TRACE_WALL = ("trace.wall_s", "trace.overhead_s")

# a layer's self times must add up to the op's cli.main span
SELF_SUM_ATOL_S = 1e-6


def git_commit(root):
    """Commit of a git checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def run_worker(spec_path, timeout):
    """One pass in a fresh process; the result object, or None and a reason."""
    with open(spec_path) as fh:
        result_path = json.load(fh)["result"]
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=timeout, check=False,
        )
    except subprocess.TimeoutExpired:
        return None, f"worker timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not os.path.exists(result_path):
        return None, proc.stderr.decode(errors="replace")[-2000:]
    with open(result_path) as fh:
        return json.load(fh), None


def judge_pass(ops, result, out_dir, first_outputs, references):
    """Mark each op of one pass ok or failed; return (records, outputs)."""
    outputs = {}
    for op in ops:
        path = os.path.join(out_dir, op.name + ".out")
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[op.name] = fh.read()
    records = []
    by_name = {r["name"]: r for r in (result or {}).get("ops", [])}
    for op in ops:
        rec = dict(by_name.get(op.name, {"name": op.name, "code": None}))
        problems = []
        if rec["code"] != 0:
            problems.append(f"exit code {rec['code']}")
        else:
            problems += check_op(op, outputs, references)
            if first_outputs is not None and outputs.get(op.name) != first_outputs.get(op.name):
                problems.append("output differs from the first pass")
        rec["problems"] = problems
        records.append(rec)
    return records, outputs


def trace_problems(result):
    problems = []
    for name, c in result["trace"]["op_checks"].items():
        if abs(c["self_sum_s"] - c["cli_main_s"]) > SELF_SUM_ATOL_S:
            problems.append(f"{name}: layer self times sum to {c['self_sum_s']!r}, "
                            f"cli.main span is {c['cli_main_s']!r}")
    return problems


def host_scale(cal_s, sensitivity):
    """Factor that rescales a time to a quiet host, one on which the
    calibration kernel (``worker.calibrate``) takes CAL_REFERENCE_S,
    given the kernel time ``cal_s`` measured around it."""
    return (CAL_REFERENCE_S / cal_s) ** sensitivity


def adjusted_latencies(result, sensitivity):
    """Op latencies of one worker, each rescaled by the mean of the
    kernel times just before and just after the op."""
    cals = result["cal_s"]
    return [op["latency_s"] * host_scale((cals[k] + cals[k + 1]) / 2, sensitivity)
            for k, op in enumerate(result["ops"])]


def adjusted_setup(result):
    return result["setup_s"] * host_scale(result["cal_s"][0], SETUP_SENSITIVITY)


def summarize(passes, setups, trace, sensitivity):
    """Reported metrics: end to end from the untraced passes, per layer from
    the traced ones."""
    plain = [p["result"] for p in passes if not p["traced"]]
    if not trace:
        latencies = [adjusted_latencies(r, sensitivity) for r in plain]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(sum(lat) for lat in latencies),
            "op_p50_ms": 1000.0 * statistics.median(x for lat in latencies for x in lat),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        }
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    traced = [p["result"] for p in passes if p["traced"]]
    metrics = {name: {"value": statistics.median(float(fn(r["trace"])) for r in traced),
                      "unit": unit} for name, (unit, fn) in PER_LAYER.items()}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    plain_wall = statistics.median(r["wall_s"] for r in plain)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    return metrics


def write_spec(run_dir, name, ops, traced):
    spec_path = os.path.join(run_dir, name + ".json")
    with open(spec_path, "w") as fh:
        json.dump({"src": SRC, "ops": [[op.name, list(op.argv)] for op in ops],
                   "out_dir": os.path.join(run_dir, name), "trace": traced,
                   "result": os.path.join(run_dir, name + "-result.json")}, fh)
    return spec_path


def run_passes(ops, run_dir, seconds, trace, deadline):
    """Closed loop: one pass after another until ``seconds`` are used up
    (the last pass may end up to half a pass late), at least MIN_PASSES.
    With ``trace`` every second pass is traced."""
    references = load_references()
    passes, first_outputs = [], None
    begin = time.perf_counter()
    while len(passes) < MIN_PASSES or (
            time.perf_counter() - begin
            + statistics.mean(p["pass_s"] for p in passes) / 2 < seconds):
        remaining = deadline - time.perf_counter()
        if remaining < 5:
            break
        k = len(passes)
        traced = bool(trace) and k % 2 == 1
        spec_path = write_spec(run_dir, f"pass{k}", ops, traced)
        t = time.perf_counter()
        result, error = run_worker(spec_path, remaining)
        pass_s = time.perf_counter() - t
        records, outputs = judge_pass(ops, result, os.path.join(run_dir, f"pass{k}"),
                                      first_outputs, references)
        first_outputs = outputs if first_outputs is None else first_outputs
        problems = [error] if error else []
        if result is not None and traced:
            problems += trace_problems(result)
        passes.append({"pass": k, "traced": traced, "pass_s": pass_s,
                       "result": result, "ops": records, "problems": problems})
        if result is None:
            break
    return passes


def run(workload, seed, seconds, trace):
    import numpy
    import workloads

    deadline = time.perf_counter() + HARD_LIMIT_S
    run_dir = os.path.join(OUT, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(run_dir, ignore_errors=True)
    ops = workloads.generate(workload, seed, os.path.join(run_dir, "inputs"))

    # set-up only workers, so that set-up is measured more often than
    # there are passes; their medians include the passes' set-ups
    workers = []
    for k in range(SETUP_PROBES):
        result, _ = run_worker(write_spec(run_dir, f"setup{k}", [], False),
                               deadline - time.perf_counter())
        if result is not None:
            workers.append(result)
    passes = run_passes(ops, run_dir, seconds, trace, deadline)
    workers += [p["result"] for p in passes if p["result"]]
    setups = [adjusted_setup(r) for r in workers]

    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(1 for p in passes for r in p["ops"] if r["problems"])
    complete = all(p["result"] is not None for p in passes) and (
        not trace or any(p["traced"] for p in passes))
    correct = failed == 0 and complete and not any(p["problems"] for p in passes)
    metrics = (summarize(passes, setups, trace, workloads.HOST_SENSITIVITY[workload])
               if complete else {})

    for p in passes:
        for r in p["ops"]:
            if r["problems"]:
                print(f"pass {p['pass']} op {r['name']}: {'; '.join(r['problems'])}",
                      file=sys.stderr)
        for problem in p["problems"]:
            print(f"pass {p['pass']}: {problem}", file=sys.stderr)

    spans = {p["pass"]: p["result"]["trace"].pop("spans")
             for p in passes if p["result"] and "trace" in p["result"]}
    if spans:
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump(spans, fh)
    nproc = len(os.sched_getaffinity(0))
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace),
        "environment": {
            "nproc": nproc, "blas_threads": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(ROOT), "platform": platform.platform(),
        },
        "ops": [{"name": op.name, "argv": list(op.argv)} for op in ops],
        "op_latencies_s": {op.name: [r.get("latency_s") for p in passes
                                     for r in p["ops"] if r["name"] == op.name]
                           for op in ops},
        "setup_s": [r["setup_s"] for r in workers],
        "cal_s": [r["cal_s"] for r in workers],
        "cal_reference_s": CAL_REFERENCE_S,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted if attempted else 1.0,
        "correct": correct, "metrics": metrics,
        "passes": [{k: v for k, v in p.items() if k != "result"}
                   | {k: (p["result"] or {}).get(k)
                      for k in ("setup_s", "wall_s", "peak_rss_mb", "trace")}
                   for p in passes],
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads; workers inherit it
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "freestein", "__init__.py")):
        print(f"freestein sources not found under {SRC}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    summary = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
