"""One-shot baseline report of the ROADMAP "Baseline measured at this
re-anchor" table; it has no bounds and gates nothing.

    python3 bench/baseline.py

Runs every row once, in this order, in one fresh process, prints the
table and writes ``.freestein-bench/BENCH_baseline.json``.  Rows:

* cold ``noncrossing_partitions(12)``: time, count, peak RSS growth;
* all word moments of the centered free Poisson state, n=2 up to length
  10 and n=3 up to length 8 (partition cache warm, moment memo cold);
* ``poincare_lower_bound`` on a fresh semicircular n=2 state at d=4,
  then ``poincare_lower_bound`` / ``minimal_kernel`` with a warm memo
  at n=2, d=5 and n=3, d=4;
* ``mc_moment_table`` at N=200, 50 samples, two GUE coordinates, order
  6, with the time in ``eigvalsh`` and the ``einsum`` count and time;
* the monomial Dirichlet Gram condition number of the semicircle, n=1,
  at d = 4, 8, 12, 18, from the exact Catalan moment table;
* the sigma_d^2 and C_d sweeps for the centered free Poisson law, n=1,
  from its exact integer (Riordan) moment table, d = 1..18.
"""

import json
import math
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _timed(fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t


def _rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _Timer:
    """Wraps one numpy function to count calls and sum their time."""

    def __init__(self, owner, name):
        self.owner, self.name = owner, name
        self.original = getattr(owner, name)
        self.calls, self.seconds = 0, 0.0

    def __enter__(self):
        def wrapper(*args, **kwargs):
            t = time.perf_counter()
            try:
                return self.original(*args, **kwargs)
            finally:
                self.calls += 1
                self.seconds += time.perf_counter() - t

        setattr(self.owner, self.name, wrapper)
        return self

    def __exit__(self, *exc):
        setattr(self.owner, self.name, self.original)


def exact_table(n_moments, max_order, norm_upper=None):
    from freestein import MomentTable

    entries = {(1,) * m: float(n_moments(m)) for m in range(1, max_order + 1)}
    return MomentTable(1, max_order, entries, tracial=True,
                       norm_upper=norm_upper)


def catalan_moment(m):
    return 0 if m % 2 else math.comb(m, m // 2) // (m // 2 + 1)


def riordan_moment(m):
    return sum((-1) ** (m - k) * math.comb(m, k) * catalan_moment(2 * k)
               for k in range(m + 1))


def rows():
    import numpy as np

    from freestein import (EnsembleConfig, GueGenerator, SteinProblem,
                           centered_free_poisson, mc_moment_table,
                           minimal_kernel, noncrossing_partitions,
                           poincare_lower_bound, quadratic_potential,
                           semicircular)
    from freestein.states import dirichlet_gram, words_up_to

    out = []
    rss = _rss_mb()
    parts, t = _timed(noncrossing_partitions, 12)
    out.append({"what": "noncrossing_partitions(12) cold", "seconds": t,
                "partitions": len(parts), "rss_growth_mb": _rss_mb() - rss})

    for n, length in ((2, 10), (3, 8)):
        state = centered_free_poisson(n, max_order=length)
        words = words_up_to(n, length)
        _, t = _timed(lambda: [state.moment(w) for w in words])
        out.append({"what": "all word moments, centered free Poisson",
                    "n": n, "max_length": length, "words": len(words),
                    "seconds": t})

    _, t = _timed(poincare_lower_bound, semicircular(2, max_order=8), 4)
    out.append({"what": "poincare_lower_bound cold, semicircle",
                "n": 2, "d": 4, "seconds": t})
    for n, d in ((2, 5), (3, 4)):
        state = semicircular(n, max_order=2 * d)
        poincare_lower_bound(state, d)
        minimal_kernel(SteinProblem(state, quadratic_potential(n)), d)
        _, tp = _timed(poincare_lower_bound, state, d)
        _, tm = _timed(minimal_kernel,
                       SteinProblem(state, quadratic_potential(n)), d)
        out.append({"what": "poincare_lower_bound / minimal_kernel warm memo, "
                            "semicircle", "n": n, "d": d,
                    "poincare_s": tp, "minimal_kernel_s": tm})

    config = EnsembleConfig(size=200, samples=50, seed=0,
                            generators=(GueGenerator(), GueGenerator()))
    with _Timer(np.linalg, "eigvalsh") as eig, _Timer(np, "einsum") as ein:
        _, t = _timed(mc_moment_table, config, 6)
    out.append({"what": "mc_moment_table", "N": 200, "samples": 50, "n": 2,
                "order": 6, "seconds": t, "eigvalsh_s": eig.seconds,
                "einsum_calls": ein.calls, "einsum_s": ein.seconds})

    for d in (4, 8, 12, 18):
        gram = dirichlet_gram(exact_table(catalan_moment, 2 * d),
                              words_up_to(1, d, min_len=1))
        out.append({"what": "monomial Dirichlet Gram cond, semicircle",
                    "n": 1, "d": d, "cond": float(np.linalg.cond(gram))})

    table = exact_table(riordan_moment, 36, norm_upper=(3.0,))
    sigma, c_lower = {}, {}
    for d in range(1, 19):
        prob = SteinProblem(table, quadratic_potential(1))
        sigma[d] = minimal_kernel(prob, d).sigma_sq
        c_lower[d] = poincare_lower_bound(table, d).c_lower
    out.append({"what": "sigma_d^2 / C_d sweep, centered free Poisson, exact "
                        "integer moment table", "n": 1,
                "sigma_sq": sigma, "c_lower": c_lower})
    return out


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy

    report = {"python": sys.version.split()[0], "numpy": numpy.__version__,
              "nproc": len(os.sched_getaffinity(0)), "rows": rows()}
    out_dir = os.path.join(ROOT, ".freestein-bench")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "BENCH_baseline.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for row in report["rows"]:
        print(json.dumps(row))


if __name__ == "__main__":
    main()
