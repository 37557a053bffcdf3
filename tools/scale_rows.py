"""Wall time and peak RSS of cold n = 3, d = 6 solves, one case per process.

    python3 tools/scale_rows.py            # every case, a, b and c
    python3 tools/scale_rows.py --case a   # one case, in this process

Each case runs in a fresh interpreter with one BLAS thread.  It builds a
state over 3 letters to order 12, then times a cold
``poincare_lower_bound`` plus ``minimal_kernel`` (quadratic potential)
at degree 6, the 1,092 words of degree <= 6, and reports that wall time
and the process's peak RSS (which includes building the state):

* a -- ``centered_free_poisson(3, 12)``, a cumulant state, with its
  class evaluations and stored class values after the solve next to
  the bracelet class count;
* b -- the rotated twin of ``bench/workloads.free_family_twins`` for
  three centered free Poisson coordinates, whose every word of length
  >= 3 has a mixed cumulant;
* c -- case a as a class-stored ``MomentTable``, one value per bracelet
  class, evaluated before the timer starts.

One line is printed per case:

    <case> wall_s <seconds> peak_rss_mb <MB> [evaluations <k> stored <k> classes <k>]
"""

import argparse
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = ("a", "b", "c")
NVARS, ORDER, DEGREE = 3, 12, 6


def _state(case, states):
    from freestein import serialize

    if case == "b":
        import numpy as np
        import workloads

        obj = workloads.free_family_twins(np.random.default_rng(12),
                                          ("poisson",) * NVARS, ORDER)[1]
        return serialize.cumulant_state_from_obj(obj)
    phi = states.centered_free_poisson(NVARS, ORDER)
    if case == "c":
        reps = states.bracelet_classes(NVARS, ORDER)[0]
        values = phi.word_moments(reps).tolist()
        return states.MomentTable.from_bracelets(
            NVARS, ORDER, dict(zip(reps, values)), norm_upper=phi.norm_upper)
    return phi


def run_case(case):
    from freestein import (SteinProblem, minimal_kernel, poincare_lower_bound,
                           quadratic_potential, states)

    evaluations = []
    first_block_sum = states._first_block_sum

    def counted(*args):
        evaluations.append(1)
        return first_block_sum(*args)

    phi = _state(case, states)
    states._first_block_sum = counted
    start = time.perf_counter()
    poincare_lower_bound(phi, DEGREE)
    minimal_kernel(SteinProblem(phi, quadratic_potential(NVARS)), DEGREE)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    line = f"{case} wall_s {wall:.3f} peak_rss_mb {peak:.1f}"
    if case == "a":
        classes = len(states.bracelet_classes(NVARS, ORDER)[0])
        line += (f" evaluations {len(evaluations)} stored "
                 f"{len(phi._memo) - 1} classes {classes}")
    print(line, flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--case", choices=CASES)
    args = parser.parse_args(argv)
    if args.case:
        sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
        run_case(args.case)
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    for case in CASES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--case", case], env=env, check=False)
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
