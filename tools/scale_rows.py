"""Wall time and peak RSS of cold reads and solves, one case per process.

    python3 tools/scale_rows.py            # every case, a to f
    python3 tools/scale_rows.py --case a   # one case, in this process

Each case runs with one BLAS thread, in a fresh interpreter unless
``--case`` names it.  Cases a, b
and c build a state over 3 letters to order 12, then time a cold
``poincare_lower_bound`` plus ``minimal_kernel`` (quadratic potential)
at degree 6, the 1,092 words of degree <= 6, and report that wall time
and the process's peak RSS (which includes building the state):

* a -- ``centered_free_poisson(3, 12)``, a cumulant state, with its
  class evaluations and stored class values after the solve next to
  the bracelet class count;
* b -- the rotated twin of ``bench/workloads.free_family_twins`` for
  three centered free Poisson coordinates, whose every word of length
  >= 3 has a mixed cumulant;
* c -- case a as a class-stored ``MomentTable``, one value per bracelet
  class, evaluated before the timer starts.

Case d times one cold ``CumulantState.moment`` of a word of length 12
over 30 letters (a non-cyclic spec to order 12: kappa(i, i) = 1 and
kappa(i, j, i) = 0.1 for i, j <= 3), which must not build the class
index of those letters, and prints the value read.

Case e builds a dense ``CumulantSpec`` under ``tracemalloc``, every word
of length 3..12 over 3 letters (797,148 cumulants, 0.5^|w| each), and
reports the memory the spec holds once its input dict is dropped, the
traced peak of generating and building it, and the memory one
``CumulantState`` built on the spec holds.

Case f samples one Monte Carlo table, ``mc_moment_table`` of two GUE
coordinates at N = 200, order 8, 20 draws, once its trace plan is
cached, and reports the wall time per draw and the minor page faults
of the table (``getrusage``).

One line is printed per case:

    <case> wall_s <seconds> peak_rss_mb <MB> [evaluations <k> stored <k> classes <k> | value <repr>]
    e traced_mb <MB> peak_mb <MB> state_mb <MB>
    f ms_per_draw <ms> minor_faults <count> peak_rss_mb <MB>
"""

import argparse
import os
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CASES = ("a", "b", "c", "d", "e", "f")
NVARS, ORDER, DEGREE = 3, 12, 6
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


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


def _lone_read():
    """(state, word) of case d."""
    from freestein import CumulantSpec, CumulantState

    kappa = {(i, i): 1.0 for i in range(1, 31)}
    kappa.update({(i, j, i): 0.1 for i in (1, 2, 3) for j in (1, 2, 3)})
    return (CumulantState(CumulantSpec(30, kappa, max_order=12)),
            (1, 2, 1, 1, 3, 1, 2, 2, 1, 3, 3, 1))


def _dense_spec_memory():
    """(held, peak) traced MB of case e's spec, and the traced MB one
    state on it holds."""
    import itertools
    import tracemalloc

    from freestein import CumulantSpec, CumulantState

    tracemalloc.start()
    kappa = {w: 0.5 ** m for m in range(3, ORDER + 1)
             for w in itertools.product(range(1, NVARS + 1), repeat=m)}
    spec = CumulantSpec(NVARS, kappa, max_order=ORDER)
    del kappa
    held, peak = tracemalloc.get_traced_memory()
    state = CumulantState(spec)
    state_held = tracemalloc.get_traced_memory()[0] - held
    tracemalloc.stop()
    assert state.spec is spec
    assert sum(1 for value in spec.blocks.values() if value) == 797148
    return held / 2**20, peak / 2**20, state_held / 2**20


def _mc_table():
    """(seconds per draw, minor page faults) of case f's table."""
    from freestein import matrixmodels

    config = matrixmodels.EnsembleConfig(
        size=200, samples=20, seed=5151,
        generators=(matrixmodels.GueGenerator(),) * 2)
    matrixmodels._trace_plan(2, 8)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    matrixmodels.mc_moment_table(config, 8)
    wall = time.perf_counter() - start
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    return wall / config.samples, faults


def run_case(case):
    if case == "f":
        per_draw, faults = _mc_table()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"f ms_per_draw {per_draw * 1e3:.2f} minor_faults {faults} "
              f"peak_rss_mb {peak:.1f}", flush=True)
        return
    if case == "e":
        held, peak, state = _dense_spec_memory()
        print(f"e traced_mb {held:.1f} peak_mb {peak:.1f} "
              f"state_mb {state:.3f}", flush=True)
        return
    if case == "d":
        phi, word = _lone_read()
        start = time.perf_counter()
        value = phi.moment(word)
        wall = time.perf_counter() - start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"d wall_s {wall:.4f} peak_rss_mb {peak:.1f} value {value!r}",
              flush=True)
        return
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
        # before numpy is imported, which reads them once
        os.environ.update(ONE_THREAD)
        sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
        run_case(args.case)
        return 0
    env = dict(os.environ, **ONE_THREAD)
    for case in CASES:
        done = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--case", case], env=env, check=False)
        if done.returncode:
            return done.returncode
    return 0


if __name__ == "__main__":
    sys.exit(main())
