"""sha256 digests of the benchmark workloads' inputs and op outputs.

    python3 tools/output_digests.py 701 901

The source tree and the benchmark are found next to this script, in
``src`` and ``bench``.  For each seed given and each workload of
``bench/workloads.py``, the inputs are generated by
``workloads.generate`` into a temporary directory, and the workload's
ops run one after another through ``freestein.cli.main`` in this
process, as a benchmark pass runs them, each writing its output with
``--out``.  One line is printed per input file and per op:

    <workload> <seed> input <file name> <sha256>
    <workload> <seed> op <op name> <exit code> <sha256 of the output>

so two source trees compare by a ``diff`` of their outputs.  The exit
status is 1 when an op exits non-zero or writes no output, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def workload_digests(generate, workload, seed, directory):
    """The printed lines of one workload at one seed, its inputs written
    by ``generate``, and whether every op exited 0 with an output."""
    import freestein.cli as cli

    inputs = os.path.join(directory, "inputs")
    ops = generate(workload, seed, inputs)
    lines = [f"{workload} {seed} input {name} {digest(os.path.join(inputs, name))}"
             for name in sorted(os.listdir(inputs))]
    ok = True
    for op in ops:
        out = os.path.join(directory, op.name + ".out")
        with contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(op.argv) + ["--out", out])
        written = os.path.exists(out)
        ok = ok and code == 0 and written
        lines.append(f"{workload} {seed} op {op.name} {code} "
                     f"{digest(out) if written else '-'}")
    return lines, ok


def main(argv=None):
    # one BLAS thread, as the benchmark runs, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)

    ok = True
    for seed in args.seeds:
        for workload in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as directory:
                lines, clean = workload_digests(workloads.generate,
                                                workload, seed, directory)
            print("\n".join(lines), flush=True)
            ok = ok and clean
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
