"""Record the table-solve reference numbers into references.json.

    python3 bench/record_references.py

The reference ops read a table built from ``workloads.REFERENCE_SEED``
whatever the run seed is, so these numbers pin the outputs of the
commit they were recorded at.  Run it only when a change to the
numbers is intended, and say why in the change.
"""

import json
import os
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

FIELDS = {
    "poincare": ("c_lower", "voiculescu_tracial", "null_dim"),
    "stein": ("sigma_lower_sq", "upper_explicit_sq", "upper_poincare_sq",
              "gram_rank"),
}
RTOL = 1e-7


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads
    from freestein import cli
    from run import git_commit

    values = {}
    with tempfile.TemporaryDirectory(dir=BENCH) as tmp:
        for op in workloads.generate("table-solve", 0, tmp):
            if op.reference is None:
                continue
            out = os.path.join(tmp, op.name + ".out")
            if cli.main(list(op.argv) + ["--out", out]) != 0:
                raise SystemExit(f"reference op {op.name} failed")
            with open(out) as fh:
                obj = json.load(fh)
            values[op.reference] = {k: obj[k] for k in FIELDS[op.command]}
    with open(os.path.join(BENCH, "references.json"), "w") as fh:
        json.dump({"recorded_at": git_commit(ROOT), "rtol": RTOL,
                   "values": values}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
