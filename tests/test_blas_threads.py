"""The CLI writes the same bytes at one and at two BLAS threads.

Each command runs as ``python -m freestein.cli`` in a fresh process
under ``OPENBLAS_NUM_THREADS`` = ``OMP_NUM_THREADS`` = 1 and then 2, at
the sizes of the benchmark: a two-variable free family given by its
cumulants, and the trace state of three 16 x 16 Hermitian matrices.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import freestein
from freestein import moment_table_from_matrices, serialize

SRC = str(Path(freestein.__file__).resolve().parents[1])


def _run(argv, threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run([sys.executable, "-m", "freestein.cli", *argv],
                          env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("threads")
    # a semicircular and a centered free Poisson coordinate, free
    cumulants = {"nvars": 2, "max_order": 8, "kappa": [
        {"word": [1, 1], "re": 1.0, "im": 0.0},
        *({"word": [2] * m, "re": 1.0, "im": 0.0} for m in range(2, 9))]}
    rng = np.random.default_rng(901)
    mats = []
    for _ in range(3):
        a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        h = (a + a.conj().T) / 2
        mats.append(h - np.trace(h).real / 16 * np.eye(16))
    table = serialize.table_to_obj(moment_table_from_matrices(mats, 8))
    ensemble = {"N": 200, "samples": 20, "seed": 901,
                "generators": [{"kind": "gue"}] * 2}
    paths = {}
    for name, obj in (("cumulants", cumulants), ("state", table),
                      ("ensemble", ensemble)):
        path = paths[name] = str(directory / f"{name}.json")
        with open(path, "w") as fh:
            fh.write(serialize.dumps(obj))
    return paths


MC = "mc", "--ensemble", "ensemble", "--max-order", "6"


@pytest.mark.parametrize("argv", [
    ("poincare", "--cumulants", "cumulants", "--degree", "4"),
    ("stein", "--cumulants", "cumulants", "--degree", "4"),
    ("clt", "--cumulants", "cumulants", "--ks", "1,2,4,8", "--degree", "3"),
    ("poincare", "--state", "state", "--degree", "4"),
    ("stein", "--state", "state", "--degree", "4"),
    pytest.param(MC, marks=pytest.mark.xfail(
        strict=False, reason="Monte Carlo word traces and norm "
        "certificates reduce in a thread-dependent order")),
], ids=lambda argv: "-".join(argv[:2]).replace("--", ""))
def test_output_bytes_do_not_depend_on_blas_threads(inputs, argv):
    argv = [inputs.get(arg, arg) for arg in argv]
    assert _run(argv, 1) == _run(argv, 2)
