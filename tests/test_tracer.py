"""The benchmark's layer tracer still finds the names it wraps.

``bench/tracer.py`` patches ``states.noncrossing_partitions`` and
``CumulantState.moment`` and reads ``CumulantState._memo``; it also
patches ``dirichlet_gram``, ``tensor_moment`` and
``partial_derivative`` where ``stein`` and ``poincare`` bind them, and
keeps the Gram that ``dirichlet_gram(phi, words)`` returns.  It wraps
``cli.mc_moment_table``, ``matrixmodels.sample_gue`` and
``matrixmodels.eval_poly_matrices``, and ``numpy.linalg.eigvalsh``,
which the Monte Carlo backend must call through those module
attributes (the eigensolve of coordinate 1's tridiagonal model
included, where LAPACK ``dsterf`` is not called directly).  These tests run traced CLI ops so that renaming any of
them fails here, not only in ``bench/run.py --trace 1``.
"""

import importlib.util
import json
import os

import numpy as np

import bruteforce
from conftest import trace_state
from freestein import (centered_free_poisson, cli, matrixmodels, semicircular,
                       serialize, states)

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_cumulant_moments(tmp_path, capsys):
    sc = semicircular(2, max_order=6)
    path = tmp_path / "sc2.json"
    path.write_text(serialize.dumps(
        serialize.cumulants_to_obj(sc.spec, norm_upper=sc.norm_upper)))
    moment = states.CumulantState.moment
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        # through the module attribute, which the tracer wraps
        code = cli.main(["poincare", "--cumulants", str(path), "--degree", "2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert states.CumulantState.moment is moment
    calls = tracer.calls_by_layer()
    assert calls["states.moment"] > 0
    assert calls["cli.main"] == 1
    assert tracer.counts["states.moment_evals"] > 0
    assert tracer.counts["partitions.visited"] == 0


def test_tracer_counts_one_moment_eval_per_class(tmp_path, capsys):
    # the op asks for words of every length up to 8; each bracelet class
    # misses the memo once, and its first miss fills the whole class
    fp = centered_free_poisson(2, max_order=8)
    path = tmp_path / "fp2.json"
    path.write_text(serialize.dumps(
        serialize.cumulants_to_obj(fp.spec, norm_upper=fp.norm_upper)))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["stein", "--cumulants", str(path), "--degree", "4"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    assert tracer.counts["states.moment_evals"] == \
        len(bruteforce.bracelets_up_to(2, 8, min_len=1)) == 84


def test_tracer_records_dirichlet_grams(tmp_path, capsys):
    phi, _ = trace_state(np.random.default_rng(3), 2, 4, 4, centered=True)
    path = tmp_path / "table.json"
    path.write_text(serialize.dumps(serialize.table_to_obj(phi)))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["stein", "--state", str(path), "--degree", "2"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = tracer.calls_by_layer()
    # one Gram over the 6 nonconstant words of degree <= 2, factored once
    # for both poincare and minimal_kernel
    assert calls["states.dirichlet_gram"] == 1
    assert [len(g) for g in tracer.grams] == [6]
    assert all(g.shape == (len(g), len(g)) for g in tracer.grams)
    assert tracer.counts["states.table_lookups"] > 0


def test_tracer_records_mc_samples(tmp_path, capsys):
    samples = 3
    path = tmp_path / "ens.json"
    path.write_text(json.dumps({"N": 10, "samples": samples, "seed": 5,
                                "generators": [{"kind": "gue"}, {"kind": "gue"}]}))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        code = cli.main(["mc", "--ensemble", str(path), "--max-order", "4"])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert code == 0
    calls = tracer.calls_by_layer()
    assert calls["matrixmodels.mc_table"] == 1
    # coordinate 1 is drawn as eigenvalues, by dsterf on its tridiagonal
    # model, no eigvalsh and no dense draw; coordinate 2 is one dense draw
    # per sample, eigensolved only where it sets a new running max (the
    # Cholesky certificate proves every other one below it)
    assert calls["matrixmodels.sample"] == samples
    config = serialize.ensemble_from_obj(json.loads(path.read_text()))
    records = bruteforce.norm_records(config)[1]
    assert 1 <= records < samples
    spectra = 0 if matrixmodels._lapack() else samples
    assert calls["matrixmodels.norm_eig"] == spectra + records
    assert tracer.counts["matrixmodels.samples"] == samples
