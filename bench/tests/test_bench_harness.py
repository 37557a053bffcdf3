"""Tests of the benchmark's own code.

    python3 -m pytest bench/tests
"""

import json
import os
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import run_pass  # noqa: E402

from freestein import serialize, validate_state  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def test_generated_states_pass_validation(tmp_path):
    for workload in ("cumulant-solve", "table-solve"):
        workloads.generate(workload, 7, tmp_path / workload)
        for name, data in _files(tmp_path / workload).items():
            obj = json.loads(data)
            if "kappa" in obj:
                state = serialize.cumulant_state_from_obj(obj)
            elif "entries" in obj and "max_order" in obj:
                state = serialize.table_from_obj(obj)
            else:
                continue
            assert validate_state(state) == [], name
            assert state.tracial, name
    workloads.generate("mc-sample", 7, tmp_path / "mc")
    for data in _files(tmp_path / "mc").values():
        config = serialize.ensemble_from_obj(json.loads(data))
        assert (config.size, config.samples) == (workloads.MC_SIZE,
                                                 workloads.MC_SAMPLES)


def test_rotated_twin_is_dense_and_plain_twin_sparse(tmp_path):
    workloads.generate("cumulant-solve", 3, tmp_path)
    plain = json.loads((tmp_path / "n2-plain.json").read_text())
    rotated = json.loads((tmp_path / "n2-rot.json").read_text())
    assert all(len(set(e["word"])) == 1 for e in plain["kappa"])
    kappa = {tuple(e["word"]): e["re"] for e in rotated["kappa"]}
    assert {w: v for w, v in kappa.items() if len(w) == 2} == {(1, 1): 1.0,
                                                             (2, 2): 1.0}
    assert sum(len(w) > 2 for w in kappa) == sum(2 ** m for m in range(3, 9))
    assert all(kappa.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    ops_a = workloads.generate(workload, 11, tmp_path / "a")
    ops_b = workloads.generate(workload, 11, tmp_path / "b")
    workloads.generate(workload, 12, tmp_path / "c")
    a, b, c = (_files(tmp_path / x) for x in "abc")
    assert a == b
    assert a != c
    assert [op.name for op in ops_a] == [op.name for op in ops_b]


def test_self_times_on_a_synthetic_span_tree():
    now = [0.0]

    def clock():
        return now[0]

    def work(dt):
        now[0] += dt

    mod = types.SimpleNamespace()

    def root():
        work(1.0)
        mod.child()
        work(0.5)
        mod.leaf()
        mod.leaf()

    def child():
        work(2.0)
        mod.leaf()
        work(0.25)

    def leaf():
        work(0.125)

    mod.root, mod.child, mod.leaf = root, child, leaf
    tracer = Tracer(clock=clock)
    tracer.patch(mod, "root", "cli.main")
    tracer.patch(mod, "child", "stein.minimal_kernel")
    tracer.patch(mod, "leaf", "states.moment", coarse=False)
    tracer.op = "op"
    mod.root()
    tracer.uninstall()

    self_s = tracer.self_by_layer()
    assert self_s["cli.main"] == 1.5
    assert self_s["stein.minimal_kernel"] == 2.25
    assert self_s["states.moment"] == 3 * 0.125
    assert tracer.calls_by_layer()["states.moment"] == 3
    assert tracer.inclusive["stein.minimal_kernel"] == 2.375
    total, root_s = tracer.op_self_check("op")
    assert total == root_s == 4.125
    spans = tracer.spans_obj()["spans"]
    assert [s["parent"] for s in spans] == [None, 0]
    assert mod.root is root


def test_host_rescaling_uses_the_kernel_times_around_each_op():
    ref = run.CAL_REFERENCE_S
    result = {"setup_s": 0.2, "cal_s": [ref, 3 * ref, 2 * ref],
              "ops": [{"latency_s": 1.0}, {"latency_s": 4.0}]}
    assert run.adjusted_latencies(result, 1.0) == pytest.approx([0.5, 1.6])
    assert run.adjusted_latencies(result, 0.0) == pytest.approx([1.0, 4.0])
    assert run.adjusted_latencies(result, 0.5) == pytest.approx(
        [0.5 ** 0.5, 4.0 * 0.4 ** 0.5])
    assert run.adjusted_setup(result) == pytest.approx(0.2)


def test_checks_catch_twin_and_bound_violations():
    op = workloads.Op("poincare-rot", ("poincare",), twin="poincare-plain")
    report = {"c_lower": 1.5, "voiculescu_tracial": 10.0,
              "norm_estimates": [{"upper": 2.0}]}
    same = json.dumps(report).encode()
    shifted = json.dumps(dict(report, c_lower=1.5 * (1 + 1e-6))).encode()
    assert checks.check_op(op, {"poincare-rot": same, "poincare-plain": same}) == []
    assert checks.check_op(op, {"poincare-rot": shifted, "poincare-plain": same})
    above = json.dumps(dict(report, c_lower=11.0)).encode()
    assert checks.check_op(workloads.Op("p", ("poincare",)), {"p": above})
    assert [checks.free_limit("riordan", m) for m in range(7)] == [1, 0, 1, 1, 3, 6, 15]
    assert [checks.free_limit("catalan", m) for m in range(7)] == [1, 0, 1, 0, 2, 0, 5]


def test_fail_frac_counts_corrupted_input_ops(tmp_path):
    ops = [op for op in workloads.generate("table-solve", 5, tmp_path / "in")
           if op.reference or op.command == "derive"]
    table = tmp_path / "in" / "ref.json"
    obj = json.loads(table.read_text())
    obj["entries"][1]["re"] += 0.01  # still a readable table, wrong numbers
    table.write_text(json.dumps(obj))
    garbage = tmp_path / "in" / "garbage.json"
    garbage.write_text("{not json")
    ops.append(workloads.Op("poincare-garbage", ("poincare", "--state",
                                                 str(garbage))))
    spec = [[op.name, list(op.argv)] for op in ops]
    result = run_pass(spec, str(tmp_path / "out"))
    records, _ = run.judge_pass(ops, result, str(tmp_path / "out"), None,
                                checks.load_references())
    failed = [r["name"] for r in records if r["problems"]]
    assert failed == ["poincare-ref", "stein-ref", "poincare-garbage"]
    assert len(failed) / len(records) == 0.75


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == (
        list(run.PER_LAYER) + list(run.TRACE_WALL))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
