"""Smoke checks of the benchmark harness itself.

    python3 -m pytest -q perfbench/test_harness.py

One op per workload through its check, the traced path, input
reproducibility, and one short end-to-end run of ``run.py``.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads as W  # noqa: E402
from hdse import cli, losses, solving, systems, transforms  # noqa: E402
from tracer import Tracer  # noqa: E402

REFERENCE = W.load_reference()
SEED = REFERENCE["seed"]
CHEAP_OP = {"se_sweep": "m/quadratic/gaussian/m_loo>m_amp/s5",
            "se_logistic": "logistic/0.5/logistic_cgmt>logistic_loo/s0",
            "montecarlo": "logistic/r0", "cli": "solve-m"}


@pytest.fixture
def make(tmp_path):
    return lambda name: W.make_workload(name, REFERENCE, tmp_path, ROOT / "src")


def _op(workload, op_id):
    return next(op for op in workload.pass_ops(SEED, 0) if op.id == op_id)


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_seed_reproduces_inputs(make, name):
    first = [(op.id, op.inputs) for op in make(name).pass_ops(7, 0)]
    second = [(op.id, op.inputs) for op in make(name).pass_ops(7, 0)]
    assert first == second
    assert first != [(op.id, op.inputs) for op in make(name).pass_ops(8, 0)]


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_one_op_matches_reference(make, name):
    workload = make(name)
    op = _op(workload, CHEAP_OP[name])
    value, error, _ = W.timed(workload.run, op)
    assert workload.check(op, value, error, True) == (W.OK, "")


def test_known_failure_is_listed(make):
    workload = make("se_sweep")
    listed = [op_id for op_id, e in REFERENCE["ops"]["se_sweep"].items() if "failure" in e]
    assert listed
    op = _op(workload, min(listed, key=lambda i: i.startswith("m/")))
    value, error, _ = W.timed(workload.run, op)
    assert workload.check(op, value, error, True)[0] == W.KNOWN_FAILURE


def test_traced_path_records_every_layer_and_unwraps(make):
    originals = (losses.prox, systems.expect_noise_sum, systems.SYSTEMS["m_loo"],
                 solving.solve_system, transforms.verify_equivalence, cli.load_config)
    tracer = Tracer()
    tracer.install()
    try:
        for name in ("se_sweep", "montecarlo"):
            workload = make(name)
            op = _op(workload, CHEAP_OP[name])
            tracer.op_id = op.id
            value, error, _ = W.timed(workload.run, op)
            assert error is None
        cli_workload = make("cli")
        code, _ = cli_workload.run_inprocess(_op(cli_workload, "solve-logistic"))
        assert code == 0
    finally:
        tracer.uninstall()
    assert originals == (losses.prox, systems.expect_noise_sum, systems.SYSTEMS["m_loo"],
                         solving.solve_system, transforms.verify_equivalence,
                         cli.load_config)
    m = tracer.layer_metrics()
    for key in ("losses.points", "expectations.nodes", "systems.residual.m_loo.calls",
                "systems.residual.logistic_loo.calls", "solving.newton_iters",
                "solving.residual_evals", "solving.jacobian.calls",
                "transforms.verify.self_ms", "estimators.fit.logistic.total_ms",
                "cli.command.solve-se.total_ms", "cli.load_config.n", "cli.write.n"):
        assert m.get(key, 0) > 0, key
    assert m["solving.residual_evals"] < m["systems.residual.m_loo.calls"] \
        + m["systems.residual.m_amp.calls"] + m["systems.residual.logistic_loo.calls"]


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_run_prints_every_metric():
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "montecarlo",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
