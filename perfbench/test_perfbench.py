"""Tests of the benchmark itself: digest gate, failure counting, trace
neutrality and the metric names against BENCHMARK.json.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
import workloads
from run import END_TO_END_UNITS, Workload, end_to_end

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"

workloads.import_rpemsim()


def _closed_loop(tmp_path: Path, golden: dict, n_ops: int = 2) -> Workload:
    wl = Workload("closed_loop", 0, tmp_path, golden)
    wl.inputs = wl.inputs[:n_ops]
    wl.generate()
    return wl


def _diverging_op() -> workloads.Op:
    """The kp = 1e12 set-up of the divergence test in tests/test_scenario.py."""
    import rpemsim
    from rpemsim.scenario import ControlSection, PlantSection, Scenario

    sc = Scenario(
        name="diverging",
        duration_s=0.2,
        plant=PlantSection(noise_sigma_pu=0.001),
        control=ControlSection(tau_ref=[(0.0, 0.3)], kp_d=1e12, kp_q=1e12, u_max_pu=1e300),
    )
    return workloads.Op("closed_loop:diverging", 1600, lambda: rpemsim.run(sc),
                        workloads.digest_run)


def test_golden_covers_every_selectable_operation():
    for name in workloads.WORKLOADS:
        pool = workloads.pool_pairs(name)
        assert workloads.warmup_input(name) in pool
        for seed in range(20):
            for inp in workloads.select(name, seed):
                assert inp in pool
    expected = (
        {f"closed_loop:{c}:s{s}" for c, s in workloads.pool_pairs("closed_loop")}
        | {f"sweep:{p}:s{s}" for p, s in workloads.pool_pairs("sweep")}
        | {f"maps:map:d{i:02d}" for i in workloads.pool_pairs("maps")}
        | {"maps:eig"}
    )
    assert expected == set(workloads.load_golden())


def test_tampered_digest_is_a_failed_operation(tmp_path):
    golden = workloads.load_golden()
    wl = _closed_loop(tmp_path, golden)
    tampered_key = wl.ops[0].key
    wl.golden = {**golden, tampered_key: "0" * 64}
    one_pass = wl.run_pass()
    failed = [o for o in one_pass.outcomes if not o.ok]
    assert [o.key for o in failed] == [tampered_key]
    assert failed[0].error == "digest mismatch"
    metrics = end_to_end(0.1, [one_pass], one_pass.outcomes)
    assert metrics["ok_frac"]["value"] == pytest.approx(0.5)


def test_diverging_run_is_counted_and_the_loop_continues(tmp_path):
    wl = _closed_loop(tmp_path, workloads.load_golden(), n_ops=1)
    wl.ops.insert(0, _diverging_op())
    wl.run_pass()
    assert [o.ok for o in wl.outcomes] == [False, True]
    assert wl.outcomes[0].error.startswith("SimulationDiverged")


def test_diverging_sim_through_the_cli_is_counted(tmp_path):
    import rpemsim

    sc = rpemsim.Scenario.from_dict({
        "name": "diverging",
        "duration_s": 0.2,
        "plant": {"noise_sigma_pu": 0.001},
        "control": {"tau_ref": [[0.0, 0.3]], "kp_d": 1e12, "kp_q": 1e12, "u_max_pu": 1e300},
    })
    path = tmp_path / "diverging.json"
    rpemsim.save_scenario(sc, str(path))
    op = workloads.Op("sweep:diverging", 1600,
                      lambda: workloads.cli_main(["--out", str(tmp_path), "sim", str(path)]),
                      lambda _: "")
    outcome = workloads.execute(op, {})
    assert not outcome.ok
    assert "exited 2" in outcome.error


def test_trace_is_neutral_and_restores_every_name(tmp_path):
    import rpemsim
    import rpemsim.cli
    import rpemsim.estimator
    import rpemsim.runner
    from rpemsim.pu import MachineParams

    originals = {
        "run": rpemsim.run,
        "cli.main": rpemsim.cli.main,
        "step": rpemsim.estimator.RpemEstimator.__dict__["step"],
        "schedule_value": rpemsim.runner.schedule_value,
        "post_init": MachineParams.__dict__["__post_init__"],
    }
    golden = workloads.load_golden()
    wl = _closed_loop(tmp_path, golden, n_ops=1)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        assert rpemsim.run is not originals["run"]
        wl.run_pass()
    finally:
        assert tracer.restore() == []
    assert rpemsim.run is originals["run"]
    assert rpemsim.cli.main is originals["cli.main"]
    assert rpemsim.estimator.RpemEstimator.__dict__["step"] is originals["step"]
    assert rpemsim.runner.schedule_value is originals["schedule_value"]
    assert MachineParams.__dict__["__post_init__"] is originals["post_init"]
    assert all(o.ok for o in wl.outcomes), wl.outcomes
    assert tracer.stats["runner.run"][0] == 1
    steps = wl.ops[0].items
    alg_steps = sum(tracer.stats.get(f"estimator.step.{a}", [0])[0]
                    for a in ("sga", "gna", "phyint"))
    assert alg_steps == steps


def _benchmark_names(section: str) -> dict[str, str]:
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def test_metric_tables_match_benchmark_json():
    assert END_TO_END_UNITS == _benchmark_names("end_to_end")
    assert tracing.PER_LAYER_UNITS == _benchmark_names("per_layer")
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    out = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "run.py"), "--workload", "maps",
         "--seed", "3", "--seconds", "0.1", "--trace", str(trace)],
        check=True, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _benchmark_names(section)
