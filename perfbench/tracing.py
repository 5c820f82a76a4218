"""Span tracer for the traced benchmark run.

The tracer replaces public names at the layer boundaries of rpemsim with
timing wrappers, under the name the caller resolves (a module global of
the calling module, or a class attribute for methods), and puts the
originals back on exit. It keeps per-span-name aggregates only: call
count, total ns and self ns (total minus the time of child spans, from a
span stack).
"""

from __future__ import annotations

import functools
import time
from collections import Counter

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list[int]] = {}  # name -> [count, total_ns, self_ns]
        self.counts: Counter = Counter()
        self._stack = [0]  # child time accumulated by each open span
        self._patches: list[tuple[object, str, object]] = []

    def _stat(self, name: str) -> list[int]:
        return self.stats.setdefault(name, [0, 0, 0])

    def span(self, fn, name: str, before=None, after=None):
        """Wrapper timing ``fn`` as span ``name``; ``before(args)`` and
        ``after(args, result)`` feed counters."""
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                stack[-1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - child
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def estimator_step(self, fn):
        """``RpemEstimator.step``, one span name per gain algorithm."""
        by_alg = {alg: self.span(fn, f"estimator.step.{alg}") for alg in ("sga", "gna", "phyint")}

        @functools.wraps(fn)
        def step(est, *args, **kwargs):
            return by_alg[est.cfg.algorithm](est, *args, **kwargs)

        return step

    def counter(self, fn, count):
        """Untimed wrapper: ``count(args)`` runs before each call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            count(args)
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> list[str]:
        """Put every original back; return the names that are not the
        original object afterwards (empty when the restore is exact)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        wrong = []
        for owner, attr, original in self._patches:
            now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            if now is not original:
                wrong.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        self._patches.clear()
        return wrong


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of rpemsim."""
    import rpemsim
    import rpemsim.analysis as analysis
    import rpemsim.cli as cli
    import rpemsim.estimator as estimator
    import rpemsim.plant as plant
    import rpemsim.runner as runner
    from rpemsim.pu import MachineParams

    c = tracer.counts
    span = tracer.span

    def simple(name, **kw):
        return lambda fn: span(fn, name, **kw)

    def count_rows_on(args):
        # gain_schedule(L, n, cfg): the scheduler's row decision
        _, n, cfg = args[:3]
        if abs(n) > abs(cfg.n_lim1) or abs(n) < abs(cfg.n_lim2):
            c["rows_active"] += 1

    def count_csv_rows(args, _):
        c["csv_rows"] += len(args[0].log["t"])

    def count_cells(args, tables):
        c["map_cells"] += tables.i_d.size
        c["map_feasible"] += int(np.count_nonzero(~np.isnan(tables.i_d)))

    def count_map_rows(args, _):
        c["map_csv_rows"] += args[0].i_d.size

    def count_eig_points(args, _):
        c["eig_points"] += len(args[3])

    def count_sims(args):
        if "sim" in args[0]:
            c["sims"] += 1

    # runner layer
    tracer.patch(rpemsim, "run", simple("runner.run"))
    tracer.patch(cli, "run", simple("runner.run"))
    tracer.patch(runner, "convergence_metrics", simple("runner.convergence_metrics"))
    tracer.patch(runner.RunResult, "write_csv", simple("runner.write_csv", after=count_csv_rows))
    # estimator layer
    tracer.patch(estimator.RpemEstimator, "step", tracer.estimator_step)
    for alg in ("sga", "gna", "phyint"):
        tracer.patch(estimator, f"{alg}_update", simple(f"estimator.gain_update.{alg}"))
    tracer.patch(estimator, "pseudoinverse_2x2", simple("estimator.pseudoinverse_2x2"))
    tracer.patch(estimator, "gradient_steady_state", simple("estimator.gradient_steady_state"))
    tracer.patch(analysis, "gradient_steady_state", simple("estimator.gradient_steady_state"))
    tracer.patch(estimator, "gain_schedule", lambda fn: tracer.counter(fn, count_rows_on))
    # control layer
    for name in ("current_controller", "mtpa_reference", "limit_current", "speed_controller"):
        tracer.patch(runner, name, simple(f"control.{name}"))
    tracer.patch(analysis, "mtpa_reference", simple("control.mtpa_reference"))
    # plant layer
    tracer.patch(runner, "integrate_electrical", simple("plant.integrate_electrical"))
    tracer.patch(runner, "torque", simple("plant.torque"))
    tracer.patch(plant, "step_matrices", simple("plant.step_matrices"))
    tracer.patch(estimator, "step_matrices", simple("plant.step_matrices"))
    # pu layer
    tracer.patch(MachineParams, "__post_init__", simple("pu.MachineParams"))
    # scenario layer
    tracer.patch(runner, "schedule_value", simple("scenario.schedule_value"))
    tracer.patch(cli, "load_scenario", simple("scenario.load_scenario"))
    tracer.patch(cli, "preset_library", simple("scenario.preset_library"))
    # analysis layer
    tracer.patch(cli, "evaluate_maps", simple("analysis.evaluate_maps", after=count_cells))
    tracer.patch(cli, "write_maps_csv", simple("analysis.write_maps_csv", after=count_map_rows))
    tracer.patch(cli, "eigen_sweep", simple("analysis.eigen_sweep", after=count_eig_points))
    # cli layer
    tracer.patch(cli, "main", simple("cli.main", before=count_sims))


LAYERS = ("runner", "estimator", "control", "plant", "scenario", "pu", "analysis", "cli")

# name -> unit, in the order they are reported
PER_LAYER_UNITS = {
    "estimator.step_ns.sga": "ns",
    "estimator.step_ns.gna": "ns",
    "estimator.step_ns.phyint": "ns",
    "estimator.gain_update_ns.sga": "ns",
    "estimator.gain_update_ns.gna": "ns",
    "estimator.gain_update_ns.phyint": "ns",
    "estimator.pseudoinverse_ns": "ns",
    "estimator.gradient_steady_state_ns": "ns",
    "estimator.mpp_frac": "frac",
    "estimator.rows_active_frac": "frac",
    "control.current_controller_ns": "ns",
    "control.mtpa_reference_ns": "ns",
    "control.limit_current_ns": "ns",
    "control.speed_controller_ns": "ns",
    "plant.integrate_electrical_ns": "ns",
    "plant.torque_ns": "ns",
    "plant.step_matrices_calls_per_step": "1/step",
    "runner.self_ns_per_step": "ns",
    "pu.machine_params_per_step": "1/step",
    "scenario.schedule_value_calls_per_step": "1/step",
    "scenario.schedule_value_ns": "ns",
    "runner.write_csv_ns_per_row": "ns",
    "runner.convergence_metrics_us": "us",
    "scenario.load_us": "us",
    "scenario.preset_library_us": "us",
    "cli.self_ms_per_sim": "ms",
    "analysis.evaluate_maps_ns_per_cell": "ns",
    "analysis.write_maps_csv_ns_per_row": "ns",
    "analysis.eigen_sweep_ns_per_point": "ns",
    "analysis.feasible_cell_frac": "frac",
    **{f"{layer}.share": "frac" for layer in LAYERS},
    "trace.overhead_frac": "frac",
}


def per_layer_metrics(tracer: Tracer, traced_wall_s: float, untraced_wall_s: float) -> dict:
    """Per-layer values from the tracer's aggregates. A layer that did not
    run on the workload reports 0."""
    stats = tracer.stats
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    def calls(name):
        return stats.get(name, [0, 0, 0])[0]

    def total(name):
        return stats.get(name, [0, 0, 0])[1]

    def self_ns(name):
        return stats.get(name, [0, 0, 0])[2]

    def per_call(name, scale=1.0):
        return ratio(total(name), calls(name)) / scale

    algs = ("sga", "gna", "phyint")
    steps = sum(calls(f"estimator.step.{a}") for a in algs)
    values = {}
    for a in algs:
        values[f"estimator.step_ns.{a}"] = per_call(f"estimator.step.{a}")
        values[f"estimator.gain_update_ns.{a}"] = per_call(f"estimator.gain_update.{a}")
    values["estimator.pseudoinverse_ns"] = per_call("estimator.pseudoinverse_2x2")
    values["estimator.gradient_steady_state_ns"] = per_call("estimator.gradient_steady_state")
    values["estimator.mpp_frac"] = ratio(calls("estimator.pseudoinverse_2x2"), steps)
    values["estimator.rows_active_frac"] = ratio(c["rows_active"], steps)
    for name in ("current_controller", "mtpa_reference", "limit_current", "speed_controller"):
        values[f"control.{name}_ns"] = per_call(f"control.{name}")
    values["plant.integrate_electrical_ns"] = per_call("plant.integrate_electrical")
    values["plant.torque_ns"] = per_call("plant.torque")
    values["plant.step_matrices_calls_per_step"] = ratio(calls("plant.step_matrices"), steps)
    values["runner.self_ns_per_step"] = ratio(self_ns("runner.run"), steps)
    values["pu.machine_params_per_step"] = ratio(calls("pu.MachineParams"), steps)
    values["scenario.schedule_value_calls_per_step"] = ratio(calls("scenario.schedule_value"), steps)
    values["scenario.schedule_value_ns"] = per_call("scenario.schedule_value")
    values["runner.write_csv_ns_per_row"] = ratio(total("runner.write_csv"), c["csv_rows"])
    values["runner.convergence_metrics_us"] = per_call("runner.convergence_metrics", 1e3)
    values["scenario.load_us"] = per_call("scenario.load_scenario", 1e3)
    values["scenario.preset_library_us"] = per_call("scenario.preset_library", 1e3)
    values["cli.self_ms_per_sim"] = ratio(self_ns("cli.main"), c["sims"]) / 1e6
    values["analysis.evaluate_maps_ns_per_cell"] = ratio(total("analysis.evaluate_maps"), c["map_cells"])
    values["analysis.write_maps_csv_ns_per_row"] = ratio(total("analysis.write_maps_csv"), c["map_csv_rows"])
    values["analysis.eigen_sweep_ns_per_point"] = ratio(total("analysis.eigen_sweep"), c["eig_points"])
    values["analysis.feasible_cell_frac"] = ratio(c["map_feasible"], c["map_cells"])
    wall_ns = traced_wall_s * 1e9
    for layer in LAYERS:
        layer_self = sum(s[2] for name, s in stats.items() if name.split(".")[0] == layer)
        values[f"{layer}.share"] = ratio(layer_self, wall_ns)
    values["trace.overhead_frac"] = ratio(traced_wall_s, untraced_wall_s) - 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
