"""Declarative experiment descriptions: operating-point schedules, step
events, estimator configuration, plus the preset library replicating the
reference step-change experiments.

Scenario files are JSON with sections machine / plant / control /
estimator / events, whose keys, types and defaults are the fields of the
section dataclasses; unknown keys anywhere are rejected. Each preset is
such a document, held in PRESETS, and builds through Scenario.from_dict
as a file does.
"""

from __future__ import annotations

import bisect
import copy
import json
import math
from dataclasses import asdict, dataclass, field, fields
from operator import itemgetter
from typing import Annotated, Any, Iterator, Literal, NamedTuple, Optional

from .control import (
    ControlError,
    CurrentLoops,
    PiState,
    limit_current,
    mtpa_reference,
    tune_current_loops,
    tune_speed_loop,
)
from .estimator import (
    GainConfig,
    GainSettings,
    ParameterBox,
    ParameterVector,
    RpemEstimator,
    clamp_to_box,
)
from .plant import steady_state_voltage
from .pu import (
    TABLE_MACHINE_CONFIG,
    ConfigError,
    Count,
    DqVector,
    Finite,
    MachineConfig,
    MachineParams,
    NonNegative,
    Positive,
    check_fields,
    from_json,
    in_range,
)

#: Most samples, round(duration_s / t_samp_s), one run may take, each one
#: plant step; the longest preset takes 192 000.
MAX_PLANT_STEPS = 10**7


class ScenarioError(ConfigError):
    """Scenario file fails validation."""


Schedule = list[tuple[Finite, Finite]]  # (time_s, value) steps, piecewise const
Seed = Annotated[int, "an integer >= 0", lambda x: x >= 0]  # noise seeds must be >= 0
# 1 or more puts the box's flux floor at or below 0, 0 or less makes it empty
BoxFraction = Annotated[float, "a number in (0, 1)", lambda x: 0.0 < x < 1.0]

#: An event or schedule entry applies from the first sample t with time_s <= t + EVENT_TOL_S.
EVENT_TOL_S = 1e-12

#: The columns of a row of a run's input schedule: the true machine
#: parameters in MachineParams order, then the references and the load.
INPUTS = (*(f.name for f in fields(MachineParams)), "speed_ref", "tau_ref", "load_torque")


@dataclass(frozen=True)
class StepEvent:
    """Scheduled step change of a true plant quantity; the estimator is
    never informed."""

    time_s: NonNegative
    target: Literal["psi_m", "r_s", "x_d", "x_q", "load_torque", "speed_ref"]
    factor: Optional[Finite] = None
    value: Optional[Finite] = None

    def __post_init__(self) -> None:
        check_fields(self)
        if (self.factor is None) == (self.value is None):
            raise ConfigError("event needs exactly one of factor / value")


def schedule_value(schedule: list[tuple[float, Any]], t: float) -> Any:
    """The schedule's value at t: that of its last entry with time_s <=
    t + EVENT_TOL_S; its first entry applies at any earlier t."""
    return schedule[bisect.bisect_right(schedule, t + EVENT_TOL_S, lo=1, key=itemgetter(0)) - 1][1]


def schedule_segments(
    schedule: list[tuple[float, Any]], dt: float, n_steps: int
) -> Iterator[tuple[int, int, Any]]:
    """(k0, k1, value) for each non-empty run of steps k0 <= k < k1 of a run
    of n_steps steps over which schedule_value(schedule, k * dt) is value."""
    steps = range(n_steps)
    # an entry's first step is the first k with not k * dt + EVENT_TOL_S < t, as in schedule_value
    starts = [0] + [
        bisect.bisect_left(steps, True, key=lambda k, t=t: not k * dt + EVENT_TOL_S < t)
        for t, _ in schedule[1:]
    ] + [n_steps]
    return ((k0, k1, v) for k0, k1, (_, v) in zip(starts, starts[1:], schedule) if k0 < k1)


def _check_schedule(schedule: Schedule, name: str) -> None:
    if not schedule:
        raise ScenarioError(f"{name} schedule must not be empty")
    times = [t for t, _ in schedule]
    if times != sorted(times):
        raise ScenarioError(f"{name} schedule must be sorted by time")
    if times[0] > 0.0:
        raise ScenarioError(f"{name} schedule must cover t = 0")


def _value_at(column: list[tuple[float, Any]], t: float) -> Any:
    """The value of a column's last entry at or before t, with no tolerance."""
    return column[bisect.bisect_right(column, t, key=itemgetter(0)) - 1][1]


class RunStart(NamedTuple):
    """Everything a run starts from, settled at the t = 0 references; built
    by :meth:`Scenario.validate`."""

    omega_n: float
    n_steps: int  # samples of the run, round(duration_s / t_samp_s)
    schedule: list[tuple[float, tuple[float, ...]]]  # (time_s, row of INPUTS); see validate
    estimator: RpemEstimator
    loops: CurrentLoops  # tuned, overrides applied, integrators preloaded
    speed_pi: PiState  # tuned speed PI; its integrator holds tau0
    i0: DqVector
    u0: DqVector
    n0: float


@dataclass(frozen=True)
class PlantSection:
    noise_sigma_pu: NonNegative = 0.0
    speed_mode: Literal["prescribed", "dynamic"] = "prescribed"
    inertia_H_s: float = 0.5  # Positive where used; Scenario checks that
    load_torque_pu: Finite = 0.0

    def __post_init__(self) -> None:
        check_fields(self, ScenarioError)


@dataclass(frozen=True)
class ControlSection:
    mode: Literal["torque", "speed"] = "torque"
    tau_ref: Schedule = field(default_factory=lambda: [(0.0, 0.0)])
    speed_ref: Schedule = field(default_factory=lambda: [(0.0, 0.0)])
    i_max_pu: Positive = 1.5
    u_max_pu: Positive = 1.2
    tau_max_pu: Positive = 1.2
    kp_d: Optional[Positive] = None
    ti_d: Optional[Positive] = None
    kp_q: Optional[Positive] = None
    ti_q: Optional[Positive] = None

    def __post_init__(self) -> None:
        check_fields(self, ScenarioError)
        _check_schedule(self.tau_ref, "tau_ref")
        _check_schedule(self.speed_ref, "speed_ref")


@dataclass(frozen=True)
class EstimatorSection(GainSettings):
    n_lim1_pu: Finite = GainConfig.n_lim1
    n_lim2_pu: Finite = GainConfig.n_lim2
    box_fraction: BoxFraction = 0.3
    theta0_psi_m: Optional[float] = None  # default: true initial values
    theta0_r_s: Optional[float] = None

    def __post_init__(self) -> None:
        check_fields(self, ScenarioError)

    def gain_config(self) -> GainConfig:
        settings = {f.name: getattr(self, f.name) for f in fields(GainSettings)}
        return GainConfig(**settings, n_lim1=self.n_lim1_pu, n_lim2=self.n_lim2_pu)


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment, fully data-driven."""

    name: str
    duration_s: Positive
    machine: MachineConfig = field(default_factory=lambda: MachineConfig(**TABLE_MACHINE_CONFIG))
    plant: PlantSection = field(default_factory=PlantSection)
    control: ControlSection = field(default_factory=ControlSection)
    estimator: EstimatorSection = field(default_factory=EstimatorSection)
    events: list[StepEvent] = field(default_factory=list)
    seed: Seed = 1
    t_samp_s: Positive = 125e-6
    log_decimation: Count = 8
    description: str = ""

    def __post_init__(self) -> None:
        check_fields(self, ScenarioError)
        # the CLI writes <name>.csv and <name>_report.json into its output
        # directory, names of strict UTF-8 and, by the usual NAME_MAX, 255 bytes at most
        if any(c in self.name for c in "/\\\0"):
            raise ScenarioError(f"name must not hold a path separator or NUL, got {self.name!r}")
        try:
            size = len(self.name.encode())
        except UnicodeEncodeError:  # a lone surrogate, which JSON can escape
            raise ScenarioError(f"name must encode as UTF-8, got {self.name!r}") from None
        if size > 255 - len("_report.json"):
            raise ScenarioError(
                f"name takes {size} bytes in UTF-8, not at most 243: "
                "<name>_report.json must fit in 255"
            )
        # the dynamic plant integrates with it, and the speed PI is tuned from it
        uses_inertia = self.plant.speed_mode == "dynamic" or self.control.mode == "speed"
        if uses_inertia and not in_range(self.plant.inertia_H_s, Positive):
            raise ScenarioError(
                "dynamic speed mode and speed control need a finite inertia_H_s > 0, "
                f"got {self.plant.inertia_H_s}"
            )
        self.validate()

    def validate(self) -> RunStart:
        """Full validation: builds everything a run starts from, settled at
        the t = 0 references, or raises a ConfigError."""
        base, params = self.machine.per_unit()
        times = [ev.time_s for ev in self.events]
        if times != sorted(times):
            raise ScenarioError("events must be sorted by time")
        schedule = self._input_schedule(params)
        samples = self.duration_s / self.t_samp_s  # whole from 2**53 up; round() raises on inf
        n_steps = round(samples) if samples < 2**53 else samples
        if not 1 <= n_steps <= MAX_PLANT_STEPS:
            raise ScenarioError(f"the run takes {n_steps} samples, not 1 to {MAX_PLANT_STEPS}")
        last = (n_steps - 1) * self.t_samp_s
        late = [t for t in times if t > last + EVENT_TOL_S]
        if late:
            raise ScenarioError(f"event at t={late[0]}s lies after the last sample, {last:.9g}s")
        ctl, est = self.control, self.estimator
        cfg = est.gain_config()  # raises on bad gains

        try:  # the estimator's box: +-box_fraction around the true initial values
            box = ParameterBox.around(ParameterVector(params.psi_m, params.r_s), est.box_fraction)
        except ConfigError as exc:
            raise ScenarioError(
                f"estimator parameter box (box_fraction={est.box_fraction}): {exc}"
            ) from exc

        theta0 = ParameterVector(  # default: the true initial values
            psi_m=params.psi_m if est.theta0_psi_m is None else est.theta0_psi_m,
            r_s=params.r_s if est.theta0_r_s is None else est.theta0_r_s,
        )
        # the estimator starts clamped into the box, the controller's model
        # and operating point below from theta0 itself: they must agree
        if clamp_to_box(*theta0, box) != tuple(theta0):
            raise ScenarioError(
                f"estimator theta0 = {tuple(theta0)} lies outside the parameter box {box}"
            )
        # the inputs the run reads at its first sample
        inputs0 = dict(zip(INPUTS, schedule_value(schedule, 0.0)))
        n0 = inputs0["speed_ref"]
        tau0 = inputs0["tau_ref" if ctl.mode == "torque" else "load_torque"]
        dt = self.t_samp_s
        try:
            # the controller's model at t = 0: known reactances with theta0
            model = MachineParams(
                x_d=params.x_d, x_q=params.x_q, r_s=theta0.r_s, psi_m=theta0.psi_m,
            )
            i0 = DqVector(*limit_current(*mtpa_reference(tau0, model), ctl.i_max_pu))
            u0 = steady_state_voltage(params, i0, n0)
            if not math.isfinite(i0.d + i0.q + u0.d + u0.q):
                raise ControlError(f"i0 = {tuple(i0)} and u0 = {tuple(u0)} are not all finite")
            pi_d, pi_q = tune_current_loops(model, base.omega_n, dt, ctl.u_max_pu)
        except (ConfigError, ControlError, OverflowError, ZeroDivisionError) as exc:
            raise ScenarioError(
                f"cannot build the run's start (theta0 = {tuple(theta0)}, t = 0 references "
                f"tau = {tau0}, n = {n0}): {type(exc).__name__}: {exc}"
            ) from exc
        # preload integrators so the loop starts in steady state; a set PI
        # override is Positive, so `or` takes it over the tuned value
        ff_d0 = -n0 * model.x_q * i0.q
        ff_q0 = n0 * (model.x_d * i0.d + model.psi_m)
        loops = CurrentLoops(
            PiState(ctl.kp_d or pi_d.kp, ctl.ti_d or pi_d.ti, u0.d - ff_d0, pi_d.output_limit),
            PiState(ctl.kp_q or pi_q.kp, ctl.ti_q or pi_q.ti, u0.q - ff_q0, pi_q.output_limit),
            model.x_d, model.x_q, dt, ctl.u_max_pu,
        )
        pi_n = tune_speed_loop(self.plant.inertia_H_s, ctl.tau_max_pu)
        estimator = RpemEstimator(
            cfg=cfg, theta0=theta0, box=box, known_x=(params.x_d, params.x_q),
            omega_n=base.omega_n, t_samp=dt, i_hat0=i0, n0=n0,
        )
        return RunStart(
            omega_n=base.omega_n,
            n_steps=n_steps,
            schedule=schedule,
            estimator=estimator,
            loops=loops,
            speed_pi=PiState(pi_n.kp, pi_n.ti, tau0, pi_n.output_limit),
            i0=i0,
            u0=u0,
            n0=n0,
        )

    def _input_schedule(self, params0: MachineParams) -> list[tuple[float, tuple[float, ...]]]:
        """The run's inputs (a row of INPUTS) at t = 0 and at each time one
        of them steps; a row holds every entry and event at or before its
        time. Each event folds into its input's column, in the order of
        self.events, which validate has checked is sorted by time."""
        machine = [[(0.0, getattr(params0, f.name))] for f in fields(MachineParams)]
        columns = machine + [
            # an entry before t = 0 applies from t = 0
            [(max(t, 0.0), v) for t, v in self.control.speed_ref],
            [(max(t, 0.0), v) for t, v in self.control.tau_ref],
            [(0.0, self.plant.load_torque_pu)],
        ]
        by_target = dict(zip(INPUTS, columns))
        for ev in self.events:
            column = by_target[ev.target]
            v = ev.value if ev.value is not None else _value_at(column, ev.time_s) * ev.factor
            bisect.insort(column, (ev.time_s, v), key=itemgetter(0))
        schedule = []
        for t in sorted({t for column in columns for t, _ in column}):
            row = tuple(_value_at(column, t) for column in columns)
            try:
                MachineParams(*row[:len(machine)])
            except ConfigError as exc:
                raise ScenarioError(f"event at t={t}s produces invalid parameters: {exc}") from exc
            schedule.append((t, row))
        return schedule

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Any) -> "Scenario":
        """The scenario of a JSON document; every error is a ScenarioError."""
        try:
            return from_json(cls, d, "scenario", ScenarioError)
        except ScenarioError:
            raise
        except ConfigError as exc:  # machine and event checks
            raise ScenarioError(str(exc)) from exc


def load_scenario(path: str, seed: int | None = None) -> Scenario:
    """The scenario of the JSON file at ``path``; a ``seed`` given here
    replaces the file's before the scenario is built."""
    try:
        with open(path) as f:
            d = json.load(f)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, not UTF-8
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    if seed is not None and isinstance(d, dict):  # from_dict rejects a non-object
        d = {**d, "seed": seed}
    return Scenario.from_dict(d)


def save_scenario(scenario: Scenario, path: str) -> None:
    with open(path, "w") as f:
        json.dump(scenario.to_dict(), f, indent=2)


# ---------------------------------------------------------------------------
# Preset library
# ---------------------------------------------------------------------------

# The GNA resistance row's Hessian rate in the reference gain-rate table,
# which the GainSettings docstring states; every other rate a preset runs
# is a GainSettings default or follows from one.
GAMMA_R_RS_GNA = 6.25e-5

PSI_STEP = {"time_s": 1.0, "target": "psi_m", "factor": 0.92}
RS_STEP = {"time_s": 1.0, "target": "r_s", "factor": 0.92}

# Friction-equivalent idle torque for "no-load" operating points: a real
# shaft always draws a small current, which keeps the matrix Hessian
# exercised at no load. The convergence-summary no-load presets use the
# heavier idle drag of the coupled load machine plus a realistic sensor
# noise level; with these the near-singular matrix Hessian reproduces the
# observed no-load overshoot of the Gauss-Newton runs.
IDLE_TORQUE = 0.04
NOLOAD_IDLE = 0.12
NOLOAD_NOISE = 0.008
NOLOAD_SEED = 1
GNA_NOLOAD_GAIN_CAP = 0.02
# the presets' sensor noise, pu, but for the no-load bench presets' NOLOAD_NOISE
PRESET_NOISE = 0.002

# The bench_rs_* grid's resistance rates, from the linear adaptation law:
# a settled GNA row adapts at gamma_L per sample whatever the conditioning
# of R, so the SGA gain gives GNA the SGA rate; PhyInt's resistance row
# adapts at 2 * gamma over its two axes, so gamma / 4 runs it at half the
# SGA rate, and it trails SGA as the convergence summary has it.
_BENCH_RS_GAINS = {
    "sga": {},
    "gna": {"gamma_r": GAMMA_R_RS_GNA},
    "phyint": {"gamma_L_rs": GainSettings.gamma_L_rs / 4},
}


def _torque_run(n: float, tau: float, noise_sigma_pu: float = PRESET_NOISE) -> dict[str, dict]:
    """Plant and control sections: torque control at prescribed speed n, load torque = tau."""
    return {
        "plant": {"noise_sigma_pu": noise_sigma_pu, "load_torque_pu": tau},
        "control": {"tau_ref": [[0.0, tau]], "speed_ref": [[0.0, n]]},
    }


def _speed_run(speed_ref: list[list[float]], load: float) -> dict[str, dict]:
    """Plant and control sections: speed control on the dynamic plant, load torque = load."""
    return {
        "plant": {"noise_sigma_pu": PRESET_NOISE, "speed_mode": "dynamic", "load_torque_pu": load},
        "control": {"mode": "speed", "speed_ref": speed_ref},
    }


def _preset_documents() -> dict[str, dict[str, Any]]:
    """Preset name -> its scenario document, less the name and the default
    seed: one per sub-panel of the four step-change figures (fig7/fig8
    real-time simulator runs, fig9/fig10 laboratory runs) plus the
    convergence-summary grid (bench_*). A document names only the keys
    whose value differs from its section's default."""
    docs: dict[str, dict[str, Any]] = {}

    # flux step experiments, real-time simulator panel set
    fig7 = {"a": (-0.2, 0.0), "b": (-0.4, 0.2), "c": (0.4, 0.2), "d": (0.8, 0.4)}
    for panel, (n, tau) in fig7.items():
        docs[f"fig7{panel}"] = {
            "duration_s": 8.0, **_torque_run(n, tau), "events": [PSI_STEP],
            "description": f"flux -8% step at n={n} pu, tau={tau} pu",
        }

    # resistance step experiments, real-time simulator panel set; panels a
    # and d sit at |n| = 0.05, outside the default standstill window, so
    # the resistance window is widened for them
    fig8 = {"a": (-0.05, 0.2), "b": (0.0, 0.2), "c": (0.0, 0.6), "d": (0.05, 0.6)}
    for panel, (n, tau) in fig8.items():
        wide = {"estimator": {"n_lim2_pu": 0.06}} if abs(n) > 0.01 else {}
        docs[f"fig8{panel}"] = {
            "duration_s": 24.0, **_torque_run(n, tau), **wide, "events": [RS_STEP],
            "description": f"resistance -8% step at n={n} pu, tau={tau} pu",
        }

    # resistance step experiments, laboratory panel set
    for panel, n, where in (("a", 0.0, "at standstill"), ("b", 0.005, "at n=0.005 pu")):
        docs[f"fig9{panel}"] = {
            "duration_s": 24.0, **_torque_run(n, 0.4), "events": [RS_STEP],
            "description": f"resistance -8% step {where}, tau=0.4 pu",
        }
    docs["fig9c"] = {
        "duration_s": 24.0, **_speed_run([[0.0, 0.001], [12.0, 0.005]], 0.4), "events": [RS_STEP],
        "description": "resistance step, speed reference step 0.001 -> 0.005 pu",
    }
    docs["fig9d"] = {
        "duration_s": 24.0, **_speed_run([[0.0, 0.0]], 0.4),
        "events": [RS_STEP, {"time_s": 12.0, "target": "load_torque", "value": 0.6}],
        "description": "resistance step, load step 0.4 -> 0.6 pu at standstill",
    }

    # flux step experiments, laboratory panel set
    docs["fig10a"] = {
        "duration_s": 8.0, **_torque_run(0.3, IDLE_TORQUE), "events": [PSI_STEP],
        "description": "flux -8% step, no load (friction-level torque), n=0.3 pu",
    }
    docs["fig10b"] = {
        "duration_s": 8.0, **_torque_run(0.3, 0.4), "events": [PSI_STEP],
        "description": "flux -8% step at 0.4 pu load, n=0.3 pu",
    }
    docs["fig10c"] = {
        "duration_s": 12.0, **_speed_run([[0.0, -0.3], [6.0, 0.3]], 0.4), "events": [PSI_STEP],
        "description": "flux step, speed reference step -0.3 -> 0.3 pu",
    }
    docs["fig10d"] = {
        "duration_s": 12.0, **_speed_run([[0.0, 0.3]], -0.4),
        "events": [PSI_STEP, {"time_s": 6.0, "target": "load_torque", "value": 0.4}],
        "description": "flux step, load step -0.4 -> +0.4 pu at n=0.3 pu",
    }

    # convergence-summary grid
    for alg in ("sga", "gna"):
        cap = {"gain_cap": GNA_NOLOAD_GAIN_CAP} if alg == "gna" else {}
        docs[f"bench_psim_{alg}_noload"] = {
            "duration_s": 8.0, **_torque_run(0.3, NOLOAD_IDLE, NOLOAD_NOISE),
            "estimator": {"algorithm": alg, **cap}, "events": [PSI_STEP],
            "seed": NOLOAD_SEED, "description": f"{alg} flux step, no load, n=0.3 pu",
        }
        docs[f"bench_psim_{alg}_load"] = {
            "duration_s": 8.0, **_torque_run(0.3, 0.4),
            "estimator": {"algorithm": alg}, "events": [PSI_STEP],
            "description": f"{alg} flux step, tau=0.4 pu, n=0.3 pu",
        }
    for alg in ("sga", "gna", "phyint"):
        for suffix, n, where in (("n0", 0.0, "at standstill"), ("n005", 0.005, "at n=0.005 pu")):
            docs[f"bench_rs_{alg}_{suffix}"] = {
                "duration_s": 24.0, **_torque_run(n, 0.4),
                "estimator": {"algorithm": alg, **_BENCH_RS_GAINS[alg]}, "events": [RS_STEP],
                "description": f"{alg} resistance step {where}, tau=0.4 pu",
            }

    return docs


#: The preset names, each mapped to its scenario document: the JSON object a
#: scenario file of that preset holds, sharing no dict or list with another.
#: A preset draws its noise from seed 7 unless its document names another.
PRESETS = {name: {"name": name, "seed": 7, **copy.deepcopy(doc)}
           for name, doc in _preset_documents().items()}


def preset(name: str, seed: int | None = None) -> Scenario:
    """The named preset, built and validated from its document as
    :func:`load_scenario` builds a file's; only that one is built. A
    ``seed`` given here replaces the preset's before it is built."""
    doc = PRESETS[name] if seed is None else {**PRESETS[name], "seed": seed}
    return Scenario.from_dict(doc)


def preset_library(seed: int | None = None) -> dict[str, Scenario]:
    """Every preset, built and validated, with ``seed`` as in :func:`preset`."""
    return {name: preset(name, seed) for name in PRESETS}
