import json
import math
import re

import numpy as np
import pytest

from rpemsim.cli import main as cli_main
from rpemsim.plant import StepEvent
from rpemsim.runner import SimulationDiverged, convergence_metrics, run
from rpemsim.scenario import (
    ControlSection,
    PlantSection,
    Scenario,
    ScenarioError,
    load_scenario,
    preset_library,
    save_scenario,
    schedule_value,
)


def _quick(name="quick", duration=0.5, **kw):
    d = dict(
        name=name,
        duration_s=duration,
        control=ControlSection(tau_ref=[(0.0, 0.3)]),
        plant=PlantSection(noise_sigma_pu=0.0),
    )
    d.update(kw)
    return Scenario(**d)


# ---------------------------------------------------------------------------
# scenario validation and serialization
# ---------------------------------------------------------------------------


def test_zero_duration_rejected():
    with pytest.raises(ScenarioError):
        _quick(duration=0.0)


def test_event_beyond_duration_rejected():
    with pytest.raises(ScenarioError):
        _quick(events=[StepEvent(time_s=2.0, target="psi_m", factor=0.9)])


def test_event_producing_invalid_params_rejected():
    with pytest.raises(Exception):
        _quick(duration=3.0, events=[StepEvent(time_s=1.0, target="psi_m", factor=-1.0)])


def test_unknown_scenario_key_rejected():
    with pytest.raises(ScenarioError, match="unknown"):
        Scenario.from_dict({"name": "x", "duration_s": 1.0, "bogus": 1})


def test_unknown_section_key_rejected():
    with pytest.raises(ScenarioError):
        Scenario.from_dict(
            {"name": "x", "duration_s": 1.0, "plant": {"nope": 2}}
        )


def test_schedule_value_steps():
    sched = [(0.0, 1.0), (1.0, 2.0), (3.0, -1.0)]
    assert schedule_value(sched, 0.0) == 1.0
    assert schedule_value(sched, 0.999) == 1.0
    assert schedule_value(sched, 1.0) == 2.0
    assert schedule_value(sched, 10.0) == -1.0


def test_preset_count_and_contents():
    presets = preset_library()
    fig_presets = [n for n in presets if n.startswith("fig")]
    assert len(fig_presets) == 16  # four panels for each of the four figures
    fig8c = presets["fig8c"]
    assert schedule_value(fig8c.speed_ref_schedule(), 0.0) == 0.0
    assert schedule_value(fig8c.control.tau_ref, 0.0) == 0.6


def test_presets_round_trip_losslessly(tmp_path):
    presets = preset_library()
    for name, sc in presets.items():
        path = tmp_path / f"{name}.json"
        save_scenario(sc, str(path))
        back = load_scenario(str(path))
        assert back.to_dict() == sc.to_dict()


def test_fig7a_all_three_algorithms_converge():
    # same operating point, one run per gain algorithm
    presets = preset_library()
    base = presets["fig7a"].to_dict()
    base["duration_s"] = 5.0
    for alg in ("sga", "gna", "phyint"):
        d = dict(base)
        d["estimator"] = {**d["estimator"], "algorithm": alg}
        rep = run(Scenario.from_dict(d)).reports["psi_m"]
        assert rep.converged, alg


def test_cli_sweep_parallel(tmp_path):
    out = tmp_path / "sweep"
    code = cli_main(["--out", str(out), "sweep", "fig7[ab]", "--jobs", "2"])
    assert code == 0
    assert (out / "fig7a.csv").exists() and (out / "fig7b.csv").exists()


def test_explicit_box_bounds_override_fraction(params):
    sc = Scenario.from_dict({
        "name": "boxed", "duration_s": 1.0,
        "estimator": {"box_psi_m_min": 0.85, "box_r_s_max": 0.05},
    })
    box = sc.parameter_box(params)
    assert box.psi_m_min == 0.85
    assert box.r_s_max == 0.05
    assert box.psi_m_max == pytest.approx(1.3 * params.psi_m, rel=1e-12)


def test_preset_events_default_step():
    presets = preset_library()
    ev = presets["fig7a"].events[0]
    assert ev.target == "psi_m" and ev.factor == 0.92 and ev.time_s == 1.0


# ---------------------------------------------------------------------------
# runner behavior
# ---------------------------------------------------------------------------


def test_run_deterministic_bitwise():
    sc = _quick(duration=0.4, plant=PlantSection(noise_sigma_pu=0.004))
    a = run(sc)
    b = run(sc)
    assert np.array_equal(a.psi_m_hat, b.psi_m_hat)
    assert np.array_equal(a.r_s_hat, b.r_s_hat)
    for col in a.log:
        assert np.array_equal(a.log[col], b.log[col])


def test_decimation_only_affects_log_volume():
    base = _quick(duration=0.4, plant=PlantSection(noise_sigma_pu=0.004))
    d1 = Scenario.from_dict({**base.to_dict(), "log_decimation": 1})
    d64 = Scenario.from_dict({**base.to_dict(), "log_decimation": 64})
    a, b = run(d1), run(d64)
    assert np.array_equal(a.psi_m_hat, b.psi_m_hat)  # states identical
    assert len(a.log["t"]) > len(b.log["t"])
    # decimated log rows are a subset of the full-rate log
    idx = np.searchsorted(a.log["t"], b.log["t"])
    assert np.array_equal(a.log["psi_m_hat"][idx], b.log["psi_m_hat"])
    # reports computed pre-decimation: identical
    assert a.reports["psi_m"] == b.reports["psi_m"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_diagnostic():
    sc = _quick(
        duration=0.2,
        plant=PlantSection(noise_sigma_pu=0.001),
        control=ControlSection(
            tau_ref=[(0.0, 0.3)], kp_d=1e12, kp_q=1e12, u_max_pu=1e300
        ),
    )
    # both end in the diagnostic, also where float arithmetic raises
    # OverflowError before a state turns non-finite
    for noise in (0.001, 0.0):
        sc = Scenario.from_dict(
            {**sc.to_dict(), "plant": {"noise_sigma_pu": noise}}
        )
        with pytest.raises(SimulationDiverged) as err:
            run(sc)
        msg = str(err.value)
        assert "t=" in msg
        assert "last valid sample" in msg
        # the last valid sample is the step before the failing step k
        k = int(re.search(r" at step (\d+); ", msg).group(1))
        assert k >= 1
        assert err.value.t == k * sc.t_samp_s
        assert f"last valid sample (t={(k - 1) * sc.t_samp_s:.6f}, " in msg


def test_speed_mode_follows_reference():
    sc = Scenario(
        name="spd",
        duration_s=1.5,
        plant=PlantSection(speed_mode="dynamic", inertia_H_s=0.3, load_torque_pu=0.1),
        control=ControlSection(mode="speed", speed_ref=[(0.0, 0.2)]),
    )
    res = run(sc)
    n_final = res.log["n"][-1]
    assert n_final == pytest.approx(0.2, abs=0.02)


def test_flux_step_event_applies_to_plant_only():
    sc = _quick(
        duration=1.2,
        control=ControlSection(tau_ref=[(0.0, 0.2)]),
        events=[StepEvent(time_s=0.5, target="psi_m", factor=0.92)],
    )
    res = run(sc)
    i = np.searchsorted(res.t_full, 0.5)
    assert res.psi_m_true[i - 1] == pytest.approx(0.895, rel=1e-12)
    assert res.psi_m_true[i + 1] == pytest.approx(0.92 * 0.895, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence metrics
# ---------------------------------------------------------------------------


def test_metrics_constant_trajectory():
    t = np.linspace(0, 1, 101)
    traj = np.full_like(t, 0.8)
    rep = convergence_metrics(t, traj, 0.8)
    assert rep.converged and rep.convergence_time == 0.0
    assert rep.steady_state_error == 0.0
    assert rep.overshoot == 0.0


def test_metrics_exponential_convergence_time():
    # oracle: analytic crossing time of an exponential into the band
    t = np.linspace(0, 10, 100_001)
    ref, x0 = 1.0, 1.1
    tau = 0.5
    traj = ref + (x0 - ref) * np.exp(-t / tau)
    rep = convergence_metrics(t, traj, ref, band=0.01)
    t_cross = tau * math.log(abs(x0 - ref) / (0.01 * ref))
    assert rep.converged
    assert rep.convergence_time == pytest.approx(t_cross, abs=2e-3)
    assert rep.overshoot == 0.0


def test_metrics_overshoot_and_band():
    t = np.linspace(0, 1, 1001)
    ref = 1.0
    traj = np.full_like(t, ref)
    traj[:100] = 2.0          # step from above
    traj[500] = 0.94          # 6 percent of the step beyond the reference
    rep = convergence_metrics(t, traj, ref, t0=0.0, step_size=1.0)
    assert rep.overshoot == pytest.approx(0.06, rel=1e-9)


def test_metrics_never_converged():
    t = np.linspace(0, 1, 101)
    rep = convergence_metrics(t, np.full_like(t, 2.0), 1.0)
    assert not rep.converged and rep.convergence_time is None


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_validate_preset(capsys):
    assert cli_main(["validate", "fig7a"]) == 0
    assert "valid" in capsys.readouterr().out


def test_cli_validate_bad_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "duration_s": -1.0}))
    assert cli_main(["validate", str(path)]) == 1


@pytest.mark.parametrize("estimator", [
    {"box_fraction": 1.5},          # default box reaches below zero
    {"box_r_s_min": -0.01},
    {"box_psi_m_min": -0.1},
    {"theta0_psi_m": -1.0},
    {"theta0_psi_m": 0.0},          # MTPA needs a positive flux estimate
    {"theta0_r_s": -0.02},
])
def test_cli_validate_rejects_box_and_theta0_that_run_refuses(tmp_path, capsys, estimator):
    d = {"name": "x", "duration_s": 1.0, "estimator": estimator}
    with pytest.raises(ScenarioError):
        Scenario.from_dict(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    assert cli_main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: ") and err.count("\n") == 1


def test_explicit_bounds_make_a_wide_box_fraction_valid(params):
    sc = Scenario.from_dict({
        "name": "boxed", "duration_s": 1.0,
        "estimator": {"box_fraction": 1.5, "box_psi_m_min": 0.5, "box_r_s_min": 0.0},
    })
    box = sc.parameter_box(params)
    assert (box.psi_m_min, box.r_s_min) == (0.5, 0.0)
    assert box.r_s_max == pytest.approx(2.5 * params.r_s, rel=1e-12)


def test_cli_sim_writes_outputs(tmp_path):
    sc = _quick(duration=0.2)
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    out = tmp_path / "out"
    assert cli_main(["--out", str(out), "sim", str(path)]) == 0
    assert (out / "quick.csv").exists()
    report = json.loads((out / "quick_report.json").read_text())
    assert "psi_m" in report["reports"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cli_sim_divergence_exit_code(tmp_path):
    sc = _quick(
        duration=0.2,
        plant=PlantSection(noise_sigma_pu=0.001),
        control=ControlSection(
            tau_ref=[(0.0, 0.3)], kp_d=1e12, kp_q=1e12, u_max_pu=1e300
        ),
    )
    path = tmp_path / "sc.json"
    save_scenario(sc, str(path))
    assert cli_main(["--out", str(tmp_path / "o"), "sim", str(path)]) == 2


def test_cli_map_writes_fixed_header(tmp_path):
    out = tmp_path / "maps"
    code = cli_main(
        ["--out", str(out), "map", "all", "--points", "7"]
    )
    assert code == 0
    header = (out / "map_all.csv").read_text().splitlines()[0]
    assert header == (
        "n_pu,tau_pu,eps_d,eps_q,psi11,psi12,psi21,psi22,"
        "r_scalar,det_R,re_l1,im_l1,re_l2,im_l2,z_euler_mag,z_trap_mag"
    )


def test_cli_eig_writes(tmp_path):
    out = tmp_path / "eig"
    assert cli_main(["--out", str(out), "eig", "--points", "11"]) == 0
    assert (out / "eigenvalues.csv").exists()


def test_cli_unknown_preset_is_validation_error(tmp_path):
    assert cli_main(["--out", str(tmp_path), "sim", "not_a_preset"]) == 1


def test_log_csv_columns(tmp_path):
    res = run(_quick(duration=0.1))
    path = tmp_path / "log.csv"
    res.write_csv(str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert header == [
        "t", "n", "i_d", "i_q", "i_hat_d", "i_hat_q", "eps_d", "eps_q",
        "psi_m_hat", "r_s_hat", "psi_m_true", "r_s_true",
        "L11", "L12", "L21", "L22", "r", "detR",
    ]


def test_smoothed_criterion_descends_during_convergence():
    # noiseless flux-step run: the smoothed quadratic criterion decays
    # monotonically once the post-step predictor transient has passed
    sc = Scenario(
        name="vn",
        duration_s=3.0,
        plant=PlantSection(noise_sigma_pu=0.0),
        control=ControlSection(tau_ref=[(0.0, 0.4)]),
        events=[StepEvent(time_s=0.5, target="psi_m", factor=0.92)],
        log_decimation=1,
    )
    sc = Scenario.from_dict({**sc.to_dict(), "control": {**sc.to_dict()["control"], "tau_ref": [[0.0, 0.4]]}})
    res = run(Scenario.from_dict({**sc.to_dict()}))
    v = 0.5 * (res.log["eps_d"] ** 2 + res.log["eps_q"] ** 2)
    alpha = 1e-3
    smooth = np.empty_like(v)
    acc = v[0]
    for i, val in enumerate(v):
        acc += alpha * (val - acc)
        smooth[i] = acc
    t = res.log["t"]
    sel = t >= 0.7  # past the step and the predictor transient
    diffs = np.diff(smooth[sel])
    assert np.all(diffs <= 1e-12)
