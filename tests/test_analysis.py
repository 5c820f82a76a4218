import csv
import math
import re
import warnings
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

import rpemsim.analysis as analysis
from rpemsim.analysis import (
    MAP_COLUMNS,
    MAP_SURFACES,
    OperatingGrid,
    cell_currents,
    discrete_stability,
    eigen_sweep,
    eigenvalues,
    evaluate_maps,
    steady_state_error,
    time_constants,
    write_csv_table,
    write_maps_csv,
)
from rpemsim.cli import main as cli_main
from rpemsim.control import mtpa_reference
from rpemsim.estimator import ParameterVector, PredictorState, gradient_steady_state, predictor_step, prediction_error
from rpemsim.plant import steady_state_voltage
from rpemsim.pu import ConfigError, DqVector
from rpemsim.runner import run
from rpemsim.scenario import ControlSection, EstimatorSection, PlantSection, Scenario, StepEvent

DT = 125e-6


def test_eigenvalues_standstill_hand_values(theta_nominal, known_x, omega_n):
    # oracle: 1/T_d and 1/T_q from the axis time constants
    t_d, t_q = time_constants(theta_nominal, known_x, omega_n)
    assert t_d == pytest.approx(0.0424, rel=2e-3)
    assert t_q == pytest.approx(0.0916, rel=2e-3)
    lam = eigenvalues(theta_nominal, known_x, 0.0, omega_n)
    assert lam.lambda1.imag == 0.0 and lam.lambda2.imag == 0.0
    roots = sorted((lam.lambda1.real, lam.lambda2.real))
    assert roots[0] == pytest.approx(-23.6, rel=1e-2)
    assert roots[1] == pytest.approx(-10.9, rel=1e-2)


def test_eigenvalues_match_numeric_eigensolve(theta_nominal, known_x, omega_n):
    # oracle: numpy eigensolve of the state matrix of the current dynamics
    x_d, x_q = known_x
    r = theta_nominal.r_s
    for n in np.linspace(-1.2, 1.2, 49):
        lam = eigenvalues(theta_nominal, known_x, float(n), omega_n)
        numeric = np.linalg.eigvals(np.array([
            [-r * omega_n / x_d, n * omega_n * x_q / x_d],
            [-n * omega_n * x_d / x_q, -r * omega_n / x_q],
        ]))
        got = sorted((lam.lambda1, lam.lambda2), key=lambda z: (z.real, z.imag))
        want = sorted(numeric, key=lambda z: (z.real, z.imag))
        for g, w in zip(got, want):
            assert abs(g - w) < 1e-9 * max(1.0, abs(w))


def test_eigenvalue_imaginary_part_grows_with_speed(theta_nominal, known_x, omega_n):
    ims = [
        abs(eigenvalues(theta_nominal, known_x, n, omega_n).lambda1.imag)
        for n in np.linspace(0.1, 1.2, 23)
    ]
    assert all(b > a for a, b in zip(ims, ims[1:]))


@pytest.mark.parametrize("n", [1e155, -1e155])
def test_eigenvalues_reject_a_speed_whose_square_overflows(theta_nominal, known_x, omega_n, n):
    with pytest.raises(ConfigError, match=re.escape(f"speed n = {n!r} pu is too large")):
        eigenvalues(theta_nominal, known_x, n, omega_n)
    eigenvalues(theta_nominal, known_x, n * 1e-5, omega_n)  # 1e150 still squares


def test_complex_pair_real_part_structure(theta_nominal, known_x, omega_n):
    t_d, t_q = time_constants(theta_nominal, known_x, omega_n)
    expect = -0.5 * (1.0 / t_d + 1.0 / t_q)
    lam = eigenvalues(theta_nominal, known_x, 0.7, omega_n)
    assert lam.lambda1.imag != 0.0
    assert lam.lambda1.real == pytest.approx(expect, rel=1e-12)
    assert lam.lambda2.real == pytest.approx(expect, rel=1e-12)


def test_discrete_stability_trapezoidal_a_stable():
    for lam in (complex(-5, 0), complex(-17, 300), complex(-0.01, 5000)):
        _, stable = discrete_stability(lam, DT, "trapezoidal")
        assert stable


def test_discrete_stability_euler_cases():
    z, _ = discrete_stability(complex(-1.0 / DT, 0.0), DT, "explicit_euler")
    assert z == 0.0
    z, stable = discrete_stability(complex(0.0, 100.0), DT, "explicit_euler")
    assert abs(z) > 1.0 and not stable


def test_continuous_stability_over_grid(theta_nominal, known_x, omega_n):
    for n in np.linspace(-1.2, 1.2, 97):
        lam = eigenvalues(theta_nominal, known_x, float(n), omega_n)
        assert lam.lambda1.real < 0.0 and lam.lambda2.real < 0.0


def test_trapezoidal_stable_everywhere_euler_ranking_in_oscillatory_range(
    theta_nominal, known_x, omega_n
):
    # the |z| ordering between the two methods holds in the oscillatory
    # regime; below ~0.06 pu the roots are real and Euler over-damps
    for n in np.linspace(-1.2, 1.2, 241):
        lam = eigenvalues(theta_nominal, known_x, float(n), omega_n)
        for l in (lam.lambda1, lam.lambda2):
            _, stable = discrete_stability(l, DT, "trapezoidal")
            assert stable
            if abs(n) >= 0.1:
                ze, _ = discrete_stability(l, DT, "explicit_euler")
                zt, _ = discrete_stability(l, DT, "trapezoidal")
                assert abs(ze) >= abs(zt) - 1e-12


def test_sensitivity_zero_mismatch_is_zero(params, base):
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 9), torque_axis=np.linspace(-1, 1, 9)
    )
    t = evaluate_maps(grid, params, base.omega_n, deltas=(0.0, 0.0, 0.0, 0.0))
    assert np.nanmax(np.abs(t.eps_d)) == 0.0
    assert np.nanmax(np.abs(t.eps_q)) == 0.0


def test_maps_are_nan_in_every_cell_without_a_magnet_flux(params, base):
    # MTPA refuses psi_m = 0, so each cell's currents are infeasible
    grid = OperatingGrid(speed_axis=np.linspace(-1, 1, 5), torque_axis=np.linspace(-1, 1, 5))
    t = evaluate_maps(grid, replace(params, psi_m=0.0), base.omega_n)
    assert [name for name in MAP_SURFACES if not np.isnan(getattr(t, name)).all()] == []


def test_sensitivity_high_speed_limit(params, base):
    # 10 percent flux underestimate: eps_d -> -delta/x_d within 2% at |n|=1
    theta = ParameterVector(psi_m=0.9 * params.psi_m, r_s=params.r_s)
    delta = 0.1 * params.psi_m
    eps = steady_state_error(
        theta, (params.x_d, params.x_q), 1.0, DqVector(0.0, 0.0), delta_psi_m=delta
    )
    limit = -delta / params.x_d
    assert abs(eps.d - limit) <= 0.02 * abs(limit)


def test_sensitivity_map_matches_co_simulation(params, base):
    # oracle: plant + predictor co-simulation settled at five grid cells
    cells = [(0.3, 0.4), (-0.5, 0.2), (0.8, -0.4), (0.1, 0.6), (-1.0, 1.0)]
    known_x = (params.x_d, params.x_q)
    theta = ParameterVector(psi_m=0.9 * params.psi_m, r_s=params.r_s)
    delta = params.psi_m - theta.psi_m
    for n, tau in cells:
        i_d, i_q = mtpa_reference(tau, params)
        i_op = DqVector(i_d, i_q)
        u = steady_state_voltage(params, i_op, n)
        state = PredictorState(i_hat=DqVector(0.0, 0.0))
        for _ in range(int(2.0 / DT)):
            state = predictor_step(state, u, n, theta, known_x, base.omega_n, DT)
        eps_sim = prediction_error(i_op, state.i_hat)
        eps_map = steady_state_error(theta, known_x, n, i_op, delta_psi_m=delta)
        assert eps_sim.d == pytest.approx(eps_map.d, abs=1e-4)
        assert eps_sim.q == pytest.approx(eps_map.q, abs=1e-4)


@pytest.mark.parametrize("algorithm,target,factor,n,tau", [
    ("sga", "x_d", 0.9, -0.6, 0.3),
    ("sga", "x_q", 1.1, 0.8, -0.4),
    ("phyint", "x_d", 0.9, 0.8, -0.4),
    ("phyint", "x_q", 1.1, -0.6, 0.3),
    ("gna", "x_d", 0.9, -0.6, 0.3),
])
def test_flux_estimate_settles_where_its_gain_row_zeroes_the_closed_form_error(
        algorithm, target, factor, n, tau):
    # the plant's reactance steps at t = 0; the model keeps the machine's.
    # In the flux band only the flux row moves, and the settled error is
    # eps = a * d_psi + b, a the flux gradient and b the reactance term of
    # steady_state_error, d_psi the true minus the estimated flux. A flux
    # gain row l settles at d_psi = -(l . b) / (l . a).
    duration_s = 4.0
    sc = Scenario(
        name="fixed_point", duration_s=duration_s, log_decimation=round(duration_s / DT) - 1,
        plant=PlantSection(noise_sigma_pu=0.0),
        control=ControlSection(tau_ref=[(0.0, tau)], speed_ref=[(0.0, n)]),
        estimator=EstimatorSection(algorithm=algorithm),
        events=[StepEvent(time_s=0.0, target=target, factor=factor)],
    )
    log = run(sc).log  # rows at the first and the last sample
    _, model = sc.machine.per_unit()
    known_x = (model.x_d, model.x_q)
    theta = ParameterVector(log["psi_m_hat"][-1], log["r_s_hat"][-1])
    assert theta.r_s == model.r_s  # the resistance row stays off
    i = DqVector(log["i_d"][-1], log["i_q"][-1])
    a = gradient_steady_state(theta, known_x, n, i)[:2]
    x = getattr(model, target)
    b = steady_state_error(theta, known_x, n, i, **{f"delta_{target}": x * factor - x})
    # SGA's row follows the gradient, PhyInt's is (1, 0); under x_d, b is
    # parallel to a, so every row, GNA's too, settles at the same point
    l = a if algorithm == "sga" else (1.0, 0.0)
    d_psi = -(l[0] * b.d + l[1] * b.q) / (l[0] * a[0] + l[1] * a[1])
    # measured at 4 s: within 2.7e-4 of d_psi for SGA, 4e-5 for GNA and PhyInt
    assert log["psi_m_true"][-1] - theta.psi_m == pytest.approx(d_psi, rel=1e-3)


def test_gradient_map_is_scaled_sensitivity(params, base):
    # flux-mismatch error surface is the flux gradient surface scaled by
    # the mismatch
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 11), torque_axis=np.linspace(-1, 1, 7)
    )
    delta = 0.1 * params.psi_m
    t = evaluate_maps(grid, params, base.omega_n, deltas=(delta, 0.0, 0.0, 0.0))
    mask = ~np.isnan(t.eps_d)
    assert np.allclose(t.eps_d[mask], t.psi11[mask] * delta, atol=1e-12)
    assert np.allclose(t.eps_q[mask], t.psi12[mask] * delta, atol=1e-12)


def test_gradient_map_standstill_row_and_odd_symmetry(params, base):
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 11), torque_axis=np.linspace(-1, 1, 7)
    )
    t = evaluate_maps(grid, params, base.omega_n)
    i0 = 5  # n = 0 row
    assert np.all(np.nan_to_num(t.psi11[i0]) == 0.0)
    assert np.all(np.nan_to_num(t.psi12[i0]) == 0.0)
    # psi12 odd in speed
    for j in range(7):
        a, b = t.psi12[2, j], t.psi12[8, j]  # n = -0.6 and +0.6
        if not (math.isnan(a) or math.isnan(b)):
            assert a == pytest.approx(-b, abs=1e-12)


def test_hessian_map_structure(params, base):
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 11), torque_axis=np.linspace(-1, 1, 11)
    )
    t = evaluate_maps(grid, params, base.omega_n)
    i_n0 = 5
    j_t0 = 5
    j_t04 = 7  # tau = 0.4
    assert t.r_scalar[i_n0, j_t0] == 0.0
    assert t.det_R[i_n0, j_t0] == 0.0
    # loaded standstill: scalar Hessian positive, matrix determinant zero
    g = gradient_steady_state(
        ParameterVector(params.psi_m, params.r_s),
        (params.x_d, params.x_q),
        0.0,
        DqVector(*mtpa_reference(0.4, params)),
    )
    assert t.r_scalar[i_n0, j_t04] == pytest.approx(g.rs_d**2 + g.rs_q**2, rel=1e-12)
    assert t.r_scalar[i_n0, j_t04] > 0.0
    assert t.det_R[i_n0, j_t04] == 0.0
    # pointwise AM-GM bound for PSD 2x2
    mask = ~np.isnan(t.det_R)
    assert np.all(t.det_R[mask] <= t.r_scalar[mask] ** 2 / 4.0 + 1e-12)


def test_hessian_cleavage_near_standstill(params, base):
    # normalized det surface stays far below the normalized scalar surface
    # just off standstill
    grid = OperatingGrid()  # default 81x81 over [-1,1]^2
    t = evaluate_maps(grid, params, base.omega_n)
    r_max = np.nanmax(t.r_scalar)
    det_max = np.nanmax(t.det_R)
    theta = ParameterVector(params.psi_m, params.r_s)
    i_op = DqVector(*mtpa_reference(0.4, params))
    g = gradient_steady_state(theta, (params.x_d, params.x_q), 0.01, i_op)
    r_point = g.psi_d**2 + g.psi_q**2 + g.rs_d**2 + g.rs_q**2
    det_point = (g.psi_d * g.rs_q - g.psi_q * g.rs_d) ** 2
    assert det_point / det_max < 0.2 * (r_point / r_max)


def test_map_evaluation_deterministic(params, base):
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 7), torque_axis=np.linspace(-1, 1, 7)
    )
    a = evaluate_maps(grid, params, base.omega_n)
    b = evaluate_maps(grid, params, base.omega_n)
    for name in ("eps_d", "psi21", "det_R", "z_trap_mag"):
        x, y = getattr(a, name), getattr(b, name)
        assert np.array_equal(x, y, equal_nan=True)


# the surfaces that change sign with n and tau; every other one is even
_ODD_SURFACES = {"i_q", "eps_q", "psi12", "psi22"}


@pytest.mark.parametrize("limits", [{}, {"u_max": 0.9}, {"i_max": 0.7}], ids=str)
@pytest.mark.parametrize("deltas", [(0.0, 0.0, 0.0, 0.0), (-0.01, 0.002, 0.01, -0.02)], ids=str)
def test_maps_are_mirror_symmetric_on_a_mirrored_grid(params, base, limits, deltas):
    # the dq model is symmetric under (n, tau) -> (-n, -tau), and negation is
    # exact: the cell at (-n, -tau) is the one at (n, tau), negated on the odd
    # surfaces, bit for bit. Infeasible cells, NaN, mirror too. Only an exact
    # zero keeps its sign: with no mismatch eps_q is x - x = +0.0 at both cells
    a = np.linspace(0.01, 1.0, 25)
    axis = np.concatenate([-a[::-1], a])
    t = evaluate_maps(OperatingGrid(axis, axis), params, base.omega_n, deltas=deltas, **limits)
    assert np.isnan(t.i_d).any() == bool(limits)  # a tighter limit leaves cells out
    for name in MAP_SURFACES:
        x = getattr(t, name)
        mirror = -x[::-1, ::-1] if name in _ODD_SURFACES else x[::-1, ::-1]
        assert np.array_equal(x, mirror, equal_nan=True), name


def test_eigen_sweep_is_even_in_speed(theta_nominal, known_x, omega_n):
    a = np.linspace(0.0, 1.0, 25)
    plus = eigen_sweep(theta_nominal, known_x, omega_n, a)
    minus = eigen_sweep(theta_nominal, known_x, omega_n, -a)
    assert [(-r.n_pu, *r[1:]) for r in minus] == [tuple(r) for r in plus]


# the oracle's grids: torques past i_max = 1.2 give current-infeasible
# columns; r_s = 1e-6 puts the n = 0 row below the gradient denominator
# floor; u_max = 0.6 makes the high-speed corners voltage-infeasible, and
# u_max = 0.9 every cell of rows 0, 4 and 5 of the last grid
ORACLE_GRIDS = {
    "nominal": (None, np.linspace(-1, 1, 7), np.linspace(-1.5, 1.5, 9), 0.6),
    "r_s_1e-06": (1e-6, np.linspace(-1, 1, 7), np.linspace(-1.5, 1.5, 9), 0.6),
    "infeasible_rows": (None, np.linspace(-1, 1.5, 6), np.array([-1.2, -0.6, 0.3, 0.9]), 0.9),
}


@pytest.mark.parametrize("case", ORACLE_GRIDS)
def test_grid_evaluation_equals_per_cell_scalar_loop(params, base, case):
    # oracle: the per-cell loop over the scalar kernels, in Python floats
    r_s, speeds, torques, u_max = ORACLE_GRIDS[case]
    if r_s is not None:
        params = replace(params, r_s=r_s)
    deltas = (-0.01, 0.002, 0.01, -0.02)
    t = evaluate_maps(OperatingGrid(speeds, torques), params, base.omega_n,
                      deltas=deltas, i_max=1.2, u_max=u_max)
    theta = ParameterVector(psi_m=params.psi_m, r_s=params.r_s)
    known_x = (params.x_d, params.x_q)
    want = {name: np.full((len(speeds), len(torques)), np.nan) for name in MAP_SURFACES}
    for si, n in enumerate(speeds.tolist()):
        lam = eigenvalues(theta, known_x, n, base.omega_n)
        for ti, tau in enumerate(torques.tolist()):
            i = cell_currents(params, tau, 1.2)
            if i is None:
                continue
            u = steady_state_voltage(params, i, n)
            if math.hypot(u.d, u.q) > u_max:
                continue
            eps = steady_state_error(theta, known_x, n, i, *deltas)
            g = gradient_steady_state(theta, known_x, n, i)
            cell = {
                "i_d": i.d, "i_q": i.q, "eps_d": eps.d, "eps_q": eps.q,
                "psi11": g.psi_d, "psi12": g.psi_q, "psi21": g.rs_d, "psi22": g.rs_q,
                "r_scalar": g.psi_d**2 + g.psi_q**2 + g.rs_d**2 + g.rs_q**2,
                "det_R": (g.psi_d * g.rs_q - g.psi_q * g.rs_d) ** 2,
                "re_l1": lam.lambda1.real, "im_l1": lam.lambda1.imag,
                "re_l2": lam.lambda2.real, "im_l2": lam.lambda2.imag,
                "z_euler_mag": max(abs(discrete_stability(lam.lambda1, DT, "explicit_euler")[0]),
                                   abs(discrete_stability(lam.lambda2, DT, "explicit_euler")[0])),
                "z_trap_mag": max(abs(discrete_stability(lam.lambda1, DT, "trapezoidal")[0]),
                                  abs(discrete_stability(lam.lambda2, DT, "trapezoidal")[0])),
            }
            for name, value in cell.items():
                want[name][si, ti] = value
    assert 0 < np.count_nonzero(np.isnan(t.i_d)) < t.i_d.size
    if case == "infeasible_rows":
        assert np.isnan(t.i_d).all(axis=1).tolist() == [True, False, False, False, True, True]
    for name in MAP_SURFACES:
        assert np.array_equal(getattr(t, name), want[name], equal_nan=True), name


def test_evaluate_maps_calls_each_kernel_once_per_grid_or_axis(params, base, monkeypatch):
    # the grid-wide kernels run once per grid, the speed-only ones once per
    # speed, the MTPA reference once per torque value: no per-row loop
    calls = Counter()
    for name in ("steady_state_voltage", "steady_state_error", "eigenvalues",
                 "gradient_steady_state", "mtpa_reference"):
        def counted(*args, _fn=getattr(analysis, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(analysis, name, counted)
    _, speeds, torques, u_max = ORACLE_GRIDS["nominal"]
    evaluate_maps(OperatingGrid(speeds, torques), params, base.omega_n, u_max=u_max)
    assert calls == {"steady_state_voltage": 1, "steady_state_error": 1, "eigenvalues": 7,
                     "gradient_steady_state": 7, "mtpa_reference": 9}


def test_zero_resistance_map_raises_without_numpy_warnings(params, base):
    # r_s = 0 has no time constants; the map must refuse it before any grid
    # arithmetic divides by a zero denominator
    grid = OperatingGrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r_s > 0"):
            evaluate_maps(grid, replace(params, r_s=0.0), base.omega_n)


def test_subgrid_values_independent_of_grid(params, base):
    big = evaluate_maps(
        OperatingGrid(np.linspace(-1, 1, 9), np.linspace(-1, 1, 9)),
        params, base.omega_n,
    )
    small = evaluate_maps(
        OperatingGrid(np.array([-0.5, 0.0, 0.5]), np.array([-0.5, 0.0, 0.5])),
        params, base.omega_n,
    )
    # n = 0.5, tau = 0.5 appears in both grids
    assert small.psi21[2, 2] == big.psi21[6, 6]


def test_csv_export_header_and_shape(tmp_path, params, base):
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 5), torque_axis=np.linspace(-1, 1, 5)
    )
    t = evaluate_maps(grid, params, base.omega_n)
    path = tmp_path / "maps.csv"
    write_maps_csv(t, str(path))
    with open(path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["n_pu", "tau_pu", *MAP_COLUMNS["all"]]
    assert len(rows) == 1 + 25


def _csv_table(rows: int, block: int) -> np.ndarray:
    """Columns that are constant in every ``block``-row block, in some
    blocks only, or never, with signed zeros, NaNs of two bit patterns and
    infinities."""
    k = np.arange(rows)
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(np.float64)[0]
    return np.column_stack([
        k * 1.25e-4,                                  # never constant
        np.full(rows, 0.1234567890123),               # constant in every block
        (k // block) * 0.3,                           # a new constant in each block
        np.where(k % block == 0, 0.5, 0.25),          # differs in each block's first row
        np.where(k % block == block - 1, 0.5, 0.25),  # and in its last row
        np.where(k < block, 0.92, k * 1e-3),          # constant in the first block only
        np.where(k % 2, -0.0, 0.0),                   # 0.0 beside -0.0
        np.full(rows, -0.0),
        np.full(rows, np.nan),
        np.where(k < 300, np.nan, other_nan),         # NaN, two bit patterns
        np.where(k % 3, np.inf, -np.inf),
        np.full(rows, np.inf),
        np.where(k < block, 1e300, -1e-300),
    ])


# block lengths: one row, a map's speed row, the default (bare row-count id),
# and one longer than any table
@pytest.mark.parametrize("rows, block", [
    pytest.param(rows, block, id=str(rows) if block == 256 else f"{rows}-block{block}")
    for rows in (1, 256, 257, 513) for block in (1, 101, 256, 1000)
])
def test_write_csv_table_equals_one_format_per_value(tmp_path, rows, block):
    # the plain writer: every value through its own %.10g, CRLF line ends
    header = [f"c{j}" for j in range(13)]
    table = _csv_table(rows, block)
    expected = ",".join(header) + "\r\n" + "".join(
        ",".join("%.10g" % v for v in row) + "\r\n" for row in table.tolist()
    )
    path = tmp_path / "t.csv"
    if block == 256:
        write_csv_table(str(path), header, table)
    else:
        write_csv_table(str(path), header, table, block)
    assert path.read_bytes() == expected.encode()


def test_eigen_sweep_rows(theta_nominal, known_x, omega_n):
    rows = eigen_sweep(theta_nominal, known_x, omega_n, np.linspace(0, 1, 5))
    assert len(rows) == 5
    assert all(r.trap_stable for r in rows)


def test_eig_csv_equals_dict_writer_reference(tmp_path, theta_nominal, known_x, omega_n):
    # oracle: csv.DictWriter over eigen_sweep's rows. The range reaches
    # exponent-form reprs and an unstable trapezoidal map, which the golden
    # ranges do not
    out = tmp_path / "out"
    assert cli_main(["--out", str(out), "eig", "--speed-range", "0.00001", "1e16",
                     "--points", "5"]) == 0
    rows = eigen_sweep(theta_nominal, known_x, omega_n, np.linspace(0.00001, 1e16, 5))
    ref = tmp_path / "ref.csv"
    with open(ref, "w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=rows[0]._fields)
        w.writeheader()
        w.writerows(row._asdict() for row in rows)
    got = (out / "eigenvalues.csv").read_bytes()
    assert got == ref.read_bytes()
    assert b"1e-05," in got and b"1e+16," in got and got.endswith(b",False\r\n")


def test_infeasible_cells_marked_absent_not_zero(params, base):
    # a tight voltage ceiling makes the high-speed, high-torque corners
    # unreachable; those cells must be NaN, not zero
    grid = OperatingGrid(
        speed_axis=np.linspace(-1, 1, 9), torque_axis=np.linspace(-1, 1, 9)
    )
    t = evaluate_maps(grid, params, base.omega_n, u_max=0.5)
    corner = t.psi21[-1, -1]  # n = 1, tau = 1
    assert math.isnan(corner)
    assert not np.all(np.isnan(t.psi21))  # low-speed cells still present
    assert np.isnan(t.eps_d[-1, -1])


def test_grid_rejects_non_monotone():
    with pytest.raises(ValueError):
        OperatingGrid(speed_axis=np.array([0.0, 0.0, 1.0]))
