"""The input checks of the public entry points that no run reaches: each
raises its own error, naming what is wrong, before any arithmetic."""

import math
from dataclasses import replace

import numpy as np
import pytest

from rpemsim.analysis import discrete_stability, time_constants
from rpemsim.control import ControlError, CurrentLoops, PiState, mtpa_currents
from rpemsim.estimator import GainConfig, ParameterBox, ParameterVector, RpemEstimator
from rpemsim.plant import Trapezoid, steady_state_current
from rpemsim.pu import ConfigError, DqVector, default_machine
from rpemsim.runner import convergence_metrics

BASE, PARAMS = default_machine()
DT = 125e-6
PI = PiState(kp=1.0, ti=0.01)


def _estimator(t_samp):
    return RpemEstimator(
        GainConfig(), ParameterVector(PARAMS.psi_m, PARAMS.r_s),
        ParameterBox(psi_m_min=0.1, psi_m_max=2.0, r_s_min=0.0, r_s_max=0.5),
        (PARAMS.x_d, PARAMS.x_q), BASE.omega_n, t_samp,
    )


# each positivity guard refuses 0 (the row named as the guard), NaN and inf
POSITIVE_ARGUMENTS = [
    ("trapezoid_dt", lambda x: Trapezoid(BASE.omega_n, x), ValueError, "dt must be positive"),
    ("current_loops_dt", lambda x: CurrentLoops(PI, PI, PARAMS.x_d, PARAMS.x_q, x, 1.2),
     ValueError, "dt must be positive"),
    ("current_loops_u_max", lambda x: CurrentLoops(PI, PI, PARAMS.x_d, PARAMS.x_q, DT, x),
     ValueError, "u_max must be positive"),
    ("estimator_t_samp", _estimator, ConfigError, "t_samp must be positive"),
    ("discrete_stability_dt", lambda x: discrete_stability(-1.0 + 0j, x, "trapezoidal"),
     ValueError, "dt must be positive"),
    ("time_constants_r_s", lambda x: time_constants(
        ParameterVector(PARAMS.psi_m, x), (PARAMS.x_d, PARAMS.x_q), BASE.omega_n,
    ), ValueError, "r_s > 0"),
]


@pytest.mark.parametrize("call,error,match", [
    pytest.param(lambda: discrete_stability(-1.0 + 0j, DT, "euler"), ValueError,
                 "unknown method 'euler'", id="discrete_stability_method"),
    pytest.param(lambda: steady_state_current(replace(PARAMS, r_s=0.0), DqVector(0.1, 0.0), 0.0),
                 ValueError, "r_s = 0 at standstill", id="steady_state_singular"),
    pytest.param(lambda: convergence_metrics(np.empty(0), np.empty(0), 1.0), ValueError,
                 "empty trajectory", id="convergence_empty"),
    pytest.param(lambda: replace(BASE, z_base=2.0 * BASE.z_base), ConfigError,
                 "z_base != u_base / i_base", id="base_z"),
    pytest.param(lambda: replace(BASE, psi_base=2.0 * BASE.psi_base), ConfigError,
                 "psi_base != u_base / omega_n", id="base_psi"),
    # the i_q denominator psi_m - (x_q - x_d) * i_d is 3.2e-10, below 1e-9
    pytest.param(lambda: mtpa_currents(1e-20, 1e-12, PARAMS.x_d, PARAMS.x_q), ControlError,
                 "i_q denominator", id="mtpa_denominator"),
    *(pytest.param(lambda make=make, x=x: make(x), error, match,
                   id=name if x == 0.0 else f"{name}_{x}")
      for name, make, error, match in POSITIVE_ARGUMENTS for x in (0.0, math.nan, math.inf)),
])
def test_public_entry_points_reject_bad_input(call, error, match):
    with pytest.raises(error, match=match):
        call()
