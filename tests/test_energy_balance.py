"""The discrete energy balance of every trapezoidal step a run takes.

For fixed speed and voltage the current dynamics are linear with constant
forcing, and the trapezoidal step is then the implicit midpoint step. With
i_m the mean of a step's two currents and W = (x_d*i_d**2 + x_q*i_q**2) / 2,

    (W1 - W0) / (omega_n * dt) = u . i_m - r_s * |i_m|**2 - n * tau(i_m)

holds exactly in real arithmetic, tau being the ``plant.torque`` formula. A
sign slip in ``step_matrices``, ``Trapezoid.drive`` or ``torque`` breaks it
at order one, also where it keeps the runs' mirror symmetry. The property
checks it on drawn timelines for every plant step and every predictor
step at the estimate, to 1e-11 of the sum of the terms' magnitudes.
Products of subnormal currents round to a subnormal step, not to a share
of their size, so the bound adds the smallest normal float: a drawn torque
reference of 2.2e-311 pu gives such currents.
"""

import sys
from unittest import mock

from hypothesis import given, settings

from rpemsim import estimator, runner
from rpemsim.plant import Trapezoid, torque
from drawn import DRAWN_SETTINGS, scenarios

TOLERANCE = 1e-11


def _recording(calls):
    """A Trapezoid whose drive appends its model, inputs and result to calls."""

    class Recording(Trapezoid):
        def drive(self, i_d, i_q, u_d, u_q, psi_m):
            i1 = super().drive(i_d, i_q, u_d, u_q, psi_m)
            calls.append((self.r_s, self.x_d, self.x_q, self.n, self.omega_n * self.dt,
                          (i_d, i_q), (u_d, u_q), psi_m, i1))
            return i1

    return Recording


def energy_residual(r_s, x_d, x_q, n, w_dt, i0, u, psi_m, i1):
    """The balance's residual and the sum of its terms' magnitudes; W1 - W0
    is written as x_d*di_d*i_m_d + x_q*di_q*i_m_q, which is equal in real
    arithmetic and cancels no two squares."""
    m_d, m_q = 0.5 * (i0[0] + i1[0]), 0.5 * (i0[1] + i1[1])
    terms = (
        (x_d * (i1[0] - i0[0]) * m_d + x_q * (i1[1] - i0[1]) * m_q) / w_dt,
        -(u[0] * m_d + u[1] * m_q),
        r_s * (m_d * m_d + m_q * m_q),
        n * torque(psi_m, x_d, x_q, m_d, m_q),
    )
    return abs(sum(terms)), sum(abs(t) for t in terms)


@settings(DRAWN_SETTINGS, max_examples=30)
@given(sc=scenarios())
def test_every_trapezoidal_step_keeps_the_discrete_energy_balance(sc):
    plant_calls, predictor_calls = [], []
    with mock.patch.object(runner, "Trapezoid", _recording(plant_calls)), \
            mock.patch.object(estimator, "Trapezoid", _recording(predictor_calls)):
        res = runner.run(sc)
    # the predictor steps from the second sample on
    assert len(plant_calls) == res.total_steps
    assert len(predictor_calls) == res.total_steps - 1
    for call in plant_calls + predictor_calls:
        residual, scale = energy_residual(*call)
        assert residual <= TOLERANCE * scale + sys.float_info.min, call
