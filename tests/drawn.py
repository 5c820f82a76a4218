"""Hypothesis strategies that the drawn tests share: the time offsets near a
sample instant, the gain objects and gradient-mode pairs, the speeds of
each scheduler band, and one strategy, :func:`scenarios`, that draws a
whole closed-loop Scenario.

pytest does not collect this module; tests import it by name, as in
``from drawn import scenarios``.
"""

import math
from functools import partial
from operator import itemgetter

from hypothesis import strategies as st

from rpemsim.estimator import GainConfig
from rpemsim.pu import default_machine
from rpemsim.scenario import ControlSection, EstimatorSection, PlantSection, Scenario, StepEvent

DT = 125e-6  # the drawn scenarios' sampling period, the default t_samp_s
SAMPLES = 160  # samples of a drawn run
SEED = 101

# time offsets from a sample instant, on either side of EVENT_TOL_S
NEAR_SAMPLE = st.one_of(
    st.sampled_from([-2e-12, -1e-12, -0.6e-12, -0.5e-12, 0.0, 0.5e-12, 0.6e-12, 1e-12, 1.5e-12,
                     2e-12]),
    st.floats(-2e-12, 2e-12),
)


def at(k, offset, dt=DT):
    """The time ``offset`` from sample k, clamped to t = 0."""
    return max(0.0, k * dt + offset)


GAINS = {  # GainConfig settings of each gain object make_gain picks
    "sga": {}, "sga_per_gradient": {"sga_r_mode": "per_gradient"},
    "gna": {"algorithm": "gna"}, "phyint": {"algorithm": "phyint"},
}
GRADIENT_MODES = [(a, b) for a in ("steady_state", "dynamic") for b in ("steady_state", "dynamic")]

N_LIM1, N_LIM2 = GainConfig.n_lim1, GainConfig.n_lim2
SPEED_BANDS = {  # |n| in each band of the default scheduler limits
    "flux": st.floats(N_LIM1, 1.5, exclude_min=True),  # the flux row on
    "dead": st.floats(N_LIM2, N_LIM1),  # both rows off
    "resistance": st.floats(0.0, N_LIM2, exclude_max=True),  # the resistance row on
}
# each limit and one ulp either side of it
BAND_EDGES = [math.nextafter(lim, to) for lim in (N_LIM1, N_LIM2) for to in (0.0, lim, math.inf)]


def speeds(*bands):
    """Signed speeds in the named bands of SPEED_BANDS; with none named, in
    every band and at every edge."""
    parts = [SPEED_BANDS[b] for b in bands] or [*SPEED_BANDS.values(), st.sampled_from(BAND_EDGES)]
    return st.builds(math.copysign, st.one_of(parts), st.sampled_from([1.0, -1.0]))


SPEEDS = speeds()
TORQUES = st.floats(-0.5, 0.5)
LOADS = st.floats(-0.2, 0.2)


def _timed(values, max_size):
    """Lists of at most max_size (time, value) pairs, sorted by time, each
    time within 2e-12 s of a sample instant before the last."""
    return st.lists(
        st.tuples(st.integers(0, SAMPLES - 2), NEAR_SAMPLE, values), max_size=max_size,
    ).map(lambda drawn: sorted(((at(k, offset), v) for k, offset, v in drawn), key=itemgetter(0)))


def _schedule(values):
    """A schedule of a t = 0 entry and up to three more."""
    return st.builds(lambda v0, more: [(0.0, v0), *more], values, _timed(values, 3))


def _event(target, factor, value):
    """Events on target as (target, {"factor": f} or {"value": v}), f and v
    drawn from the strategies given."""
    return st.tuples(st.just(target), st.one_of(factor.map(lambda f: {"factor": f}),
                                                value.map(lambda v: {"value": v})))


_, _MACHINE = default_machine()
# per target, its events; a machine parameter's value is drawn over its
# factor's range times the machine's value. x_d only falls and x_q only
# rises, so every drawn machine keeps x_q >= x_d
_EVENTS = {
    **{target: _event(target, st.floats(lo, hi), st.floats(lo * getattr(_MACHINE, target),
                                                           hi * getattr(_MACHINE, target)))
       for target, (lo, hi) in {"psi_m": (0.9, 1.1), "r_s": (0.8, 1.25),
                                "x_d": (0.9, 1.0), "x_q": (1.0, 1.1)}.items()},
    "load_torque": _event("load_torque", st.floats(-1.0, 1.0), LOADS),
    "speed_ref": _event("speed_ref", st.floats(-1.0, 1.0), SPEEDS),
}


def _estimator(gain, gradient_modes, box_fraction):
    mode_psi, mode_rs = gradient_modes
    return EstimatorSection(**gain, gradient_mode_psi=mode_psi, gradient_mode_rs=mode_rs,
                            box_fraction=box_fraction)


def scenarios():
    """Scenarios of SAMPLES samples, logged at full rate, with theta0 the
    true values. They draw every gain object, gradient-mode pair, speed mode
    and control mode; a t = 0 speed, load and torque of either sign; up to
    three more speed_ref and tau_ref entries and up to eight events, each a
    factor or a value, at times within 2e-12 s of a sample instant before
    the last; plant noise 0 or 0.01 and 1 to 3 substeps; and the default box
    or one so narrow that the projection clamps."""
    return st.builds(
        partial(Scenario, name="drawn", duration_s=SAMPLES * DT, seed=SEED, log_decimation=1),
        plant=st.builds(
            PlantSection,
            noise_sigma_pu=st.sampled_from([0.0, 0.01]),
            speed_mode=st.sampled_from(["prescribed", "dynamic"]),
            load_torque_pu=LOADS,
            substeps=st.sampled_from([1, 2, 3]),
        ),
        control=st.builds(
            ControlSection, mode=st.sampled_from(["torque", "speed"]),
            speed_ref=_schedule(SPEEDS), tau_ref=_schedule(TORQUES),
        ),
        estimator=st.builds(
            _estimator, st.sampled_from(list(GAINS.values())), st.sampled_from(GRADIENT_MODES),
            st.sampled_from([0.3, 1e-4]),
        ),
        events=_timed(st.one_of(*_EVENTS.values()), 8).map(
            lambda drawn: [StepEvent(time_s=t, target=target, **key) for t, (target, key) in drawn]
        ),
    )
