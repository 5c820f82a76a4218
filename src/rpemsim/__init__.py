"""Per-unit IPMSM drive simulation with recursive prediction-error online
identification of magnet flux linkage and stator resistance."""

from .analysis import (
    EigenPair,
    OperatingGrid,
    discrete_stability,
    eigenvalues,
    evaluate_maps,
    steady_state_error,
)
from .control import PiState, References, mtpa_reference
from .estimator import (
    GainConfig,
    GainMatrix,
    HessianState,
    ParameterBox,
    ParameterVector,
    PredictorState,
    RpemEstimator,
    gain_schedule,
    gna_update,
    gradient_dynamic_step,
    gradient_steady_state,
    phyint_update,
    prediction_error,
    predictor_step,
    pseudoinverse_2x2,
    sga_update,
)
from .plant import PlantState, integrate_electrical, torque
from .pu import (
    BaseQuantities,
    ConfigError,
    DqVector,
    MachineParams,
    default_machine,
    machine_from_config,
    make_base,
)
from .runner import ConvergenceReport, RunResult, SimulationDiverged, convergence_metrics, run
from .scenario import (
    Scenario,
    ScenarioError,
    StepEvent,
    load_scenario,
    preset_library,
    save_scenario,
)

__version__ = "0.1.0"
