"""Day-ahead stochastic N-1 unit commitment with corrective network
reconfiguration."""

from .formulation import (FormulationConfig, ModelKind, assemble,
                          compute_big_m)
from .metrics import (RunReport, ScheduleSolution, base_case_curtailment,
                      build_report, carbon_emissions, cost_breakdown,
                      extract_schedule, post_contingency_curtailment,
                      switching_report, verify_solution)
from .milp import MilpProblem, VariableRegistry
from .oracle import CapExceeded, OracleCaps, enumerate_commitments
from .scenarios import (ScenarioSet, block_average, build_scenario_set,
                        load_scenario_set, synth_wind_profiles)
from .solver import (SolveOptions, SolveResult, SolveStatus, SolverError,
                     solve)
from .system import (Bus, DemandProfile, Generator, InitialStatus,
                     PowerSystem, ResUnit, TransmissionLine, ValidationReport,
                     align_scenarios, build_system, load_system,
                     scale_penetration, validate_system)
from .topology import (Contingency, build_contingency_set, find_bridges,
                       islands_after)

__version__ = "0.1.0"

__all__ = [
    "Bus", "CapExceeded", "Contingency", "DemandProfile", "FormulationConfig",
    "Generator", "InitialStatus", "MilpProblem", "ModelKind", "OracleCaps",
    "PowerSystem", "ResUnit", "RunReport", "ScenarioSet", "ScheduleSolution",
    "SolveOptions", "SolveResult", "SolveStatus", "SolverError",
    "TransmissionLine", "ValidationReport", "VariableRegistry",
    "align_scenarios", "assemble", "base_case_curtailment", "block_average",
    "build_contingency_set", "build_report", "build_scenario_set",
    "build_system", "carbon_emissions", "compute_big_m", "cost_breakdown",
    "enumerate_commitments", "extract_schedule", "find_bridges",
    "islands_after", "load_scenario_set", "load_system",
    "post_contingency_curtailment", "scale_penetration", "solve",
    "switching_report", "synth_wind_profiles", "validate_system",
    "verify_solution",
]
