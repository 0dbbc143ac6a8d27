"""gridmarg: zonal capacity-expansion LPs and consequential emissions metrics
for flexible EV charging (average, short-run marginal, long-run marginal)."""

from .errors import (CostCapInfeasible, DegenerateDelta, GridmargError, InfeasibleModel,
                     InfeasiblePerturbation, InfeasibleWindow, MissingCapacity, MissingSeries,
                     ModelBuildError, NumericalFailure, ParseError, ScheduleMismatch,
                     UnboundedModel, UnknownZone, ValidationError, ZeroDemand)
from .flex import ChargingSchedule, FlexWindow, ScheduleSource
from .grid import (CostMultipliers, FlexibleLoad, Generator, GridModel, ScenarioConfig,
                   StorageUnit, TransmissionLine, Zone, annualized_capital_cost,
                   apply_sensitivity, first_hours, resolve_scenario, scale_ev_penetration)
from .lp import (LpBuilder, LpMatrix, LpProblem, LpSolution, ResidualReport, SolveStatus, solve,
                 verify_kkt)
from .metrics import (SRME1, SRME2, ConsequentialReport, EmissionRateSeries,
                      average_emission_rate, icev_comparison, long_run_mer, short_run_rates,
                      srme_dual, srme_uniform)
from .planner import (DispatchResult, ExpansionModel, FixedCapacities, ScaleEV, SingleHour,
                      UniformAll, build_expansion_lp, build_operational_lp, perturb_demand,
                      solve_expansion, solve_model, solve_operational)
from .scenario_io import load_scenario, write_scenario
from .scheduler import (IterationTrace, evaluate_fixed_schedule, pin_schedule,
                        schedule_min_srme)

__version__ = "0.1.0"
