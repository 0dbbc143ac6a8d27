"""Exception hierarchy for the gridmarg toolkit.

Every error raised by this package derives from GridmargError so callers can
catch toolkit failures in one clause while letting programming errors
(TypeError, ValueError from bad call signatures) propagate.
"""


class GridmargError(Exception):
    """Base class for all gridmarg errors."""


# --- LP solving ---

class NumericalFailure(GridmargError):
    """The LP backend broke down numerically after bounded restarts.

    Usually a sign that the instance mixes badly scaled magnitudes.
    """


class InfeasibleModel(GridmargError):
    """A built model has no feasible point."""

    def __init__(self, message: str, mode: str = ""):
        super().__init__(message)
        self.mode = mode


class UnboundedModel(GridmargError):
    """A built model has unbounded objective."""

    def __init__(self, message: str, mode: str = ""):
        super().__init__(message)
        self.mode = mode


# --- scenario files ---

class ParseError(GridmargError):
    """Malformed scenario or series file; message carries line/field context."""


class ValidationError(GridmargError):
    """A loaded entity violates a model invariant; names entity and field."""


class MissingSeries(GridmargError):
    """A scenario references a time-series CSV that does not exist."""


# --- model building ---

class MissingCapacity(GridmargError):
    """Operational model requested without capacities for every buildable entity."""


class UnknownZone(GridmargError):
    """A perturbation or metric referenced a zone id not present in the grid."""


# --- metrics ---

class ZeroDemand(GridmargError):
    """Average emission rate requested over a scope with zero served demand."""


class InfeasiblePerturbation(GridmargError):
    """A perturbed solve turned out infeasible while the base case was not."""


class CostCapInfeasible(GridmargError):
    """The emissions-minimizing solve rejected the cost cap (numerical)."""


class DegenerateDelta(GridmargError):
    """Long-run rate undefined: demand delta between solves is below 1 MWh."""


# --- scheduling ---

class InfeasibleWindow(GridmargError):
    """Charging window cannot be satisfied at the load's maximum charge rate."""


class ScheduleMismatch(GridmargError):
    """A fixed schedule's energy totals disagree with the load baselines."""
