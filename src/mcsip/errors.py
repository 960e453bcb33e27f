"""Exception types shared across the package."""


class McsipError(Exception):
    pass


class UnknownState(McsipError):
    """A Markov state that does not belong to the chain."""


class UnknownNode(McsipError):
    """A node id that does not belong to the scenario tree."""


class InvalidChain(McsipError):
    """Markov chain data violating stochasticity or membership rules."""


class InvalidStage(McsipError):
    """Stage index outside the valid range for an operation."""


class Overflow(McsipError):
    """A construction would exceed its configured size cap."""


class DimensionMismatch(McsipError):
    """Inconsistent array or matrix dimensions."""


class NumericalFailure(McsipError):
    """The LP/MIP kernel could not produce a trustworthy answer."""


class InfeasiblePolicy(McsipError):
    """A fixed integer policy admits no feasible continuous completion."""


class InfeasibleModel(McsipError):
    """Feasibility cuts proved the first-stage feasible region empty."""


class ConfigError(McsipError, ValueError):
    """Bad CLI, bench or solver configuration."""
