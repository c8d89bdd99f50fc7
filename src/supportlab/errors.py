"""Exception types shared across the package."""


class SupportLabError(Exception):
    """Base class for all supportlab errors.

    ``params`` names the parameters whose values the failed check compared,
    where the raiser knows them; the CLI uses it to tell whether one of those
    values came from a config file.
    """

    def __init__(self, *args, params: tuple[str, ...] = ()):
        super().__init__(*args)
        self.params = params


class ValidationError(SupportLabError, ValueError):
    """An argument violates a documented precondition (bad shape, range, cardinality)."""


class DomainError(SupportLabError, ValueError):
    """A numeric argument is outside the mathematical domain of the operation."""


class PreconditionError(SupportLabError, ValueError):
    """A bound's hypothesis fails; ``hypothesis`` names the violated inequality."""

    def __init__(self, hypothesis: str, detail: str = "", params: tuple[str, ...] = ()):
        self.hypothesis = hypothesis
        msg = f"hypothesis violated: {hypothesis}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg, params=params)


class BudgetError(SupportLabError, RuntimeError):
    """An enumeration or trial budget would be exceeded."""
