"""Size budgets, and the one gate that charges them.

A single integer budget caps every input-sized allocation or search in
the package.  Each one is charged through :func:`charge` under the name
of its phase before anything of that size is built: validate the input,
then charge, then allocate.  The budget resolves from an explicit
argument, else the ``SQRTNFA_BUDGET`` environment variable, else
``DEFAULT_BUDGET``.
"""

import os
from numbers import Integral

from .errors import BudgetExceededError

DEFAULT_BUDGET = 1_000_000

BUDGET_ENV = "SQRTNFA_BUDGET"


def _is_int(x) -> bool:
    # the exact type first: the Integral test alone costs about 0.6 us a
    # call, and reach makes one per letter and per start state
    return type(x) is int or isinstance(x, Integral)


def effective_budget(override: int | None = None) -> int:
    """Resolve the budget to use: explicit argument > env var > default."""
    if override is not None:
        if not _is_int(override):
            raise ValueError(f"budget must be an integer, got {override!r}")
        if override < 1:
            raise ValueError(f"budget must be positive, got {override}")
        return override
    env = os.environ.get(BUDGET_ENV)
    if env:
        try:
            value = int(env)
        except ValueError:
            raise ValueError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
        if value < 1:
            raise ValueError(f"{BUDGET_ENV} must be positive, got {value}")
        return value
    return DEFAULT_BUDGET


def charge(what: str, needed: int, budget: int | None = None) -> int:
    """Charge ``needed`` units of the phase ``what`` against the budget
    (resolved as :func:`effective_budget` does) and return the budget;
    more than it raises ``BudgetExceededError(what, needed, budget)``."""
    budget = effective_budget(budget)
    if needed > budget:
        raise BudgetExceededError(what, needed, budget)
    return budget
