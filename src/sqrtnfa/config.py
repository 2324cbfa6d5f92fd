"""Size budgets and integer arguments, each behind one gate.

A single integer budget caps every input-sized allocation or search in
the package.  Each one is charged through :func:`charge` under the name
of its phase before anything of that size is built: validate the input,
then charge, then allocate.  The budget resolves from an explicit
argument, else the ``SQRTNFA_BUDGET`` environment variable, else
``DEFAULT_BUDGET``.  Every integer (a size, state, letter, payload or
transition entry, word length or case id) passes :func:`check_int` alone.
"""

import os
from numbers import Integral

from .errors import BudgetExceededError

DEFAULT_BUDGET = 1_000_000

BUDGET_ENV = "SQRTNFA_BUDGET"


def check_int(value, what: str, low: int | None = None, high: int | None = None) -> int:
    """``int(value)`` when ``value`` is an integer (numpy integers
    included) with ``low <= value < high``, a None bound being open;
    otherwise ``ValueError`` naming ``what``."""
    # the exact type first: the Integral test alone costs about 0.6 us a
    # call, and member makes one per letter
    if type(value) is not int and not isinstance(value, Integral):
        raise ValueError(f"{what} {value!r} is not an integer")
    if (low is not None and value < low) or (high is not None and value >= high):
        raise ValueError(f"{what} {value} out of range")
    return int(value)


def effective_budget(override: int | None = None) -> int:
    """Resolve the budget to use: explicit argument > env var > default."""
    if override is not None:
        return check_int(override, "budget", 1)
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
