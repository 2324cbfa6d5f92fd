"""Size budgets.

A single integer budget caps every state/pair count in the package
(determinization subsets, product states of the cube construction, pair
scans of the case checker, function-automaton states).  The default can be
overridden globally with the ``SQRTNFA_BUDGET`` environment variable or
per call via an explicit argument.
"""

import os

DEFAULT_BUDGET = 1_000_000

BUDGET_ENV = "SQRTNFA_BUDGET"


def effective_budget(override: int | None = None) -> int:
    """Resolve the budget to use: explicit argument > env var > default."""
    if override is not None:
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
