"""``python -m sqrtnfa``: the ``sqrtnfa`` console script."""

from .cli import entry

entry()
