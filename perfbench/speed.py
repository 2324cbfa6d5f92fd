"""The host's speed, sampled while the program runs, and times scaled by it.

A shared host runs the same pure-Python code up to 2.4 times as slowly in
phases that last from seconds to minutes, and every kind of work slows
with it.  No statistic over a run of a minute or less can tell a slow
phase from a slow program.  So while a job runs, :class:`Sampler` times
one call of a fixed reference kernel every ``INTERVAL_S`` seconds, from a
``SIGALRM`` handler, inside the commands being measured.  A time divided
by the mean reference time over the same interval, and multiplied by
``REF_NOMINAL_S``, is that time at the reference host speed:
:func:`scaled`.

The reference kernel lives here, not in ``src/``, so that a change to the
program never changes it.  It simulates a fixed nondeterministic
automaton on fixed words with Python sets, which is the kind of work
(sets, dicts, tuples, small loops) the benchmarked commands do; such work
slows more in a slow phase than plain integer arithmetic does.
"""

from __future__ import annotations

import random
import signal
from time import perf_counter

INTERVAL_S = 0.05
# Seconds one reference() call took on a quiet 2-core host when this
# benchmark was written: the speed every scaled time is expressed at.
REF_NOMINAL_S = 0.002

_rng = random.Random(7)
_STATES = 40
_DELTA = {
    (state, letter): frozenset(_rng.sample(range(_STATES), 3))
    for state in range(_STATES)
    for letter in range(3)
}
_WORDS = [tuple(_rng.randrange(3) for _ in range(12)) for _ in range(24)]


def reference() -> int:
    """The fixed work the host's speed is measured with."""
    accepted = 0
    for word in _WORDS:
        current = {0}
        for letter in word:
            following = set()
            for state in current:
                following.update(_DELTA[state, letter])
            current = following
        accepted += 5 in current
    return accepted


def scaled(busy_s: float, ref_s: float, ref_calls: int) -> float:
    """``busy_s`` at the reference speed, given ``ref_calls`` reference
    calls that took ``ref_s`` seconds over the same interval."""
    return busy_s * REF_NOMINAL_S * ref_calls / ref_s


class Sampler:
    """Times one reference() call every INTERVAL_S seconds while started.

    ``calls`` and ``spent`` only grow; a caller takes :meth:`reading`
    before and after the interval it measures.  The time spent sampling is
    part of that interval's wall time, and is subtracted from it.
    """

    def __init__(self) -> None:
        self.calls = 0
        self.spent = 0.0

    def _sample(self, _signum, _frame) -> None:
        start = perf_counter()
        reference()
        self.spent += perf_counter() - start
        self.calls += 1

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self) -> tuple[int, float]:
        return self.calls, self.spent
