"""A speed probe that scales measured times to the reference machine speed.

The machines this benchmark runs on share their cores with other tenants,
and a core's speed drifts by 20 % and more over tens of seconds (see the
README, "Steadiness and bounds").  A round of 15-40 s cannot average that
out, so every time the benchmark reports is scaled: a fixed piece of
Python and BLAS work, the probe, is timed again and again while the
measured work runs, in the same process and on the same core, and a time
is multiplied by ``REFERENCE_PROBE_S / mean probe time``.  A change to
relex moves the scaled time as it moves the wall time; a slow spell of
the machine moves the probe too and cancels out.
"""

from __future__ import annotations

import contextlib
import itertools
import signal
import statistics
import time

import numpy as np

# Median probe time on the reference machine (2-core Xeon VM, one BLAS
# thread), so that scaled times read as seconds on that machine.
REFERENCE_PROBE_S = 0.0044
INTERVAL_S = 0.25    # one probe every quarter second while work runs
BRACKET_S = 0.2      # probing before and after each timed piece of work

_MATRIX = np.random.default_rng(0).random((200, 200))
_KEYS = tuple(range(12))


def probe_once() -> float:
    """Time the probe's fixed work once.  It mixes the kinds of work relex
    does: dicts built per assignment as in exhaustive MAP, list sorting
    and set building, and dense matrix products.  Allocation-heavy Python
    tracked the speed of ``learn-fg`` best (correlation 0.94 over 98
    calls, against 0.81 for a plain arithmetic loop)."""
    start = time.perf_counter()
    for combo in itertools.islice(itertools.product((0, 1), repeat=12), 1000):
        assignment = dict(zip(_KEYS, combo))
        sum(1 for k in _KEYS if assignment[k])
    values = sorted((i * 1.5 for i in range(10000)), reverse=True)
    len({int(v) % 977 for v in values})
    for _ in range(2):
        _MATRIX @ _MATRIX
    return time.perf_counter() - start


_spent = 0.0  # seconds this process has spent probing


def spent() -> float:
    """Seconds spent probing so far; timers of measured work subtract it."""
    return _spent


class SpeedProbe:
    """The probe samples taken around and during one piece of work."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, *_signal) -> None:
        global _spent
        d = probe_once()
        self.samples.append(d)
        _spent += d

    def bracket(self) -> None:
        """Probe for ``BRACKET_S`` seconds, before or after the work."""
        end = time.perf_counter() + BRACKET_S
        while time.perf_counter() < end:
            self._sample()

    @contextlib.contextmanager
    def during(self):
        """Probe every ``INTERVAL_S`` on a timer signal while the work
        runs in the main thread."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor that turns a time measured now into reference seconds."""
        return REFERENCE_PROBE_S / statistics.fmean(self.samples)
