"""The host-speed reference: a fixed computation timed between operations.

The host this benchmark runs on changes speed by up to 1.8x, from one
second to the next and over minutes, and a process cannot see it: its CPU
time stays equal to its wall time and no steal time shows.  So the timed
pass runs this reference right before and right after every operation,
and reports each operation's wall time scaled by ``NOMINAL_S / t``, where
``t`` is the trimmed mean of the reference samples next to it: seconds at
the host speed at which the reference takes ``NOMINAL_S``.  Over 12 passes
of one sumrules input set, the quartile spread of the pass time was 10.5%
as measured and 1.7% as scaled.

Some operations slow less than the reference when the host is slow: over
15 passes, the time of the boolean completion at n=4 moved with about the
0.7th power of the reference's.  Their scaled times still move with the
host's speed, by less than their wall times do.

The reference is the benchmark's own exact arithmetic from ``gen.py`` (sums
of Fractions, bit masks, lists, string building), much like the library's
own work, and it never imports ``coevents``: no change to the library can
speed it up or slow it down, so a change's effect on an operation shows in
full in the scaled time.  It runs with the garbage collector off, so the
size of the library's heap does not reach it either.
"""

from __future__ import annotations

import bisect
import gc
import math
import random
import statistics
from time import perf_counter

import gen

# The reference's time on a calm 2-CPU Xeon VM; it only sets the scale.
NOMINAL_S = 0.002
# Untimed runs before the first sample.
WARMUP = 20
# The samples that set an operation's host speed are those that start
# within WINDOW_S plus WINDOW_SHARE of its time before or after it: for a
# short operation, the two next to it, since the host's speed can change
# from one second to the next; for a long one, which sees many such changes,
# those of the seconds around it.
WINDOW_S = 0.01
WINDOW_SHARE = 0.5
# The share of those samples dropped at each end before taking their mean.
TRIM = 0.1
# Before and after an operation, the reference runs for at least this share
# of the operation's time (before it, as the same slot took in the previous
# pass), so a long operation has many samples on both sides.
SHARE = 0.1

# setup_s is scaled the same way, by fresh interpreters that import these
# standard modules, none of which coevents imports, right before and after
# each interpreter that imports coevents: an import waits on memory and
# files more than the reference above does, and moves with the host as this
# one does.  Over two minutes, eight groups of five coevents imports had
# medians from 37 to 65 ms; divided by the mean of the two reference imports
# next to each, from 0.55 to 0.75.
IMPORTS = "email.mime.multipart, http.client, xml.dom.minidom, logging.handlers, unittest, difflib, configparser, csv"
# The time to import IMPORTS on a calm 2-CPU Xeon VM; it only sets the scale.
IMPORTS_NOMINAL_S = 0.08

_N = 7
_D = gen.decoherence(random.Random("reference"), _N)


def reference() -> None:
    mu = gen.decoherence_values(_D)
    gen.scheme_masks(mu, _N)
    ",".join(gen.event_key(m, _N) for m in range(1 << _N))


class HostClock:
    """Timed reference samples, and wall times scaled by them."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample, ascending
        self.took: list[float] = []
        for _ in range(WARMUP):
            reference()

    def sample(self, around: float = 0.0) -> None:
        """One sample, or enough to last ``SHARE`` of ``around`` seconds."""
        count = 1
        if around and self.took:
            count = max(1, math.ceil(SHARE * around / self.took[-1]))
        gc.disable()
        try:
            for _ in range(count):
                t0 = perf_counter()
                reference()
                self.at.append(t0)
                self.took.append(perf_counter() - t0)
        finally:
            gc.enable()

    def scale(self, start: float, seconds: float) -> float:
        """``seconds`` of wall time from ``start``, at the nominal host speed."""
        margin = WINDOW_S + WINDOW_SHARE * seconds
        lo = bisect.bisect_left(self.at, start - margin)
        hi = bisect.bisect_right(self.at, start + seconds + margin)
        took = sorted(self.took[lo:hi])
        cut = int(TRIM * len(took))
        return seconds * NOMINAL_S / statistics.fmean(took[cut:len(took) - cut])
