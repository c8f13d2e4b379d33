"""Reference seconds: wall time scaled by the machine's speed at the time.

On a machine shared with others the same work takes up to about twice as
long in some phases as in others, and a phase can last longer than a whole
run, so medians of wall time move with the phases.  ``Clock.measure``
therefore runs two fixed reference kernels of a few tenths of a millisecond
just before and just after the measured call and, from a timer signal,
every ``SAMPLE_PERIOD`` seconds while it runs.  It returns the call's wall
time, less the time the samples took, scaled by the chosen kernel's nominal
time over its mean measured time.

Each kernel does one kind of the program's work, so it slows down in step
with the code that does that kind: the tape kernel drives small numpy calls
from Python and records them on a tape of closures, as training and
inference do; the text kernel splits words and counts their casings, as
corpus preparation does.  A change to the program moves the call's time and
not the kernel's, so it shows in full.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# The kernels' wall times in a fast phase of the 2-core machine on which the
# README's reference figures were taken.  Constants, so that figures from
# any run compare; they only set the scale.
NOMINAL_SECONDS = {"tape": 0.00026, "text": 0.00012}
SAMPLE_PERIOD = 0.01  # the samples cost about 4% of the measured call's wall time

_RNG = np.random.default_rng(0)
_W = _RNG.uniform(-0.2, 0.2, (96, 24))
_B = np.zeros(96)
_XS = _RNG.uniform(-1.0, 1.0, (12, 96))
_TEXT = " ".join("The old Cup from Boston was heavy on Monday at noon GMT .".split() * 12)


def tape_kernel() -> None:
    """Twelve LSTM-like steps recorded on a small tape of closures, then
    walked back."""
    h, c = np.zeros(24), np.zeros(24)
    tape = []
    for x in _XS:
        gates = x + _W @ h + _B
        i = 1.0 / (1.0 + np.exp(-gates[:24]))
        f = 1.0 / (1.0 + np.exp(-gates[24:48]))
        o = 1.0 / (1.0 + np.exp(-gates[72:]))
        c = f * c + i * np.tanh(gates[48:72])
        h = o * np.tanh(c)
        tape.append(lambda grad, i=i, f=f: grad * i * f)
    total = 0.0
    for backward in reversed(tape):
        total += float(backward(h).sum())


def text_kernel() -> None:
    """Casing counts over a few hundred words."""
    counts: dict[str, dict[str, int]] = {}
    for _ in range(3):
        for word in _TEXT.split():
            by_surface = counts.setdefault(word.lower(), {})
            by_surface[word] = by_surface.get(word, 0) + 1


def kernel_seconds() -> dict[str, float]:
    """Wall time of one run of each kernel."""
    out = {}
    for name, kernel in (("tape", tape_kernel), ("text", text_kernel)):
        start = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - start
    return out


class Clock:
    """Measures calls in reference seconds; calls may nest.  Uses SIGALRM,
    so use it from the main thread only."""

    def __init__(self):
        self.samples: list[dict[str, float]] = []
        self.spent = 0.0  # wall seconds spent in the kernel so far
        self.depth = 0
        self._sampling = False

    def _sample(self, signum=None, frame=None) -> None:
        if self._sampling:  # the timer fired inside a sample
            return
        self._sampling = True
        began = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.spent += time.perf_counter() - began
        self._sampling = False

    def measure(self, fn, kernel: str = "tape"):
        """(fn(), its wall time in reference seconds of the named kernel)."""
        if self.depth == 0:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        self.depth += 1
        self._sample()
        first, spent = len(self.samples) - 1, self.spent
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            wall = time.perf_counter() - start
            spent = self.spent - spent
            self._sample()
            self.depth -= 1
            if self.depth == 0:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, self._previous)
        window = [sample[kernel] for sample in self.samples[first:]]
        return result, (wall - spent) * NOMINAL_SECONDS[kernel] * len(window) / sum(window)
