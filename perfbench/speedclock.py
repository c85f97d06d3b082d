"""A clock in reference seconds, for timing on a machine of varying speed.

On a shared host the speed of one core can drift by a factor of two within a
minute: identical pure-Python work takes 0.5 s now and 0.9 s a little later,
in CPU time as in wall time.  Timings taken minutes apart are then not
comparable, however long each run is.

:class:`SpeedClock` interleaves a fixed calibration chunk with the measured
work, in the same thread: a ``SIGALRM`` every ``interval`` seconds runs one
chunk and times it.  The chunk is pure Python in the style of ``etog``
(tuples, dicts, a small frozen dataclass, object calls) and does not touch
``etog``, so a change to the library cannot change the calibration.  Between
two ticks the clock advances by the elapsed time times the speed, relative to
:data:`REFERENCE_CHUNK_S`, averaged over the running median of the last three
chunk speeds at either end of the interval.
Time spent in the handler is left out.  A reading is therefore the time the
work would take on a machine that runs one chunk in exactly
``REFERENCE_CHUNK_S`` seconds.

It suits pure-Python work like the chunk's, not process start-up: set-up
time, which goes mostly to starting the interpreter and importing, did not
follow the chunk's speed and is timed raw.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from dataclasses import dataclass

# the time of one chunk on the reference machine; a fixed number, roughly a
# chunk's time on an idle 2-vCPU Xeon host, so that readings stay close to seconds
REFERENCE_CHUNK_S = 0.003
SMOOTHING = 3  # chunk speeds in the running median


class _Node:
    __slots__ = ("value",)

    def __init__(self, value: int) -> None:
        self.value = value

    def step(self, x: int) -> "_Node":
        return _Node((self.value * 31 + x) % 1009)


@dataclass(frozen=True)
class _Word:
    letters: tuple

    def __mul__(self, other: "_Word") -> "_Word":
        letters = list(self.letters)
        for letter in other.letters:
            if letters and letters[-1] == -letter:
                letters.pop()
            else:
                letters.append(letter)
        return _Word(tuple(letters))


_rng = random.Random(1)
_WORDS = [
    _Word(tuple(_rng.choice((1, -1, 2, -2)) for _ in range(_rng.randint(1, 8))))
    for _ in range(3000)
]
_INDEX = {word.letters: i for i, word in enumerate(_WORDS)}


def chunk() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    counts: dict = {}
    acc: list = []
    node = _Node(1)
    for i in range(1200):
        key = (i % 17, i % 5, "ab"[i & 1])
        counts[key] = counts.get(key, 0) + 1
        node = node.step(i)
        acc.append(key[0] + node.value)
        if len(acc) > 32:
            acc = acc[16:]
    total = sum(acc) + len(counts)
    word = _Word(())
    for j in range(350):
        x = _WORDS[j * 7919 % len(_WORDS)]
        word = x * word if j & 1 else word * x
        if len(word.letters) > 12:
            word = _Word(word.letters[:4])
        total += _INDEX[x.letters] + hash(word) % 7
    return total


def chunk_speed() -> float:
    """Speed of this core now: reference chunk time / measured chunk time."""
    begin = time.perf_counter()
    chunk()
    return REFERENCE_CHUNK_S / (time.perf_counter() - begin)


class SpeedClock:
    """Reference-second clock, calibrated by a chunk on every ``SIGALRM``.

    Use from the main thread only; :meth:`stop` restores the previous handler.
    """

    def __init__(self, interval: float = 0.1) -> None:
        self.interval = interval
        self.speeds: list[float] = []
        # (reference seconds up to `since`, perf_counter at the end of the
        # last tick, speed since then); one attribute, so a tick replaces it
        # atomically between two bytecodes of the reader
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def start(self) -> None:
        for _ in range(SMOOTHING):
            self.speeds.append(chunk_speed())
        self._state = (0.0, time.perf_counter(), statistics.median(self.speeds))
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        elapsed, since, before = self._state
        self.speeds.append(chunk_speed())
        # the interval just ended is bracketed by the last samples
        after = statistics.median(self.speeds[-SMOOTHING:])
        elapsed += (begin - since) * (before + after) / 2
        self._state = (elapsed, time.perf_counter(), after)

    def now(self) -> float:
        """Reference seconds of work since :meth:`start`."""
        while True:
            state = self._state
            now = time.perf_counter()
            if state is self._state:  # no tick in between
                break
        elapsed, since, speed = state
        return elapsed + (now - since) * speed
