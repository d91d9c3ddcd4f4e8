"""Times scaled to a reference machine speed, measured next to each timing.

The benchmark runs on a few cores of a shared host whose speed changes
from second to second: a fixed pure-Python loop switches between a fast
state and one 1.25-1.7x slower, and for a minute or more the slow state can
dominate.  No statistic of the raw times of one run recovers from such a
stretch (see README.md, Steadiness).  So every timed piece of work is
followed by a run of a fixed reference loop that does not touch tbtridiag:
dense products of small matrices over Fraction and over the integers mod a
prime, the same kind of work as the program's hot path.  The work's time is
scaled by how much longer the reference loop took, around it, than
``REF_UNIT_S``; a slow stretch slows both alike, and the ratio stays.

A scaled time reads in seconds on a machine where one unit of the reference
loop takes ``REF_UNIT_S``, about the time on the 2-core x86-64 virtual
machine the benchmark was written on.  A change to tbtridiag moves the
scaled time as it moves the raw time; the reference loop is fixed here.
"""

import time
from fractions import Fraction

REF_UNIT_S = 0.0023          # one unit of the reference loop at the reference speed
SHARE = 0.5                  # reference-loop time per second of timed work
MIN_UNITS = 2                # reference units after even the shortest piece of work
MIN_PIECE_S = 0.1            # split() ends no piece of work shorter than this
WARM_UNITS = 20              # reference units before the first timing

_N, _M, _P = 6, 14, 1000003
_F = [[Fraction(i * 7 + j + 1, j + 2) for j in range(_N)] for i in range(_N)]
_Z = [[(i * 31 + j * 17 + 5) % _P for j in range(_M)] for i in range(_M)]


def unit():
    """One unit of the reference loop: F·F·F over Q and Z·Z twice mod p."""
    c = [[sum(_F[i][k] * _F[k][j] for k in range(_N)) for j in range(_N)] for i in range(_N)]
    c = [[sum(c[i][k] * _F[k][j] for k in range(_N)) for j in range(_N)] for i in range(_N)]
    for _ in range(2):
        c = [[sum(_Z[i][k] * _Z[k][j] for k in range(_M)) % _P for j in range(_M)]
             for i in range(_M)]
    return c


def _reference(units):
    """(seconds, units) of the reference loop run units times."""
    t0 = time.perf_counter()
    for _ in range(units):
        unit()
    return time.perf_counter() - t0, units


class Gauge:
    """Times work and the reference loop in turn.

    ``time(fn, *args)`` returns fn's result, its raw seconds and its scaled
    seconds.  Each piece of work is scaled with the reference runs just
    before and just after it, pooled, so the scale reflects the machine's
    speed while the piece ran.  fn may call ``split()`` to end one piece and
    start the next, so that a long job is scaled piece by piece.
    """

    def __init__(self):
        self._last = _reference(WARM_UNITS)
        self._start = None
        self._raw = self._scaled = 0.0
        self.reference_s = 0.0           # seconds spent in the reference loop

    def time(self, fn, *args):
        self._raw = self._scaled = 0.0
        self._start = time.perf_counter()
        result = fn(*args)
        self._close_piece()
        return result, self._raw, self._scaled

    def split(self):
        """End the current piece of work here if it has run MIN_PIECE_S."""
        if time.perf_counter() - self._start >= MIN_PIECE_S:
            self._close_piece()

    def _close_piece(self):
        raw = time.perf_counter() - self._start
        before = self._last
        units = max(MIN_UNITS, round(SHARE * raw * before[1] / before[0]))
        self._last = after = _reference(units)
        self.reference_s += after[0]
        unit_s = (before[0] + after[0]) / (before[1] + after[1])
        self._raw += raw
        self._scaled += raw * REF_UNIT_S / unit_s
        self._start = time.perf_counter()
