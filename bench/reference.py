"""A fixed reference loop that measures how fast the machine runs right now.

The benchmark runs on shared machines whose speed drifts: for tens of
seconds at a time the same pure-Python loop can take up to twice as long,
in CPU time as well as wall time.  A run that falls in such a spell reads
slow however many passes it makes.  So the benchmark times this loop once
after every op, takes its median time in each pass as the machine's speed in
that pass, and scales the op times of the pass by ``REFERENCE_S`` over it.
End-to-end times then read as on a machine where the loop takes
``REFERENCE_S``, and a change to conitop moves them as much as it moves the
raw times.  The ``cli`` workload runs the loop in a child interpreter
instead (``run_in_child``, scaled to ``CHILD_REFERENCE_S``).

The loop uses only the standard library and never changes, so conitop's
code cannot move it.  It mixes the kinds of work conitop does: small-integer
arithmetic, exact elimination over ``Fraction`` and a dict keyed by tuples.
"""

from __future__ import annotations

import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# Median times of ``run_once`` and ``run_in_child`` on the machine the
# benchmark was written on (2-CPU Intel Xeon, Python 3.11.7); only scales,
# they need not match the machine the benchmark runs on.
REFERENCE_S = 0.0033
CHILD_REFERENCE_S = 0.053

_MATRIX = tuple(
    tuple((3 * i + 5 * j + i * j) % 7 - 3 + (4 if i == j else 0) for j in range(10))
    for i in range(10)
)
_KEYS = tuple((i % 31, (i * 7) % 29, (i * 13) % 23) for i in range(4000))


def _integers() -> int:
    total = 0
    for i in range(15000):
        total += i * i % 7
    return total


def _elimination() -> int:
    m = [[Fraction(v) for v in row] for row in _MATRIX]
    positive = 0
    while m:
        n = len(m)
        k = next((i for i in range(n) if m[i][i] != 0), None)
        if k is None:
            break
        a = m[k][k]
        positive += a > 0
        rest = [i for i in range(n) if i != k]
        m = [[m[i][j] - m[i][k] * m[k][j] / a for j in rest] for i in rest]
    return positive


def _table() -> int:
    table: dict = {}
    for key in _KEYS:
        table[key] = table.get(key, 0) + key[0] * key[1] - key[2]
    total = 0
    for key in _KEYS:
        total = (total + table[key] * 31) % 1000003
    return total


def run_once() -> float:
    """Run the loop once; returns its wall seconds."""
    t0 = perf_counter()
    _integers()
    _elimination()
    _table()
    return perf_counter() - t0


def run_in_child() -> float:
    """Run the loop once in a fresh interpreter; returns the wall seconds of
    the whole child process, start-up included.

    The ``cli`` workload's ops are child processes, whose start-up slows in
    other ways than a loop inside this process does.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, __file__], check=True)
    return perf_counter() - t0


if __name__ == "__main__":
    run_once()
