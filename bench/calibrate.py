"""A fixed unit of pure-Python work that measures how fast the machine runs
right now, independent of ptrac.

On a shared virtual machine the speed of the same code drifts by a third
and more within seconds, as other tenants come and go, and that drift,
not the program, would decide most of the run-to-run spread of a wall
time. spawner.py times this unit before and after each operation run.py
measures, on the CPU the operation runs on, and run.py scales the
operation's time by ``REFERENCE_S`` / (the mean of those two times). A
change to ptrac cannot move the unit: it imports nothing from ptrac.

The unit does the kind of work ptrac does on a lexicon: slices strings
against a symbol table, builds tuples, substitutes one position at a time
and counts the results in a dict, then sorts them. Its data are fixed
(a private seeded generator), so every run of every benchmark times the
same work.
"""

from __future__ import annotations

import random
import time

UNITS = 2  # units per calibration, about 0.3 s on the reference machine
# Typical time of one calibration (UNITS units) on the reference machine
# (2-vCPU Intel Xeon VM, Python 3.11.7); scaled times are "seconds at that
# speed".
REFERENCE_S = 0.32

_rng = random.Random(20131)
_SYMBOLS = sorted("abcdefghijklmnopqrstuvwxyzABCDEFGHIJ")
_WORDS = ["".join(_rng.choice(_SYMBOLS) for _ in range(_rng.randint(3, 12)))
          for _ in range(4000)]


def unit():
    counts = {}
    for word in _WORDS:
        out = []
        i = 0
        while i < len(word):
            for sym in _SYMBOLS:
                if word[i:i + 1] == sym:
                    out.append(sym)
                    i += 1
                    break
        seq = tuple(out)
        for j in range(len(seq)):
            key = seq[:j] + ("_",) + seq[j + 1:]
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())[:10]


def calibrate():
    """Seconds taken by UNITS units of the fixed work."""
    start = time.perf_counter()
    for _ in range(UNITS):
        unit()
    return time.perf_counter() - start
