"""A fixed reference computation, timed in a fresh process like an op.

    python3 -I perfbench/reference.py

It uses only the standard library and none of the program, and prints the
seconds it took on time.perf_counter.  Its work is shaped like an op's: an
exact Fraction sum whose big-integer denominators grow, then tens of MiB
of small tuples and Fractions built and folded into a dict.  The host's
speed drifts by tens of percent for minutes at a time, and a fresh
process that allocates follows that drift more closely than a warm loop
does.  run.py times this around every op and scales the op's times by
it, so the drift cancels while a change to the program still moves the
op's side of the ratio.
"""

import time
from fractions import Fraction


def main():
    t0 = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 1300):
        total += Fraction((-1) ** k * (k * k + 3) ** 9, (2 * k + 1) ** 5 * (k + 2) ** 3)
    rows = [(k, k * k, Fraction(k, k % 7 + 1)) for k in range(100000)]
    counts = {}
    for k, square, fraction in rows:
        key = (k % 97, k % 89)
        counts[key] = counts.get(key, 0) + square + fraction.numerator
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main()
