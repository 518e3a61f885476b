"""A fixed pure-Python loop that measures how fast the host runs right now.

The benchmark runs on shared virtual machines whose other tenants slow
every program on them, by up to 2x, for stretches from tens of
milliseconds to minutes.  This loop runs no code of the package, so its
time changes only with the host.  The worker runs it between requests;
a request's host-adjusted time is its measured time scaled by
``REFERENCE_S / reference time around it``, which is what the request
would have taken on a host that runs the loop in ``REFERENCE_S``.

The loop adds fractions with Python ints and Euclid's gcd and formats
them, the same kind of interpreter work (int arithmetic, small objects,
tuples, strings) as the package's exact arithmetic.  It imports nothing,
so the set-up probe can run it before the package is imported.
"""

from time import perf_counter

# Time of reference() on an unloaded vCPU of the 2-vCPU Intel Xeon virtual
# machine the benchmark was written on.  Only a scale: every host-adjusted
# time is comparable with every other, on any host.
REFERENCE_S = 0.00014


def _loop() -> int:
    num, den = 0, 1
    out = []
    for i in range(1, 60):
        p, q = i * 7919 % 1000 + 1, i % 97 + 1
        num, den = num * q + p * den, den * q
        a, b = num, den
        while b:
            a, b = b, a % b
        num //= a
        den //= a
        out.append((num % 1_000_003, str(den)[:3]))
        if num > 10**12 * den:
            num -= 10**12 * den
    return len(out)


def reference() -> float:
    """Seconds of the loop: the best of three, so one preemption does not count."""
    best = float("inf")
    for _ in range(3):
        start = perf_counter()
        _loop()
        best = min(best, perf_counter() - start)
    return best
