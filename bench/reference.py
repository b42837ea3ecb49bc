"""Host speed, read from a fixed reference loop between operations.

The host this benchmark runs on is shared, and its speed drifts by 15-50%
over a minute, on both cores at once.  A run of tens of seconds cannot
average out a drift that slow, so the gated timings are scaled by the
host's speed, read just before and just after each operation:

    scaled = wall * NOMINAL_S / mean(reference before, reference after)

The reference is pure-Python work of the benchmark's own (integer
arithmetic, tuple keys, dict updates, a sort), the same kind of work the
package does, so it slows down and speeds up with it.  Nothing in the
package changes it, so a change to the package moves the scaled times as
much as the wall times.  A scaled time reads in seconds on a host on
which one reference loop takes NOMINAL_S.
"""

from time import perf_counter

NOMINAL_S = 0.035   # the reference loop on the baseline host, 2.1 GHz
LOOP = 60_000


def reference_seconds():
    """Wall time of one reference loop; its result is fixed."""
    start = perf_counter()
    seen = {}
    x = 12345
    for i in range(LOOP):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = (x >> 23, i & 15)
        seen[key] = seen.get(key, 0) + 1
    sorted(seen)
    return perf_counter() - start


class HostSpeed:
    """Reference samples between operations, and the factor they give."""

    def __init__(self):
        self.last = reference_seconds()
        self.samples = [self.last]

    def factor(self):
        """Scale for the operation that ended just now: NOMINAL_S over the
        mean of the reference before it and the one taken here."""
        before, self.last = self.last, reference_seconds()
        self.samples.append(self.last)
        return NOMINAL_S / ((before + self.last) / 2)
