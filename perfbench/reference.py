"""A fixed reference loop that tracks how fast the host is running.

The host this benchmark was built on (2 vCPUs of a shared machine) runs the
same work up to 1.75x slower in some minutes than in others, whatever the
benchmark does: other tenants share its cores (see README.md). No statistic
of a single run removes that, so the run also times a fixed pure-Python loop
that does not touch afmass, once after every job and a few times before
every set-up probe. The time metrics are scaled by NOMINAL_S over the
loop's median in the same phase of the run: they read as seconds on a host
where the loop takes NOMINAL_S. The raw figures go to the result file.
"""

import statistics
import time

# median time of the loop in the quiet minutes of the baseline host
NOMINAL_S = 0.002


def _loop():
    s = 0
    for i in range(30000):
        s += i * i
    return s


class Reference:
    """Times of the reference loop."""

    def __init__(self):
        self.times = []

    def sample(self, count=1):
        for _ in range(count):
            start = time.perf_counter()
            _loop()
            self.times.append(time.perf_counter() - start)

    def scale(self):
        """Factor that turns a time measured alongside these samples into
        seconds at the nominal host speed."""
        return NOMINAL_S / statistics.median(self.times)

    def summary(self):
        return {"samples": len(self.times), "min_s": min(self.times),
                "median_s": statistics.median(self.times),
                "scale": self.scale()}
