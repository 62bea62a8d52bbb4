"""A fixed reference kernel that measures how fast this host runs right now.

On a shared host the same solve can take 20-40% longer for minutes at a
time, and both wall time and CPU time show it.  The kernel does the
barrier's kind of work (small dense products, a Hessian-like assembly, a
linear solve, long-double exp/log and a Python loop) without calling
soncbound, so a change to the package cannot change its time.  The
benchmark runs it between operations, in proportion to their time, and
scales every reported time by NOMINAL_S / (mean kernel time in the run):
times read as on a host where the kernel takes NOMINAL_S.
"""

from __future__ import annotations

import time

NOMINAL_S = 2.5e-3  # the kernel's time on the 2-core Xeon host the benchmark was made on
EVERY_S = 0.05  # one kernel call per this much operation time


class Reference:
    def __init__(self, np):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((12, 12))
        self.np = np
        self.matrix = a @ a.T + 12.0 * np.eye(12)
        self.vector = rng.standard_normal(12)
        self.samples: list[float] = []

    def kernel(self) -> float:
        """Run the kernel once; returns its seconds."""
        np, a, v = self.np, self.matrix, self.vector
        start = time.perf_counter()
        x = v.copy()
        for _ in range(60):
            g = a @ x - v
            h = (a * (1.0 / (1.0 + x * x))[:, None]).T @ a
            d = np.linalg.solve(h + np.eye(12), -g)
            s = float(np.exp(np.sum(np.log(np.abs(x.astype(np.longdouble)) + 1))))
            x = x + 0.01 * d / (1.0 + s * 1e-9)
            for j in range(12):
                x[j] = max(-5.0, min(5.0, x[j]))
        return time.perf_counter() - start

    def follow(self, seconds: float) -> None:
        """Sample the kernel after an operation that took `seconds`."""
        for _ in range(max(1, round(seconds / EVERY_S))):
            self.samples.append(self.kernel())

    def scale(self) -> float:
        """Factor that turns a time measured in this run into nominal time."""
        return NOMINAL_S * len(self.samples) / sum(self.samples)
