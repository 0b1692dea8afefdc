"""Host speed gauge: a fixed pure-Python loop, timed between the benchmark's processes.

The shared 2-vCPU hosts this benchmark runs on change speed by up to ~1.9x
for minutes at a time, so two runs of the same code minutes apart can differ
by more than any bound worth setting. The gauge samples that speed while the
run goes on: it times a dict lookup loop over a table larger than the caches,
like the program's per-record work, before every set-up and every subcommand.
Every time metric is then scaled by REFERENCE_S / (lower quartile of the
run's samples): it is reported in seconds on a host whose gauge reads
REFERENCE_S. The gauge is benchmark code, so a change to the program under
test cannot move it.

The loop runs in a child process of its own that waits on its stdin between
requests. Kept in the benchmark's process, its table would count towards the
peak RSS of every subcommand: a process started by exec reports at least the
resident size of the process that started it.

    python3 perfbench/speed.py   # then write a sample count per line to stdin
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

# Lower quartile of the gauge on a 2-vCPU Intel Xeon (Sapphire Rapids) VM,
# Python 3.11, while that host ran at its faster speed.
REFERENCE_S = 0.0125
TABLE_SIZE = 200_000
LOOKUPS = 20_000


class Gauge:
    """Parent side: asks the gauge process for samples and keeps them."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def sample(self, n: int) -> None:
        self.proc.stdin.write(f"{n}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"speed gauge exited with code {self.proc.wait()}")
        self.samples.extend(float(x) for x in line.split())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def lower_quartile(self) -> float:
        return statistics.quantiles(self.samples, n=4)[0]

    def factor(self) -> float:
        """Multiplier from this run's seconds to seconds at the reference speed."""
        return REFERENCE_S / self.lower_quartile()


def serve() -> None:
    """Child side: for each count read from stdin, time that many loops."""
    table = {i: float(i) for i in range(TABLE_SIZE)}
    keys = list(range(TABLE_SIZE))
    random.Random(1).shuffle(keys)
    keys = keys[:LOOKUPS]
    for request in sys.stdin:
        times = []
        for _ in range(int(request)):
            start = time.perf_counter()
            total = 0.0
            for k in keys:
                total += table[k] * 0.5
            times.append(time.perf_counter() - start)
        print(" ".join(repr(t) for t in times), flush=True)


if __name__ == "__main__":
    serve()
