"""Reference kernels: fixed numpy work shaped like each workload's hot path.

A shared host runs the same code up to tens of percent slower or faster
from one minute to the next.  Next to each stretch of measured work the
benchmark times a fixed kernel that does the same kind of work as the
workload's dominant layer, written here in plain numpy/json and never
calling the program.  It runs in an interpreter of its own
(:class:`Calibrator`, ``python -m perfbench.reference WORKLOAD``), so
the program's allocations cannot change what the kernel costs:

* ``sweep-cold``: splitmix64-style mixing and a modulo over a large
  uint64 grid, the shape of per-user OLH hashing;
* ``chunked-paper``: uniform float matrices of 16384 users by 102
  items, thresholded and summed per item, the shape of OUE perturb;
* ``serve-mixed``: JSON-parse and base64-decode one pre-encoded batch,
  group its seeds, and mix a 64 x 4096 seed-by-item grid, the shape of
  the server's ingest path.

Each measured time is divided by the kernel's speed factor (its time
over :data:`REFERENCE_S`), so reported figures are in reference
seconds.  A change to the program moves them as it moves the raw
figures; a change of host speed slows the kernel the way it slows the
workload, and cancels.  A generic kernel (sorting, Python loops) was
tried first and tracked the workloads poorly.
"""

from __future__ import annotations

import base64
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Callable, Sequence

import numpy as np

#: Kernel runs per speed sample; the median is used.
REPS = 3

_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


# Kernels work in slices of a few MB, so they never raise the process's
# peak RSS above what the workload itself reaches.
def hashing_kernel() -> None:
    for start in range(0, 4_000_000, 1_000_000):
        items = np.arange(start, start + 1_000_000, dtype=np.uint64)
        (_mix(_mix(items) ^ np.uint64(12345)) % np.uint64(7) == np.uint64(3)).sum()


def oue_kernel() -> None:
    gen = np.random.default_rng(0)
    for _ in range(6):
        (gen.random((16_384, 102)) < 0.25).sum(axis=0)


#: Pre-encoded batches the ``serve-mixed`` kernel parses per run.
INGEST_BATCHES = 5


def ingest_kernel(fragments: list) -> None:
    for fragment in fragments[:INGEST_BATCHES]:
        doc = json.loads(fragment)
        seeds = np.frombuffer(base64.b64decode(doc["seeds"]["data"]), dtype=np.uint64)
        values = np.frombuffer(base64.b64decode(doc["values"]["data"]), dtype=np.int64)
        unique, inverse = np.unique(seeds, return_inverse=True)
        np.bincount(inverse * 8 + (values & 7))
        grid = _mix(_mix(np.arange(4096, dtype=np.uint64))[None, :] ^ unique[:64, None])
        (grid % np.uint64(7)).sum()


#: Kernel seconds on an unloaded 2-core x86_64 host (Python 3.11,
#: numpy 2.4).  Only a scale: the same for every run of a workload.
REFERENCE_S = {"sweep-cold": 0.11, "chunked-paper": 0.075, "serve-mixed": 0.035}


class Calibrator:
    """``workload``'s reference kernel, timed in an interpreter of its own.

    The kernel's temporaries are several MB, so in the benchmark process
    their cost would depend on the allocator state the program left
    behind; a separate process, which never imports the program, keeps
    the speed factor the host's alone.  ``serve-mixed`` parses the
    workload's own pre-encoded batches, passed as ``fragments`` (JSON
    bytes, so free of newlines).  Use as a context manager; leaving it
    stops the process and waits for it.
    """

    def __init__(self, workload: str, fragments: Sequence[bytes] = ()) -> None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.reference", workload],
            cwd=root, env=dict(os.environ, PYTHONPATH=root),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            sent = list(fragments[:INGEST_BATCHES])
            self.proc.stdin.write(b"".join([b"%d\n" % len(sent), *(f + b"\n" for f in sent)]))
            self.proc.stdin.flush()
            if self.proc.stdout.readline() != b"ready\n":
                raise RuntimeError("the reference kernel failed to start")
        except BaseException:
            self.close()
            raise

    def speed(self) -> float:
        """How many times slower than the reference the host runs the
        workload's kind of work right now (median of :data:`REPS` runs)."""
        self.proc.stdin.write(b"\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self) -> "Calibrator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def main(argv: list[str]) -> int:
    """Read the fragments, then answer each further line on stdin with
    one speed factor for workload ``argv[0]``."""
    workload = argv[0]
    stdin = sys.stdin.buffer
    fragments = [stdin.readline().rstrip(b"\n") for _ in range(int(stdin.readline()))]
    kernel: Callable[[], None] = {
        "sweep-cold": hashing_kernel,
        "chunked-paper": oue_kernel,
        "serve-mixed": lambda: ingest_kernel(fragments),
    }[workload]
    kernel()  # the first run page-faults the kernel's memory in
    print("ready", flush=True)
    for _request in stdin:
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        print(statistics.median(times) / REFERENCE_S[workload], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
