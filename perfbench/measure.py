"""Samples, percentiles and the run stamp."""

from __future__ import annotations

import hashlib
import math
import os
import platform as host
import resource
import subprocess
from dataclasses import dataclass


@dataclass
class Sample:
    """One operation of a closed loop or probe."""

    kind: str  # "read" or "write"
    key: object  # the read's shape; None for writes
    latency_s: float  # math.inf when the operation failed
    at: float  # perf_counter() when it completed
    epoch: int = 0  # number of writes applied before a read
    after_write: bool = False  # first read after a write batch
    result: object = None  # the read's result
    waited_s: float = 0.0  # queue wait reported by the query server
    error: "str | None" = None

    @property
    def ok(self) -> bool:
        return self.error is None


def percentile(values: "list[float]", fraction: float) -> "tuple[float, int]":
    """Nearest-rank percentile of ``values`` and the number of samples
    beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def latency_ms(samples: "list[Sample]", fraction: float, ceiling_s: float) -> "tuple[float, int, int]":
    """Percentile latency in ms, samples beyond it, and sample count.

    A failed operation counts as slower than every successful one: it
    enters as ``ceiling_s`` (the whole timed loop), never dropped."""
    values = [min(sample.latency_s, ceiling_s) for sample in samples]
    if not values:
        raise ValueError("no samples")
    value, beyond = percentile(values, fraction)
    return value * 1000.0, beyond, len(values)


def best_ms(samples: "list[Sample]") -> "tuple[float, int]":
    """Fastest latency in ms among ``samples``, and their count.

    On a shared host the same operation runs up to 1.7 times slower for
    seconds at a time, because of work the benchmark does not control.
    The fastest of many runs of one operation is the time it takes when
    nothing interferes, and it repeats from run to run where medians and
    tails follow the host (the reasoning of Python's ``timeit``)."""
    if not samples:
        raise ValueError("no samples")
    return min(sample.latency_s for sample in samples) * 1000.0, len(samples)


def best_per_shape_ms(samples: "list[Sample]") -> "tuple[float, int]":
    """Geometric mean over the shapes (keys) in ``samples`` of each
    shape's fastest latency in ms, and the fewest samples of one shape.

    The geometric mean weighs every shape alike, so halving the time of a
    10-ms shape moves it as much as halving that of a 1-s shape."""
    by_key: "dict[object, list[Sample]]" = {}
    for sample in samples:
        by_key.setdefault(sample.key, []).append(sample)
    if not by_key:
        raise ValueError("no samples")
    logs = [math.log(best_ms(group)[0]) for group in by_key.values()]
    return math.exp(sum(logs) / len(logs)), min(map(len, by_key.values()))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def source_digest(root: str) -> str:
    """SHA-256 over the program's sources (``src/``), in path order."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def commit(root: str) -> "str | None":
    """The git commit of ``root``, when it is a git checkout."""
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def stamp(root: str, workload: str, seed: int, scale: float, topology: str) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "micro_scale": scale,
        "topology": topology,
        "nproc": os.cpu_count(),
        "python": host.python_version(),
        "commit": commit(root),
        "source_sha256": source_digest(root),
    }
