"""Accounting helpers: per-unit timing, failure fractions, digests,
metric-name checks and the provenance stamp."""

from __future__ import annotations

import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Metric names a report may carry: a letter or digit, then up to 63
#: letters, digits, `_`, `.` or `-`.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: Simulator switches recorded in every report, with their defaults.
SWITCH_DEFAULTS = {"REPRO_SIM_SCHEDULER": "wheel",
                   "REPRO_DMA_MACRO_OPS": "1",
                   "REPRO_VECTOR": "1"}


def check_metric_names(metrics: Dict[str, dict]) -> List[str]:
    """Names that break the charset or length rule of NAME_RE."""
    return [name for name in metrics if not NAME_RE.match(name)]


@dataclass
class Tally:
    """Per-unit host-time samples and check counts over a run.

    Each unit's simulated work is deterministic, so the work of one
    repetition is the sum over units of one sample's work, and its host
    time is assembled from each unit's *median* sample, which keeps one
    slow sample (a noisy neighbour, a collector pause) from moving it.
    """

    seconds: Dict[str, List[float]] = field(default_factory=dict)
    work: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)

    def add(self, unit: str, seconds: float, work: int, attempted: int,
            failed: int, problems: Optional[List[str]] = None) -> None:
        self.seconds.setdefault(unit, []).append(seconds)
        self.work[unit] = work
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems or ())

    def add_error(self, unit: str, message: str) -> None:
        """A unit that raised: one failed attempt, no timing sample."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{unit}: raised {message}")

    def wall_s(self) -> float:
        """Host seconds of one repetition (sum of per-unit medians)."""
        return sum(statistics.median(v) for v in self.seconds.values())

    def total_work(self) -> int:
        return sum(self.work.values())

    def host_us_per_unit(self) -> float:
        work = self.total_work()
        return self.wall_s() * 1e6 / work if work else float("inf")

    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def pass_frac(self) -> float:
        return 1.0 - self.failed_frac()

    def samples(self) -> int:
        return min((len(v) for v in self.seconds.values()), default=0)


def digest(sim: Dict[str, dict]) -> str:
    """Canonical hash of a workload's simulated outputs."""
    blob = json.dumps(sim, sort_keys=True, separators=(",", ":"),
                      default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def tree_digest(root: str) -> str:
    """Content hash of every ``.py`` file under ``root`` (the code that
    ran, for checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def git_sha(root: str) -> Optional[str]:
    """HEAD of ``root`` when it is a git checkout itself (an enclosing
    repository's HEAD would describe other code)."""
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(root: str, src: str, seed: int) -> dict:
    """Everything needed to say how a report's numbers were produced."""
    import repro.hw.dma as dma
    import repro.sim.queues as queues
    from repro import vector

    effective = {"REPRO_SIM_SCHEDULER": str(queues.DEFAULT_SCHEDULER),
                 "REPRO_DMA_MACRO_OPS": "1" if dma.DMA_MACRO_OPS else "0",
                 "REPRO_VECTOR": "1" if vector.ENABLED else "0"}
    np = vector.numpy()
    return {
        "seed": seed,
        "git_sha": git_sha(root),
        "src_sha256": tree_digest(os.path.join(src, "repro")),
        "python": sys.version.split()[0],
        "numpy": np.__version__ if np is not None else None,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "switches": {k: os.environ.get(k) for k in SWITCH_DEFAULTS},
        "effective": effective,
        "non_default": non_default(effective),
    }


def non_default(effective: Dict[str, str]) -> List[str]:
    """The switches whose effective value differs from the default."""
    return sorted(k for k, v in effective.items()
                  if v != SWITCH_DEFAULTS[k])
