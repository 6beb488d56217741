"""Shared plumbing: paths, timed child processes, statistics, host stamp."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: The checkout root (the benchmark lives in ``<root>/perfbench``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout; emptied at the start of each run.
WORK = os.path.join(ROOT, ".perfbench", "work")
#: Each run's full figures, kept across runs.
REPORTS = os.path.join(ROOT, ".perfbench", "reports")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def bounded_by_cores(wanted: int) -> int:
    """*wanted* capped at the core count.

    The load generator never runs more threads or connections than the
    host has cores, so on a smaller host it runs fewer (the result
    records how many) instead of measuring its own contention.
    """
    return max(1, min(wanted, nproc()))


def repro_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # the index self-check is a debugging aid that slows every index update
    env.pop("REPRO_INDEX_VERIFY", None)
    return env


@dataclass
class ProcResult:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: bytes


def run_timed(argv: Sequence[str], stdout_path: str,
              timeout: float = 150.0) -> ProcResult:
    """Run *argv* to completion; wall time and peak RSS of the child.

    Standard output goes to *stdout_path* (large documents would fill a
    pipe) and is read back after the child exits.
    """
    err_path = stdout_path + ".err"
    with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(list(argv), stdout=out, stderr=err,
                                env=repro_env(), cwd=ROOT)
        try:
            status, usage = _wait4(proc, timeout)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - started
    code = os.waitstatus_to_exitcode(status)
    if code not in (0, 1):
        with open(err_path, "rb") as handle:
            sys.stderr.write(handle.read().decode("utf-8", "replace")[-2000:])
    with open(stdout_path, "rb") as handle:
        data = handle.read()
    return ProcResult(wall, usage.ru_maxrss / 1024.0, code, data)


def _wait4(proc: subprocess.Popen, timeout: float):
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return status, usage
        if time.monotonic() > deadline:
            raise TimeoutError(f"{proc.args!r} ran past {timeout}s")
        time.sleep(0.001)


def repro_cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro", *args]


def generate_corpus(path: str, package: str, size: int, seed: int,
                    repair: bool) -> float:
    """``repro generate`` into *path*; returns the process wall time."""
    argv = ["generate", "--package", package, "--size", str(size),
            "--seed", str(seed), "-o", path]
    if repair:
        argv.append("--repair")
    result = run_timed(repro_cli(*argv), path + ".log")
    if result.exit_code != 0:
        raise RuntimeError(f"repro generate exited {result.exit_code}")
    return result.wall_s


def setup_corpus(path: str, package: str, size: int, seed: int,
                 repair: bool, repeats: int = SETUP_REPEATS) -> List[float]:
    """Generate the corpus *repeats* times; every copy must be identical.

    Returns the generate walls.  The first copy stays at *path*.
    """
    walls = [generate_corpus(path, package, size, seed, repair)]
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read()).hexdigest()
    for index in range(1, repeats):
        again = f"{path}.{index}"
        walls.append(generate_corpus(again, package, size, seed, repair))
        with open(again, "rb") as handle:
            if hashlib.sha256(handle.read()).hexdigest() != digest:
                raise RuntimeError(
                    f"repro generate is not deterministic for seed {seed}")
        os.remove(again)
    return walls


def run_child(mode: str, *args: str) -> Tuple[Dict[str, Any], ProcResult]:
    """Run one ``child.py`` pass; its JSON document and process figures.

    The output path is the argument after the corpus for every mode but
    ``server-counts``, where it is the last one.
    """
    out = args[-1] if mode == "server-counts" else args[1]
    result = run_timed([sys.executable,
                        os.path.join(ROOT, "perfbench", "child.py"), mode,
                        *args], out + ".stdout")
    if result.exit_code != 0:
        raise RuntimeError(f"child pass {mode} exited {result.exit_code}")
    with open(out, encoding="utf-8") as handle:
        return json.load(handle), result


def fresh_import_s(repeats: int = 3) -> float:
    """Median wall of a fresh ``python -c "import repro.cli"``."""
    walls = []
    for _ in range(repeats):
        result = run_timed([sys.executable, "-c", "import repro.cli"],
                           os.path.join(WORK, "import.out"))
        if result.exit_code != 0:
            raise RuntimeError("import repro.cli failed")
        walls.append(result.wall_s)
    return median(walls)


# -- statistics -----------------------------------------------------------

def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (the inclusive method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


# -- host stamp -----------------------------------------------------------

def host_stamp() -> Dict[str, Any]:
    """Where and on what code a result was measured."""
    return {"git_sha": _git_sha(), "src_sha256": _tree_digest(SRC),
            "nproc": nproc(), "python": platform.python_version(),
            "machine": platform.machine()}


def _git_sha() -> Optional[str]:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def _tree_digest(top: str) -> str:
    """SHA-256 over the program's source files (checkouts carry no git)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


# -- one run's outcome ----------------------------------------------------

@dataclass
class Outcome:
    """What a workload run hands back to ``run.py``."""

    #: every named figure (end to end and per layer), name -> (value, unit)
    report: Dict[str, Any] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: exact counts of one untimed pass, compared across two passes
    counts: Dict[str, Any] = field(default_factory=dict)
    #: printed reconciliation of layer times against the traced wall
    reconciliation: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.report[name] = (value, unit)


def reset_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    os.makedirs(REPORTS, exist_ok=True)
