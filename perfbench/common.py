"""Process plumbing shared by the workloads: the hermetic child
environment, timed child processes with their resource usage, and the
run record (metrics with units and sample counts)."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"

#: Variables that would change what the program does or which kernel it
#: runs; removed so the default configuration is what gets measured.
SCRUBBED_ENV = ("REPRO_ARTIFACT_DIR", "REPRO_ENGINE_THREADS", "REPRO_ENGINE_KERNEL",
                "REPRO_FAULTS")

#: Hard cap on any one child process of a run.
CHILD_TIMEOUT_S = 150.0


def program_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildResult:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mib: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one program process to completion; time it and collect the
    CPU and peak RSS of it and every descendant it reaped."""
    out_path, err_path = cwd / f".out-{os.getpid()}", cwd / f".err-{os.getpid()}"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        # A session of its own, so a timeout also kills pool workers.
        proc = subprocess.Popen(argv, cwd=cwd, env=program_env(), stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, start_new_session=True)
        killer = threading.Timer(timeout, _kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_text(), err_path.read_text()
    out_path.unlink()
    err_path.unlink()
    return ChildResult(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mib=usage.ru_maxrss / 1024.0,
        stdout=stdout,
        stderr=stderr,
    )


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def repro_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro", *args]


def child_argv(*args: str, trace_dir: Path | None = None) -> list[str]:
    lead = ["--trace", str(trace_dir)] if trace_dir is not None else []
    return [sys.executable, str(BENCH / "child.py"), *lead, *args]


def stop_process(proc: subprocess.Popen, grace_s: float = 20.0) -> None:
    """SIGTERM (the server's graceful drain), then SIGKILL; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(grace_s)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2


@dataclass
class Report:
    """What one workload run measured and checked."""

    workload: str
    seed: int
    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.metrics[name] = (float(value), unit, int(n))

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


def environment() -> dict[str, str]:
    """Where the numbers came from: hardware, interpreter, libraries, code."""
    import numpy

    return {
        "cpu_count": str(os.cpu_count()),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "src_digest": source_digest(),
    }


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """Content digest of the program's sources (the checkout may not be a
    git repository, so this names the code that ran)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]
