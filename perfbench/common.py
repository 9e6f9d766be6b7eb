"""Shared plumbing: locating the program, guarding the environment,
recording the host, and starting ``repro`` subprocesses."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Scratch space for cache, journal and span files, inside the checkout.
WORK_DIR = ROOT / ".perfbench"


class SetupError(RuntimeError):
    """The benchmark cannot run here; nothing is measured."""


def check_source() -> None:
    """The program must be present: ``src/repro`` next to this directory."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program source at {SRC / 'repro'}")


def check_environment(environ=os.environ) -> None:
    """Refuse any ``REPRO_*`` knob: each one (backend, faults, jobs,
    workers, cache, schedule, chunk size, ...) changes the measured
    program, and a stray one from a CI lane would go unnoticed."""
    knobs = sorted(k for k in environ if k.startswith("REPRO_"))
    if knobs:
        raise SetupError(
            "unset these variables before benchmarking: " + ", ".join(knobs)
        )


def use_source() -> None:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _source_digest() -> str:
    """sha256 over ``src/`` (paths and bytes of every ``.py`` file): the
    program's identity when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: src_sha256 identifies it
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_record() -> Dict[str, object]:
    use_source()
    import numpy
    import sympy
    from repro.runtime import HAVE_NUMPY

    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "have_numpy": HAVE_NUMPY,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def process_age_s() -> float:
    """Seconds since this process started (Linux ``/proc``, 10 ms ticks)."""
    with open("/proc/self/stat") as f:
        # Field 22, start time in clock ticks; fields follow "(comm)".
        start_ticks = int(f.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def child_env() -> Dict[str, str]:
    """Environment for ``repro`` subprocesses: no ``REPRO_*`` knob, the
    checkout's ``src`` on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest peak of any child it has
    waited for (Linux reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def spawn_announcing(args: List[str], timeout: float = 60.0) -> Tuple[subprocess.Popen, dict]:
    """Start ``python -m repro <args>`` and wait for its JSON
    ``listening`` line; returns the process and the parsed line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            continue
        if msg.get("event") == "listening":
            return proc, msg
    stop(proc)
    raise SetupError(f"'repro {' '.join(args)}' never announced its port")


def stop(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Terminate a child (if still running) and wait until it has ended."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(grace)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()
