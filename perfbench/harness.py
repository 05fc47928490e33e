"""Run plumbing: the Ray session, the per-operation watchdog, the hard
deadline, the host stamp and the percentile helpers."""

from __future__ import annotations

import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import threading
import time

from . import trace

NUM_CPUS = 2  # logical CPUs given to Ray; entry() needs 2 (1 deadlocks)
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are capped at 107 bytes; Ray appends about 63
# characters (session dir + sockets/plasma_store) to its temp dir
_MAX_RAY_TMP = 44


class OpTimeout(Exception):
    """An operation ran past its time limit."""


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (p in 0..100)."""
    v = sorted(values)
    k = max(0, min(len(v) - 1, int(-(-p * len(v) // 100)) - 1))
    return v[k]


def tail(values: list[float]) -> tuple[str, float | None]:
    """The highest of p99.9 / p99 / p90 / p50 with at least ten samples
    beyond it, as ``(label, value)``."""
    n = len(values)
    for p, label in ((99.9, "p999"), (99.0, "p99"), (90.0, "p90"),
                     (50.0, "p50")):
        if n * (100.0 - p) / 100.0 >= 10:
            return label, percentile(values, p)
    return "max", max(values) if values else None


def median(values: list[float]) -> float:
    """The median; NaN when there is no sample (every one failed)."""
    return statistics.median(values) if values else float("nan")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def pin_vcpus(n: int) -> None:
    """Hold every thread of this process and of the processes it started
    (Ray's) to the ``n`` highest-numbered allowed CPUs (CPU 0 takes most
    interrupts).  Processes and threads started later inherit the mask
    from their pinned parent."""
    cpus = sorted(os.sched_getaffinity(0))[-n:]
    for pid in [os.getpid()] + _descendants(os.getpid()):
        try:
            tids = os.listdir(f"/proc/{pid}/task")
        except OSError:
            continue  # exited
        for tid in tids:
            try:
                os.sched_setaffinity(int(tid), cpus)
            except OSError:
                pass


def host_stamp(root: str, ray_cpus: int) -> dict:
    import pyarrow
    import ray

    mem = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "ram_gb": round(mem / 2**30, 1),
        "python": platform.python_version(),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "commit": _commit(root),
        "ray_num_cpus": ray_cpus,
    }


def _commit(root: str) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'
    (read from .git directly: no subprocess)."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as f:
            ref = f.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:])) as f:
                return f.read().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


class RaySession:
    """One local Ray instance for the workload process; restartable
    after a hang so the next operation starts clean."""

    def __init__(self, root: str, trace_dir: str | None,
                 vcpus: int | None = None):
        self.root = root
        self.trace_dir = trace_dir
        self.vcpus = vcpus  # pin to this many vCPUs once started
        tmp = os.path.join(root, ".perfbench_ray")
        self.temp_dir = tmp if len(tmp) <= _MAX_RAY_TMP else None
        self.started = False

    def start(self) -> None:
        import logging

        import ray

        env = {"PYTHONPATH": os.pathsep.join(
            [self.root] + [p for p in os.environ.get("PYTHONPATH", "")
                           .split(os.pathsep) if p])}
        runtime_env = {"env_vars": env}
        if self.trace_dir:
            env[trace.TRACE_DIR_ENV] = self.trace_dir
            runtime_env["worker_process_setup_hook"] = \
                "perfbench.trace.worker_setup"
        kwargs = {}
        if self.temp_dir:
            kwargs["_temp_dir"] = self.temp_dir
        ray.init(num_cpus=NUM_CPUS, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=OBJECT_STORE_BYTES,
                 runtime_env=runtime_env, **kwargs)
        import ray.data

        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        ctx.enable_operator_progress_bars = False
        ctx.print_on_execution_start = False
        for name in ("ray", "ray.data", "ray.data._internal"):
            logging.getLogger(name).setLevel(logging.ERROR)
        if self.vcpus:
            pin_vcpus(self.vcpus)
        self.started = True

    def stop(self) -> None:
        import ray

        if self.started:
            ray.shutdown()
            self.started = False

    def restart(self) -> None:
        if self.started:
            self.stop()
            self.start()

    def cleanup(self) -> None:
        if self.temp_dir:
            shutil.rmtree(self.temp_dir, ignore_errors=True)


def run_with_limit(fn, limit_s: float):
    """Run ``fn()`` in this (main) thread; raise :class:`OpTimeout` if it
    is still running after ``limit_s`` seconds.  SIGALRM interrupts
    blocking ``ray.get`` calls too (Ray checks signals while waiting)."""
    def on_alarm(signum, frame):
        raise OpTimeout(f"operation exceeded {limit_s:.0f} s")

    old = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _descendants(pid: int) -> list[int]:
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        kids.setdefault(ppid, []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def kill_descendants() -> None:
    """SIGKILL every process this one started (Ray's GCS, raylet,
    workers) and wait for the direct children."""
    pids = _descendants(os.getpid())
    for p in pids:
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.time() + 10
    while time.time() < deadline:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                time.sleep(0.05)
        except ChildProcessError:
            break


def arm_deadline(seconds: float) -> threading.Timer:
    """Hard stop for the whole run: past ``seconds``, kill every child
    process and exit with code 3, printing no result."""
    def fire():
        print(f"perfbench: run exceeded {seconds:.0f} s, aborting",
              file=sys.stderr, flush=True)
        kill_descendants()
        os._exit(3)

    t = threading.Timer(seconds, fire)
    t.daemon = True
    t.start()
    return t
