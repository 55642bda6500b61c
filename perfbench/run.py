"""Benchmark of the irrbounds CLI: one closed-loop client, one request at a
time, each request a fresh ``python -m irrbounds ...`` process.

    python3 perfbench/run.py --workload table-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
alternates untraced requests with traced ones (see layers.py) and reports the
per-layer metrics.  Every request's stdout is compared byte for byte with the
reference recorded in ``reference/``; a mismatch or a nonzero exit counts as
a failed request.  The last line of stdout is the result as one JSON object;
the line before it records the host the figures were measured on.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"
SCRATCH = ROOT / ".bench_build" / "perfbench"

SEARCH_KS = (5, 7, 9, 11)   # all applicable on the grid, about 3 s each
VERIFY_KS = (6, 8, 10)      # all integral at (a, b, n) = (1, 13, 31)
SETUP_REPS = 3              # `--help` runs before the first request
REQUEST_TIMEOUT_S = 60

# the paper's headline table: mu at (1, 7), mu2 at the listed (a, b)
MU_TABLE = {3: 6.64610, 5: 5.82337, 6: 3.51433, 7: 5.45248, 8: 3.47834,
            9: 5.23162, 10: 3.45356, 11: 5.08120, 12: 3.43506}
MU2_TABLE = {6: 12.4084, 8: 10.9056, 10: 10.0339, 12: 9.46081}
MU_TOL, MU2_TOL = 1e-4, 1e-3

# the workloads, each with the calibrate.py task that matches its kind of work
CALIBRATION = {"table-paper": "bounds", "search-grid": "bounds",
               "verify-n31": "exact"}
# median wall time of each calibration task on the host the bounds were set
# on (2-vCPU Intel Xeon VM); setup_s is given in seconds at that host's speed
CALIB_REFERENCE_S = {"bounds": 0.39, "exact": 0.47}


def workload_request(workload: str, seed: int) -> tuple[str, list[str]]:
    """(variant label, CLI argv) of a workload; the seed picks the variant."""
    if workload == "table-paper":
        return "table-paper", ["table", "--paper", "--format", "csv"]
    if workload == "search-grid":
        k = SEARCH_KS[seed % len(SEARCH_KS)]
        return f"search-grid-k{k}", ["search", "--k", str(k), "--a-max", "3",
                                     "--b-max", "21"]
    if workload == "verify-n31":
        k = VERIFY_KS[seed % len(VERIFY_KS)]
        return f"verify-n31-k{k}", ["verify", "--k", str(k), "--a", "1",
                                    "--b", "13", "--n", "31", "--quadratic",
                                    "--format", "json"]
    raise ValueError(f"unknown workload {workload!r}")


def all_variants() -> dict[str, list[str]]:
    """Every variant of every workload, label -> argv."""
    out = {}
    for workload in CALIBRATION:
        for seed in range(12):
            label, argv = workload_request(workload, seed)
            out[label] = argv
    return out


def paper_table_ok(stdout: bytes) -> bool:
    """The 13 headline values of ``table --paper --format csv`` agree with the
    paper at the acceptance tolerances, independent of the reference file."""
    rows = list(csv.DictReader(io.StringIO(stdout.decode())))
    mu = {int(r["k"]): float(r["mu"]) for r in rows}
    mu2 = {int(r["k"]): float(r["mu2"]) for r in rows if r["mu2"]}
    return (mu.keys() == MU_TABLE.keys() and mu2.keys() == MU2_TABLE.keys()
            and all(abs(mu[k] - v) < MU_TOL for k, v in MU_TABLE.items())
            and all(abs(mu2[k] - v) < MU2_TOL for k, v in MU2_TABLE.items()))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise Timeout


def run_child(cmd: list[str]) -> tuple[float, float, float, int, bytes, bytes]:
    """(wall s, user+sys CPU s, max RSS MB, exit code, stdout, stderr) of one
    child process, from its own resource usage."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=SCRATCH) as out, \
            tempfile.TemporaryFile(dir=SCRATCH) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(REQUEST_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                proc.returncode, out.read(), err.read())


def calibrate(kind: str) -> tuple[float, float]:
    """(wall s, CPU s) of a fixed calibration task in a fresh process."""
    wall, cpu, _, code, _, err = run_child(
        [sys.executable, str(HERE / "calibrate.py"), kind])
    if code != 0:
        raise RuntimeError(f"calibration task failed: {err.decode()[-500:]}")
    return wall, cpu


def git_rev() -> str | None:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


class Run:
    """Requests of one benchmark run and their correctness counts."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.label, self.argv = workload_request(workload, seed)
        self.reference = (REFERENCE / f"{self.label}.out").read_bytes()
        self.attempted = 0
        self.failed = 0

    def request(self, traced_spans: Path | None = None):
        """Run the request once, untraced or traced, and check its stdout."""
        if traced_spans is None:
            cmd = [sys.executable, "-m", "irrbounds", *self.argv]
        else:
            cmd = [sys.executable, str(HERE / "layers.py"), str(traced_spans),
                   *self.argv]
        wall, cpu, rss, code, out, err = run_child(cmd)
        self.attempted += 1
        ok = code == 0 and out == self.reference
        if ok and self.workload == "table-paper":
            ok = paper_table_ok(out)
        if not ok:
            self.failed += 1
            print(f"request failed: exit {code}, stdout "
                  f"{'matches' if out == self.reference else 'differs from'}"
                  f" reference {self.label}\n{err.decode()[-2000:]}",
                  file=sys.stderr)
        return wall, cpu, rss, ok


def setup_time() -> float:
    """Wall time of `python -m irrbounds --help`: start-up plus import."""
    wall, _, _, code, out, _ = run_child([sys.executable, "-m", "irrbounds", "--help"])
    if code != 0 or not out.startswith(b"Usage:"):
        raise RuntimeError(f"`irrbounds --help` failed with exit {code}")
    return wall


def untraced(run: Run, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics.  Each request is bracketed by calibration runs and
    followed by a setup sample, so that all three see the same host.  Each
    setup sample is divided by the calibration run just before it."""
    kind = CALIBRATION[run.workload]
    calib = [calibrate(kind)]
    setups = [(setup_time(), calib[0][0]) for _ in range(SETUP_REPS)]
    walls, cpus, rss, rel_wall, rel_cpu = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, cpu, peak, _ = run.request()
        calib.append(calibrate(kind))
        setups.append((setup_time(), calib[-1][0]))
        (before_wall, before_cpu), (after_wall, after_cpu) = calib[-2:]
        walls.append(wall)
        cpus.append(cpu)
        rss.append(peak)
        rel_wall.append(2 * wall / (before_wall + after_wall))
        rel_cpu.append(2 * cpu / (before_cpu + after_cpu))
    setup_rel = statistics.median(wall / cal for wall, cal in setups)
    metrics = {
        "request_rel_p50": (statistics.median(rel_wall), "ratio"),
        "cpu_rel_p50": (statistics.median(rel_cpu), "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
        "setup_s": (setup_rel * CALIB_REFERENCE_S[kind], "s"),
        "success_frac": ((run.attempted - run.failed) / run.attempted, "ratio"),
    }
    context = {
        "samples": len(walls), "setup_samples": len(setups),
        "request_s_p50": statistics.median(walls),
        "cpu_s_p50": statistics.median(cpus),
        "setup_raw_s_p50": statistics.median(wall for wall, _ in setups),
        "calib_s_p50": statistics.median(wall for wall, _ in calib),
    }
    return metrics, context


def traced(run: Run, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics, from traced requests alternating with untraced ones
    so that the tracing overhead is measured on the same host."""
    SCRATCH.mkdir(parents=True, exist_ok=True)
    spans_path = SCRATCH / f"spans-{os.getpid()}.json"
    plain, with_trace, per_request = [], [], []
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(run.request()[0])
        wall, _, _, ok = run.request(traced_spans=spans_path)
        with_trace.append(wall)
        if ok:
            per_request.append(layers.request_metrics(
                json.loads(spans_path.read_text()), wall))
        spans_path.unlink(missing_ok=True)
    metrics = {}
    for name, unit in layers.metric_units().items():
        if name == "trace.overhead_frac":
            value = statistics.median(with_trace) / statistics.median(plain) - 1
        else:
            value = statistics.fmean(r[name] for r in per_request) if per_request else 0.0
        metrics[name] = (value, unit)
    return metrics, {"samples": len(with_trace)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(CALIBRATION))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "irrbounds" / "__init__.py").is_file():
        print(f"no irrbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed)
    try:
        metrics, context = (traced if args.trace else untraced)(run, args.seconds)
    except RuntimeError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2

    import mpmath

    context.update({
        "workload": args.workload, "variant": run.label, "seed": args.seed,
        "argv": run.argv, "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "mpmath_backend": mpmath.libmp.BACKEND, "git_rev": git_rev(),
    })
    print("host " + json.dumps(context))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
