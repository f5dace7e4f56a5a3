"""dhratio benchmark: CLI workloads in a closed loop, with correctness gates.

    python3 bench/run.py --workload survey_high --seed 42 --seconds 55 --trace 0

Run from the repository root.  One client runs one fresh `dhratio` CLI
process at a time (closed loop), so no in-process cache stays warm
between runs, for about `--seconds`; every run is checked against frozen
independent references.  `--trace 0` reports the end-to-end metrics,
medians over the runs; `--trace 1` reports per-layer metrics from traced
runs (bench/tracer.py).  The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the lines before it are a
readable summary.  `--workload all` runs the four workloads in turn, each
ending in its own JSON line.  `--out FILE` also merges the full record
(machine, every run, every failure) into FILE.  Only the standard library
is used: subprocess, time.perf_counter and os.wait4 rusage.  See
bench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import importlib.metadata
import io
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".bench_work"
BUDGET_S = 170.0  # a whole invocation, set-up included
RUN_TIMEOUT_S = 120.0
SETUP_REPEATS = 3  # up front; one more follows every run
MIN_TRACED_RUNS = 2
ZERO_TOL = 1e-6  # record location vs. reference zero
RESIDUAL_TOL = 1e-8
PAIRED_RESIDUAL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    subcommand: str
    args: tuple[str, ...]
    jobs: int
    reference: str | None = None  # window in references.json, for surveys
    suites: tuple[str, ...] = ()  # suites a verify run must report

    def argv(self, seed: int) -> list[str]:
        extra = ["--seed", str(seed)] if self.subcommand == "verify" else []
        return [self.subcommand, *self.args, *extra, "--format", "csv", "--jobs", str(self.jobs)]


# Why each workload exists is recorded in BENCHMARK.json and bench/README.md.
# The survey windows are fixed because their references are frozen; only
# verify takes the workload seed.  verify_all fails at some seeds (see
# "Known failures" in bench/README.md); verify_core runs the two suites
# that pass at every seed tried.
ALL_SUITES = ("specfun", "dhfun", "xratio", "analysis")
WORKLOADS = {
    "survey_low": Workload("zeros", ("--rect", "0,1,0,120"), 1, "survey_low"),
    "survey_low_j2": Workload("zeros", ("--rect", "0,1,0,120"), 2, "survey_low"),
    "survey_high": Workload("zeros", ("--rect", "0,1,1000,1020"), 1, "survey_high"),
    "verify_core": Workload("verify", ("--suite", "dhfun", "--suite", "analysis"), 1, suites=("dhfun", "analysis")),
    "verify_all": Workload("verify", ("--suite", "all"), 1, suites=ALL_SUITES),
}


@dataclass
class Run:
    kind: str  # "e2e", "traced" or "untraced"
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int | None  # exit code, None on timeout
    gate: str | None = None  # why the run failed, None if it passed
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(cmd: list[str], timeout: float) -> tuple[float, float, float, int | None, bytes, bytes]:
    """Run `cmd` to completion in its own process group.

    Returns (wall_s, cpu_s, peak_rss_mb, exit_code, stdout, stderr).  CPU
    time and peak RSS come from wait4's rusage, which covers the process
    and every descendant it reaped (the CLI joins its pool workers).  On
    timeout the whole group is killed and exit_code is None.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    out_path, err_path = os.path.join(WORK_DIR, "stdout"), os.path.join(WORK_DIR, "stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), start_new_session=True)
        timer = threading.Timer(max(timeout, 0.0), _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the whole group down first
            _kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            _wait_group_gone(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4 above; Popen must not wait again
    timed_out = code == -signal.SIGKILL and wall >= timeout
    if timed_out:
        _wait_group_gone(proc.pid)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, None if timed_out else code, stdout, stderr


def cli_cmd(argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "dhratio.cli", *argv]


def traced_cmd(argv: list[str], spans_path: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), spans_path, *argv]


# ----------------------------------------------------------------------
# correctness gates (frozen independent references only)
# ----------------------------------------------------------------------


def load_references() -> dict:
    with open(os.path.join(BENCH_DIR, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)["windows"]


def survey_gate(stdout: bytes, ref: dict) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8", "replace"))))
    if len(rows) != ref["count"]:
        return f"{len(rows)} zero records, reference count {ref['count']}"
    off = sum(row["on_line"] == "false" for row in rows)
    if off != ref["off_line"]:
        return f"{off} off-line records, reference {ref['off_line']}"
    unmatched = [complex(s, t) for s, t in ref["zeros"]]
    for row in rows:
        z = complex(float(row["sigma"]), float(row["t"]))
        dist, k = min((abs(z - w), k) for k, w in enumerate(unmatched))
        if dist > ZERO_TOL:
            return f"record {z} lies {dist:.3g} from the nearest unmatched reference zero"
        unmatched.pop(k)
        if not float(row["residual"]) < RESIDUAL_TOL:
            return f"residual {row['residual']} at {z} is not below {RESIDUAL_TOL}"
        if not float(row["paired_residual"]) < PAIRED_RESIDUAL_TOL:
            return f"paired residual {row['paired_residual']} at {z} is not below {PAIRED_RESIDUAL_TOL}"
        if (row["on_line"] == "true") != (abs(z.real - 0.5) < ZERO_TOL):
            return f"on_line flag {row['on_line']} is wrong at {z}"
    return None


def verify_gate(stdout: bytes, expected: tuple[str, ...]) -> str | None:
    rows = list(csv.DictReader(io.StringIO(stdout.decode("utf-8", "replace"))))
    suites = {row["suite"] for row in rows}
    if suites != set(expected):
        return f"suites {sorted(suites)} reported, expected {sorted(expected)}"
    failed = [
        f"{row['suite']}.{row['check']} measured {row['measured']} vs threshold {row['threshold']}"
        for row in rows
        if row["passed"] != "true"
    ]
    return "failed checks: " + "; ".join(failed) if failed else None


def gate(workload: Workload, status: int | None, stdout: bytes, stderr: bytes, refs: dict, expect: bytes | None) -> str | None:
    """Why a run is wrong, or None.  `expect` is the --jobs 1 output a
    parallel run must reproduce byte for byte."""
    if status is None:
        return "timeout"
    if workload.reference is None:
        problem = verify_gate(stdout, workload.suites)
        if problem is None and status != 0:
            problem = f"verify passed every check but exited {status}"
        return problem
    if status != 0:
        tail = stderr.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return f"exit status {status}: {tail[0]}"
    if expect is not None and stdout != expect:
        return "stdout differs from the --jobs 1 run"
    return survey_gate(stdout, refs[workload.reference])


# ----------------------------------------------------------------------
# per-layer metrics from spans
# ----------------------------------------------------------------------

COUNT_KEYS = (
    "dhfun.f_batch.calls",
    "dhfun.f_batch.points",
    "dhfun.f_prime.calls",
    "dhfun.z_function.calls",
    "dhfun.z_function.points",
    "dhfun.functional_eq_residual.calls",
    "specfun.em_terms",
    "specfun.lgamma.calls",
    "specfun.lgamma.points",
    "specfun.digamma.calls",
    "specfun.hurwitz_zeta.calls",
    "xratio.logabsx_many.calls",
    "xratio.logabsx_many.points",
    "xratio.dsigma_logabsx.calls",
    "analysis.count_zeros_rect.calls",
    "analysis.count_zeros_rect.failed",
    "analysis.refine_zero.calls",
    "analysis.refine_zero.failed",
    "analysis.refine_zero.kept",
)
SELF_TIME_KEYS = {
    "dhfun.f_batch.self_s": ("dhfun.f_batch",),
    "dhfun.f_prime.self_s": ("dhfun.f_prime",),
    "dhfun.z_function.self_s": ("dhfun.z_function",),
    "dhfun.functional_eq_residual.self_s": ("dhfun.functional_eq_residual",),
    "specfun.lgamma.self_s": ("specfun.lgamma",),
    "specfun.digamma.self_s": ("specfun.digamma",),
    "specfun.hurwitz_zeta.self_s": ("specfun.hurwitz_zeta",),
    "xratio.logabsx_many.self_s": ("xratio.logabsx_many",),
    "xratio.series.self_s": ("xratio.dlogabsx_dt", "xratio.gamma_modulus_dt"),
    "analysis.count_zeros_rect.self_s": ("analysis.count_zeros_rect",),
    "analysis.refine_zero.self_s": ("analysis.refine_zero",),
    "analysis.trace_unit_curve.self_s": ("analysis.trace_unit_curve",),
    "analysis.kappa_detail.self_s": ("analysis.kappa_detail",),
    "suites.specfun.self_s": ("suites.specfun",),
    "suites.dhfun.self_s": ("suites.dhfun",),
    "suites.xratio.self_s": ("suites.xratio",),
    "suites.analysis.self_s": ("suites.analysis",),
}


# Self times that are exactly 0 on survey_high or verify_core, the workloads
# BENCHMARK.json gates on, because their functions never run there.  The
# summary and the --out record carry them; the JSON line does not.
SUMMARY_ONLY = frozenset(
    {
        "dhfun.functional_eq_residual.self_s",
        "xratio.series.self_s",
        "analysis.trace_unit_curve.self_s",
        "analysis.kappa_detail.self_s",
        "suites.specfun.self_s",
        "suites.dhfun.self_s",
        "suites.xratio.self_s",
        "suites.analysis.self_s",
    }
)


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """(counts, times) from one tracer dump.  A span's self time is its
    duration minus the durations of its direct children; spans nest
    strictly because each process traces one thread."""
    spans = trace["spans"]
    child_time = [0.0] * len(spans)
    calls: dict[str, int] = {}
    for sid, parent, name, start, end in spans:
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] += end - start
    self_by_name: dict[str, float] = {}
    for sid, parent, name, start, end in spans:
        self_by_name[name] = self_by_name.get(name, 0.0) + (end - start) - child_time[sid]
    counts = dict(trace["counts"])
    for key in COUNT_KEYS:
        if key.endswith(".calls"):
            counts[key] = calls.get(key.removesuffix(".calls"), 0)
        counts.setdefault(key, 0)
    times = {key: sum(self_by_name.get(n, 0.0) for n in names) for key, names in SELF_TIME_KEYS.items()}
    times["cli.main.wall_s"] = sum(end - start for _, _, name, start, end in spans if name == "cli.main")
    return counts, times


def per_layer(traced: list[Run], untraced: list[Run], jobs: int) -> dict:
    first = traced[0].counts
    out: dict[str, tuple[float, str]] = {key: (first[key], "count") for key in COUNT_KEYS}
    calls = first["dhfun.f_batch.calls"]
    out["dhfun.f_batch.points_per_call"] = (first["dhfun.f_batch.points"] / calls if calls else 0.0, "points/call")
    out["dhfun.f_batch.max_abs_t"] = (first["dhfun.f_batch.max_abs_t"], "1")
    refines = first["analysis.refine_zero.calls"]
    out["analysis.refine_zero.useful_ratio"] = (first["analysis.refine_zero.kept"] / refines if refines else 0.0, "ratio")
    out["analysis.max_residual"] = (first["analysis.max_residual"], "1")
    for key in traced[0].layers:
        out[key] = (statistics.median(r.layers[key] for r in traced), "s")
    wall = statistics.median(r.wall_s for r in untraced)
    cpu = statistics.median(r.cpu_s for r in untraced)
    out["cli.pool.busy_ratio"] = (cpu / (jobs * wall), "ratio")
    out["cli.pool.idle_s"] = (jobs * wall - cpu, "s")
    out["trace.overhead_ratio"] = (statistics.median(r.wall_s for r in traced) / wall - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def determinism_gate(first: dict, counts: dict) -> str | None:
    diff = [k for k in first if first[k] != counts.get(k)]
    return "counts differ between traced runs: " + ", ".join(sorted(diff)) if diff else None


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    numpy_version = importlib.metadata.version("numpy")
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> str:
    """The highest of p99 and p90 with at least ten samples beyond it."""
    for p in (99, 90):
        if len(values) * (100 - p) >= 1000:
            return f"; p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return "; no tail percentile below 20 samples"


def merge_record(path: str, key: str, record: dict) -> None:
    data = {"results": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    data["results"][key] = record
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ----------------------------------------------------------------------
# measurement loop
# ----------------------------------------------------------------------


def setup_time(workload: Workload, deadline: float) -> float:
    """Wall time of one fresh `python -m dhratio.cli <subcommand> --help`:
    interpreter, numpy, dhratio import and parser, which every run pays."""
    cmd = cli_cmd([workload.subcommand, "--help"])
    wall, _, _, status, _, stderr = spawn(cmd, deadline - time.perf_counter())
    if status != 0:
        raise SystemExit(f"setup failed: {' '.join(cmd)} exited {status}: {stderr.decode(errors='replace')}")
    return wall


def measure(name: str, seed: int, seconds: float, trace: bool, refs: dict, deadline: float):
    """Closed loop over fresh CLI processes; returns (runs, setup times).

    The whole call, set-up included, lasts about `seconds`: the next run
    starts only if at least half of a median loop lap fits in the time
    left, so a slow machine gets fewer runs, not a longer invocation.
    A traced invocation alternates traced and untraced runs, traced
    first, and keeps going until it has MIN_TRACED_RUNS traced runs.
    Without tracing a set-up sample follows every run, so setup_s is
    sampled across the window like the other metrics, not in one burst.
    """
    workload = WORKLOADS[name]
    argv = workload.argv(seed)
    stop = time.perf_counter() + seconds
    setup_time(workload, deadline)  # untimed: writes the bytecode caches
    setup = [] if trace else [setup_time(workload, deadline) for _ in range(SETUP_REPEATS)]
    expect = None
    if workload.jobs > 1:
        serial = workload.argv(seed)
        serial[serial.index("--jobs") + 1] = "1"
        _, _, _, status, expect, _ = spawn(cli_cmd(serial), deadline - time.perf_counter())
        if status != 0:
            expect = None  # the survey gate then reports what is wrong

    runs: list[Run] = []
    laps: list[float] = []
    spans_path = os.path.join(WORK_DIR, "spans.json")
    while True:
        lap_start = time.perf_counter()
        kind = "e2e"
        if trace:
            n_traced = sum(r.kind == "traced" for r in runs)
            kind = "traced" if n_traced <= len(runs) - n_traced else "untraced"
        cmd = traced_cmd(argv, spans_path) if kind == "traced" else cli_cmd(argv)
        if os.path.exists(spans_path):
            os.remove(spans_path)
        limit = min(RUN_TIMEOUT_S, deadline - time.perf_counter())
        wall, cpu, rss, status, stdout, stderr = spawn(cmd, limit)
        run = Run(kind, wall, cpu, rss, status, gate(workload, status, stdout, stderr, refs, expect))
        if kind == "traced" and status is not None:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    run.counts, run.layers = layer_metrics(json.load(fh))
            except (OSError, ValueError) as exc:
                run.gate = run.gate or f"no span dump: {exc}"
            first = next((r for r in runs if r.kind == "traced" and r.counts), None)
            if first is not None and run.counts:
                run.gate = "; ".join(filter(None, (run.gate, determinism_gate(first.counts, run.counts)))) or None
        runs.append(run)
        if run.gate:
            print(
                f"FAILED workload={name} seed={seed} run={len(runs)} kind={kind} "
                f"exit={status} gate={run.gate}",
                file=sys.stderr,
            )
        if not trace:
            setup.append(setup_time(workload, deadline))
        now = time.perf_counter()
        laps.append(now - lap_start)
        n_traced = sum(r.kind == "traced" and bool(r.counts) for r in runs)
        short = trace and status is not None and (n_traced < MIN_TRACED_RUNS or len(runs) < 3)
        lap = statistics.median(laps)
        if now + lap > deadline or (not short and now + lap / 2 > stop):
            break
    return runs, setup


def report(name: str, args: argparse.Namespace, refs: dict, machine: dict) -> int:
    """Measure one workload, print its summary and its JSON line."""
    begin = time.perf_counter()
    workload = WORKLOADS[name]
    runs, setup = measure(name, args.seed, args.seconds, bool(args.trace), refs, begin + BUDGET_S)

    failed = sum(r.gate is not None for r in runs)
    timed = [r for r in runs if r.kind != "traced"]
    traced = [r for r in runs if r.kind == "traced" and r.counts]
    print(
        f"workload {name} (seed {args.seed}): {' '.join(workload.argv(args.seed))}\n"
        f"  load: closed loop, 1 client, one CLI process at a time, --jobs {workload.jobs}; "
        f"{len(runs)} runs in {time.perf_counter() - begin:.1f} s"
    )
    e2e = {
        "wall_s": ([r.wall_s for r in timed], "s"),
        "cpu_s": ([r.cpu_s for r in timed], "s"),
        "peak_rss_mb": ([r.peak_rss_mb for r in timed], "MB"),
        "setup_s": (setup, "s"),
    }
    for key, (values, unit) in e2e.items():
        if values:
            print(f"  {key:<12} {statistics.median(values):10.4f} {unit:<3} median of {len(values)}{tail(values)}")
    e2e = {key: (statistics.median(v), unit) for key, (v, unit) in e2e.items() if v}
    print(f"  {'error_rate':<12} {failed / len(runs):10.4f} 1   {failed} failed of {len(runs)} attempted")

    if args.trace:
        if not traced or not timed:
            print("error: no complete traced and untraced run pair", file=sys.stderr)
            return 1
        metrics = per_layer(traced, timed, workload.jobs)
        for key, m in metrics.items():
            print(f"  {key:<38} {m['value']:14.6g} {m['unit']}")
    else:
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in e2e.items()}

    if args.out:
        record = {
            "machine": machine,
            "command": workload.argv(args.seed),
            "seconds": args.seconds,
            "setup_s": setup,
            "runs": [{k: v for k, v in asdict(r).items() if k not in ("counts", "layers")} for r in runs],
            "metrics": metrics,
            "error_rate": failed / len(runs),
        }
        merge_record(args.out, f"{name}/seed{args.seed}/trace{args.trace}", record)
    result = {k: v for k, v in metrics.items() if k not in SUMMARY_ONLY}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": result}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"], help="'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="merge the full record into this JSON file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "dhratio", "cli.py")):
        print("error: run from a dhratio checkout (src/dhratio/cli.py not found)", file=sys.stderr)
        return 2
    refs = load_references()
    machine = machine_info()
    print(f"machine: {machine['cpu']}, nproc {machine['nproc']}, python {machine['python']}, numpy {machine['numpy']}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(report(name, args, refs, machine) for name in names)


if __name__ == "__main__":
    sys.exit(main())
