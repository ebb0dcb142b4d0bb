"""Benchmark for the reidemeister library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One process, one thread, a closed loop
with one client: each request starts when the previous one has finished.
Workloads (see workloads.py): cli-readme, spectra-sweep, oracle-balls,
rnumber-witness.  Every answer is checked by the benchmark's own code.

With ``--trace 0`` the run repeats whole passes over the workload's
requests until ``--seconds`` of busy time, scaled to a reference host
speed (``HostSpeed``), have gone, and prints the end-to-end metrics: each
the median over windows of a fixed number of passes (``window_passes``,
about 1000 requests, or two passes of the slow workloads).  With
``--trace 1`` it first runs one traced pass, with every layer's public
callables wrapped (tracing.py), then untraced passes for half of
``--seconds`` to measure the tracing overhead, and prints the per-layer
metrics.  Informational lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--tiny`` shrinks every workload for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
from collections import Counter
import hashlib
import json
import os
from pathlib import Path
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SETUP_REPEATS = 5
WALL_CAP = 2.5  # a run stops after this many times --seconds of wall time

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "decided_share": "ratio",
    "correct_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {"calls": "count", "self_s": "s", "import_s": "s", "process_overhead_s": "s",
                   "decided_ratio": "ratio", "ball_sites": "count", "sites_per_s": "1/s",
                   "complete_ratio": "ratio"}
TRACE_METRICS = {"trace.overhead_ratio": "ratio", "trace.traced_ops_per_s": "1/s", "trace.untraced_ops_per_s": "1/s"}


def per_layer_unit(name: str) -> str:
    return TRACE_METRICS.get(name) or PER_LAYER_UNITS[name.rsplit(".", 1)[1]]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="shrunken inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Measurement


def calibration_task() -> int:
    """Fixed pure-Python work (tuple-keyed dict, big-int arithmetic, a sort),
    about 0.7 ms on the fast regime of the reference host."""
    table: dict = {}
    acc = 0
    for i in range(1500):
        k = (i * 7919) % 10007
        table[(k, i & 7)] = table.get((k - 1, i & 7), 0) + i
        acc += (k * 1234567891011) % 97
    values = [(i * 2654435761) % 4099 for i in range(1000)]
    values.sort()
    return acc + len(table) + values[0]


class HostSpeed:
    """Scales measured times to one reference host speed.

    On the shared host this benchmark was built on, each CPU's speed drifts
    by up to 2x within a second, on its own, and every CPU-bound task slows
    alike.  So while a run measures, an interval timer times
    ``calibration_task`` every ``TICK_S`` (in the runner's own thread,
    between bytecodes, or while it waits for a CLI child on the same CPU).
    A request's time leaves out the ticks made during it, and is multiplied
    by ``REFERENCE_S`` over the median of the ``RECENT`` calibrations
    before it and those during it (one slow tick moves a median little).
    ``REFERENCE_S`` is the task's time in the fast regime of that host (a
    2-core VM, Python 3.11); any constant would do, since only ratios
    between runs on one host matter.
    """

    REFERENCE_S = 6.6e-4
    TICK_S = 0.02
    RECENT = 5

    def __init__(self):
        self.samples: list[float] = []  # every calibration time
        self.ticks: list[tuple[float, float]] = []  # (start, seconds) since the current request began
        self._calibrate()
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.TICK_S, self.TICK_S)

    def close(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _calibrate(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        calibration_task()
        self.samples.append(time.perf_counter() - t0)
        return t0, self.samples[-1]

    def _tick(self, signum, frame) -> None:
        self.ticks.append(self._calibrate())

    def start(self) -> tuple[float, list[float]]:
        """Call right before a request: its start time and the recent calibrations."""
        self.ticks.clear()
        recent = self.samples[-self.RECENT:]
        return time.perf_counter(), recent

    def finish(self, started: tuple[float, list[float]]) -> tuple[float, float]:
        """Seconds since ``start()`` without the ticks made meanwhile, and
        the factor that scales them to the reference speed."""
        t1 = time.perf_counter()
        t0, recent = started
        during = [d for s, d in list(self.ticks) if s >= t0 and s + d <= t1]
        return t1 - t0 - sum(during), self.REFERENCE_S / statistics.median(recent + during)


def median_import_s(repeats: int, speed: HostSpeed) -> float:
    """Median time to import the package in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import reidemeister.cli; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(repeats):
        started = speed.start()
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True)
        samples.append(float(out.stdout) * speed.finish(started)[1])
    return statistics.median(samples)


class Tally:
    """Latencies and outcomes of the requests of one phase, pass by pass."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.status = Counter()
        self.parts: dict[str, list] = {}  # part -> [requests, undecided, failed, busy seconds]
        self.failures: list[str] = []  # failures no known defect explains
        self.known = Counter()  # failed requests per known baseline defect
        self.raw_s = 0.0  # unscaled busy time

    def add(self, part: str, seconds: float, status: str, reason: str | None, defect: str | None) -> None:
        self.passes[-1].append(seconds)
        self.status[status] += 1
        row = self.parts.setdefault(part, [0, 0, 0, 0.0])
        row[0] += 1
        row[1] += status == "undecided"
        row[2] += status == "failed"
        row[3] += seconds
        if defect is not None:
            self.known[defect] += 1
        elif reason and len(self.failures) < 10:
            self.failures.append(reason)

    def extend(self, other: "Tally") -> None:
        self.passes.extend(other.passes)
        self.raw_s += other.raw_s
        self.status.update(other.status)
        self.known.update(other.known)
        for part, row in other.parts.items():
            acc = self.parts.setdefault(part, [0, 0, 0, 0.0])
            for i in range(4):
                acc[i] += row[i]
        self.failures.extend(other.failures[: max(0, 10 - len(self.failures))])

    @property
    def attempted(self) -> int:
        return sum(len(p) for p in self.passes)

    @property
    def correct(self) -> bool:
        """True when every failed request shows a known baseline defect."""
        return self.status["failed"] == sum(self.known.values())

    @property
    def busy_s(self) -> float:
        return sum(map(sum, self.passes))

    def windows(self, passes: int) -> list[list[float]]:
        """Latencies of consecutive groups of ``passes`` whole passes; a
        short remainder joins the last window."""
        out = [sum(self.passes[i:i + passes], []) for i in range(0, len(self.passes), passes)]
        if len(out) > 1 and len(self.passes) % passes:
            out[-2].extend(out.pop())
        return out

    def ops_per_s(self) -> float:
        return self.attempted / self.busy_s


def run_passes(wl, seconds: float, tally: Tally, speed: HostSpeed, max_passes: int | None = None,
               tracer=None, on_result=None) -> None:
    """Closed loop over whole windows of ``wl.window_passes`` passes until
    ``seconds`` of busy time at the reference host speed have gone (or
    ``WALL_CAP`` times that in wall time)."""
    started = time.perf_counter()
    busy = 0.0
    index = 0
    while True:
        tally.passes.append([])
        for req in wl.make_pass(index):
            if tracer is not None:
                tracer.request_id += 1
            mark = speed.start()
            result = error = None
            try:
                result = wl.execute(req)
            except Exception as exc:  # a raising request is a failed request, not a crashed run
                error = exc
            elapsed, factor = speed.finish(mark)
            scaled = elapsed * factor
            if error is None:
                if on_result is not None:
                    on_result(req, result, elapsed)
                status, reason = wl.check(req, result)
            else:
                status, reason = "failed", "%s: %s: %s" % (req.kind, type(error).__name__, error)
            defect = wl.known_defect(req, result, error) if status == "failed" else None
            tally.raw_s += elapsed
            tally.add(req.part, scaled, status, reason, defect)
            busy += scaled
        index += 1
        if max_passes is not None and index >= max_passes:
            return
        if index % wl.window_passes:
            continue  # every window has the same passes, so the same percentiles
        if busy >= seconds or time.perf_counter() - started >= WALL_CAP * seconds:
            return


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Stamps


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "reidemeister").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def stamp(args, wl) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
        "loop": "closed, 1 client, 1 thread",
        **wl.stamp(),
    }


# ---------------------------------------------------------------------------
# Main


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "reidemeister" / "__init__.py").is_file():
        print("error: %s/reidemeister not found; run from a checkout of the repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)" % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    is_cli = cls is workloads.CliReadme
    WORK.mkdir(exist_ok=True)
    # the host's CPUs change speed independently, so the calibration, the
    # requests and the CLI children (which inherit this) share one CPU
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    # set-up: package import in fresh interpreters, then input generation
    # and warm-up, each repeated; the median of each counts
    speed = HostSpeed()
    repeats = 1 if args.tiny else SETUP_REPEATS
    import_s = median_import_s(repeats, speed)
    build_s = []
    for _ in range(repeats):
        started = speed.start()
        wl = cls(args.seed, args.tiny, root=ROOT, work=WORK) if is_cli else cls(args.seed, args.tiny)
        wl.warmup()
        seconds, factor = speed.finish(started)
        build_s.append(seconds * factor)
    setup_s = import_s + statistics.median(build_s)

    info = {"stamp": stamp(args, wl), "setup": {"import_s": import_s, "inputs_and_warmup_s": build_s}}
    if args.trace:
        tally, metrics = traced_run(args, wl, is_cli, info, speed)
    else:
        tally = Tally()
        run_passes(wl, args.seconds, tally, speed)
        # each statistic is the median of its values over the windows
        windows = tally.windows(wl.window_passes)
        tails = [tail(w) for w in windows]
        n = tally.attempted
        info["latency"] = {"samples": n, "passes": len(tally.passes), "windows": len(windows),
                           "window_samples": [len(w) for w in windows],
                           "tail_percentiles": [round(pct, 3) for _, pct in tails]}
        info["unscaled_ops_per_s"] = n / tally.raw_s
        info["pass_busy_s"] = [round(sum(p), 4) for p in tally.passes]
        info["undecided_share"] = tally.status["undecided"] / n
        info["failed_share"] = tally.status["failed"] / n
        metrics = {
            "ops_per_s": statistics.median(len(w) / sum(w) for w in windows),
            "latency_p50_ms": statistics.median(statistics.median(w) for w in windows) * 1e3,
            "latency_tail_ms": statistics.median(value for value, _ in tails) * 1e3,
            "decided_share": 1.0 - tally.status["undecided"] / n,
            "correct_share": 1.0 - tally.status["failed"] / n,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb(children=is_cli),
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    speed.close()
    info["host_speed"] = {"calibrations": len(speed.samples),
                          "median_slowdown": statistics.median(speed.samples) / HostSpeed.REFERENCE_S}
    info["parts"] = {part: {"requests": r, "undecided": u, "failed": f, "busy_s": round(b, 6)}
                     for part, (r, u, f, b) in sorted(tally.parts.items())}
    info["failures"] = tally.failures
    info["known_defects"] = dict(tally.known)

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed, args.trace))
    for name, m in metrics.items():
        print("  %-42s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(info, sort_keys=True))
    # failed counts every request without a right answer; correct is false
    # only when some failure is not one of the known baseline defects
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted, "failed": tally.status["failed"],
                      "metrics": metrics}))
    return 0


def traced_run(args, wl, is_cli: bool, info: dict, speed: HostSpeed):
    """One traced pass, then untraced passes for the overhead comparison."""
    import tracing

    summary = tracing.empty_summary()
    traced = Tally()
    if is_cli:
        # each request is a fresh interpreter running the traced entry script
        wl.trace_dir = WORK
        cli_tallies = Counter()

        def collect(req, result, wall):
            path = WORK / "request.json"
            if not path.exists():
                return  # the child died before writing; its exit code fails the check
            child = json.loads(path.read_text())
            path.unlink()
            tracing.merge(summary, child["summary"])
            run_total = child["summary"]["spans"].get("cli.run", [0, 0.0, 0.0])[1]
            cli_tallies["cli_import_s"] += child["import_s"]
            cli_tallies["cli_process_overhead_s"] += wall - child["import_s"] - run_total

        run_passes(wl, 0.0, traced, speed, max_passes=1, on_result=collect)
        wl.trace_dir = None
        tracing.merge(summary, {"spans": {}, "counts": {}, "tallies": dict(cli_tallies)})
        spans_out = None
    else:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            run_passes(wl, 0.0, traced, speed, max_passes=1, tracer=tracer)
        finally:
            tracer.uninstall()
        tracing.merge(summary, tracer.summary())
        spans_out = tracer.columns()
    untraced = Tally()
    run_passes(wl, args.seconds / 2, untraced, speed)

    metrics = tracing.layer_metrics(summary)
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s()
    metrics["trace.untraced_ops_per_s"] = untraced.ops_per_s()
    metrics["trace.overhead_ratio"] = metrics["trace.untraced_ops_per_s"] / metrics["trace.traced_ops_per_s"]
    info["traced_pass"] = {"requests": traced.attempted, "spans_by_self_s": sorted(
        ((name, row[0], round(row[2], 6)) for name, row in summary["spans"].items()), key=lambda r: -r[2])[:15]}
    if spans_out is not None:
        path = WORK / ("spans-%s-seed%d.json" % (args.workload, args.seed))
        path.write_text(json.dumps(spans_out))
        info["spans_file"] = str(path.relative_to(ROOT))
    traced.extend(untraced)  # traced and untraced requests together make the run's attempts
    metrics = {name: {"value": value, "unit": per_layer_unit(name)} for name, value in metrics.items()}
    return traced, metrics


if __name__ == "__main__":
    sys.exit(main())
