"""Benchmark of the swingbench CLI on seeded synthetic corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs a workload's CLI commands
in sequence (a closed loop), each as its own child process, and repeats
the sequence while another pass fits in ``--seconds``.  Outputs are
checked after every command and hashed; a command that exits nonzero or
writes a wrong or differing output counts as a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
of untraced child processes (for CPU time, peak RSS and import time per
command) and one traced pass in this process through
``swingbench.cli.main``, and prints the per-layer metrics, among them the
tracing overhead.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  A fuller record of every run,
with per-command times and the SHA-256 of every output file, is appended
to ``.perfbench_out/results.jsonl``; ``compare.py`` reads two such files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
CHILD = HERE / "child.py"
# Every command must end before this many seconds into the run, so that a
# hung command cannot keep the run from finishing.
RUN_DEADLINE_S = 165.0
RSS_NOTE = (
    "peak RSS and CPU seconds per command come from os.wait4 on the benchmark's own "
    "child. Peak RSS is that of the largest single process, so a grandchild's memory "
    "(the external-model responder) is not added to the command's; its CPU seconds are "
    "included once the command has waited for it."
)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def median(values) -> float:
    return float(statistics.median(values))


def child_env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(argv: list[str], log: Path, deadline: float) -> Command:
    """Run one child to completion; CPU and peak RSS come from ``os.wait4``."""
    with log.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT, env=child_env()
        )
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(
        wall_s=wall,
        code=proc.returncode,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )


def timed_setup(workload, seed: int, inputs: Path) -> list[float]:
    """Build the inputs at least three times, and for at least 1.5 seconds."""
    times: list[float] = []
    while len(times) < 3 or (sum(times) < 1.5 and len(times) < 60):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        start = time.perf_counter()
        workload.setup(seed, inputs)
        times.append(time.perf_counter() - start)
    return times


def run_plain(workload, seed, inputs, run_dir, seconds, started) -> tuple[list, dict, dict]:
    """Repeat the workload's commands as CLI children while a pass fits."""
    deadline = started + RUN_DEADLINE_S

    def cli_runner(leg, log):
        return run_child([sys.executable, "-m", "swingbench.cli", *leg.argv], log, deadline)

    info = workload.prepare(seed, inputs)
    passes: list[dict[str, Command]] = []
    work: list[float] = []
    begin = time.perf_counter()
    while True:
        out = run_dir / f"pass{len(passes)}"
        out.mkdir()
        result = run_pass(workload, seed, inputs, out, cli_runner)
        passes.append(result)
        times = {name: c.wall_s for name, c in result.items()}
        if not any(c.problems for c in result.values()):
            work.append(workload.work_per_s(info, out, times))
        now = time.perf_counter()
        last = sum(times.values())
        if now - begin + last > seconds or now + 2 * last > deadline:
            break
    mark_nondeterminism(passes)
    metrics = {
        "wall_s": median(sum(c.wall_s for c in p.values()) for p in passes),
        "work_per_s": median(work) if work else 0.0,
        "peak_rss_mb": max(c.rss_mb for p in passes for c in p.values()),
    }
    detail = {
        workload.work_name: metrics["work_per_s"],
        "info": info,
        "commands": {
            name: {
                f"{name}_s": median(p[name].wall_s for p in passes),
                "wall_s": [p[name].wall_s for p in passes],
                "cpu_s": [p[name].cpu_s for p in passes],
                "rss_mb": [p[name].rss_mb for p in passes],
            }
            for name in passes[0]
        },
    }
    return passes, metrics, detail


def oracle_alloc_mb(args: tuple | None) -> float:
    """tracemalloc peak around one more oracle build on the traced pass's input."""
    if args is None:
        return 0.0
    from swingbench.challenge import CorpusOracleModel

    tracemalloc.start()
    try:
        CorpusOracleModel(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def run_traced(workload, seed, inputs, run_dir, started) -> tuple[list, dict, dict]:
    """One untraced pass in child processes, then one traced pass in process."""
    from swingbench import cli

    deadline = started + RUN_DEADLINE_S

    def child_runner(leg, log):
        timing = log.with_suffix(".timing.json")
        command = run_child([sys.executable, str(CHILD), str(timing), *leg.argv], log, deadline)
        if timing.is_file():
            measured = json.loads(timing.read_text(encoding="utf-8"))
            command.import_s, command.main_s = measured["import_s"], measured["main_s"]
            timing.unlink()
        return command

    tracer = Tracer(f"{workload.name}/seed{seed}")

    def traced_runner(leg, log):
        sink = io.StringIO()
        start = time.perf_counter()
        with tracer.span(f"cli.{leg.name}"), contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                code = cli.main(leg.argv)
            except Exception:  # a crash is this command's failure, not the run's
                traceback.print_exc(file=sink)
                code = -1
        wall = time.perf_counter() - start
        log.write_text(sink.getvalue(), encoding="utf-8")
        return Command(wall_s=wall, code=code, main_s=wall)

    untraced_dir, traced_dir = run_dir / "untraced", run_dir / "traced"
    untraced_dir.mkdir()
    traced_dir.mkdir()
    untraced = run_pass(workload, seed, inputs, untraced_dir, child_runner)
    with tracer.installed():
        traced = run_pass(workload, seed, inputs, traced_dir, traced_runner)
    passes = [untraced, traced]
    mark_nondeterminism(passes)

    spans_dir = OUT / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_dir / f"{workload.name}-seed{seed}.tsv.gz")

    untraced_s = sum(c.main_s or 0.0 for c in untraced.values())
    traced_s = sum(c.wall_s for c in traced.values())
    metrics = layer_metrics(
        tracer,
        untraced,
        overhead_s=traced_s - untraced_s,
        alloc_mb=oracle_alloc_mb(tracer.oracle_args),
    )
    detail = {
        "traced_s": traced_s,
        "untraced_in_process_s": untraced_s,
        "spans": {name: dict(entry) for name, entry in tracer.totals().items()},
    }
    return passes, metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    setup_times = timed_setup(workload, args.seed, inputs)

    if args.trace:
        passes, metrics, detail = run_traced(workload, args.seed, inputs, run_dir, started)
        units = dict(PER_LAYER_UNITS)
    else:
        passes, metrics, detail = run_plain(
            workload, args.seed, inputs, run_dir, args.seconds, started
        )
        metrics["setup_s"] = median(setup_times)
        units = END_TO_END

    attempted = sum(len(p) for p in passes)
    problems = [msg for p in passes for c in p.values() for msg in c.problems]
    failed = sum(1 for p in passes for c in p.values() if c.problems)
    digests = {f"{leg}/{name}": d for leg, c in passes[0].items() for name, d in c.digests.items()}
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "problems": problems[:20],
        "setup_s": setup_times,
        "metrics": metrics,
        "detail": detail,
        "digest": hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest(),
        "digests": digests,
        "note": RSS_NOTE,
    }
    OUT.mkdir(exist_ok=True)
    with (OUT / "results.jsonl").open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    if not failed:
        shutil.rmtree(run_dir, ignore_errors=True)
    for msg in problems[:20]:
        print(f"problem: {msg}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    if not (SRC / "swingbench" / "cli.py").is_file():
        print(f"error: no swingbench sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    from layers import PER_LAYER_UNITS, layer_metrics
    from tracer import Tracer
    from workloads import WORKLOADS, Command, mark_nondeterminism, run_pass

    sys.exit(main())
