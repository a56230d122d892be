"""Seeded timings of the scape-plot DP, compiled kernel against numpy, of
the external-model line protocol, of corpus ingest, of the n-gram model
and of each CLI command's start-up.

    python3 tools/bench_kernel.py fixed-n --out fixed.json
    python3 tools/bench_kernel.py yardstick --out yardstick.json
    python3 tools/bench_kernel.py startup --out startup.json [--parent-src PARENT/src]
    python3 tools/bench_kernel.py assemble --parent P.jsonl --change C.jsonl \\
        --fixed-n fixed.json [--parent-fixed-n PARENT_FIXED.json] \\
        --yardstick yardstick.json [--startup startup.json] --out BENCH.json

Run from the repository root; the package is imported from ``src``.

``fixed-n`` times ``scape_plot`` on seeded random symmetric SSMs at
N = 100, 200, 300 and 500 frames, through the compiled kernel and
through numpy ``_sweep`` (the kernel is switched off inside this script
only), and checks that both plots are bit-identical.  The library is
built or loaded before timing; build time is reported on its own.
``fixed-n`` also times the line protocol: one ``SubprocessModel`` talking
to ``perfbench/responder.py`` scores 300 seeded ids after a context of
the first 100, 400 and 700 ids of the same seeded sequence, and reports
microseconds per request.  It also times ingest on the corpus of the
``codec-generate`` workload of ``perfbench`` (100 random solos x 32 bars,
built with seed = SEED): ``load_corpus`` in microseconds per note and
``encode_solo`` in microseconds per token, medians of 5.  On the same
corpus it trains the order-5 n-gram and reports the build of its count
index (median of 5), the ``tracemalloc`` peak and kept bytes of one build
per token, the bytes a token that the trained model and its index keep
together, and microseconds per ``generate_tokens`` step: two pieces
capped at GEN_TOKENS tokens (seeds SEED and SEED + 1) per repeat, median
of 5 repeats.  The first repeat also builds the grammar masks.  It saves
the model and runs the ``codec-generate`` workload's ``generate`` command
on it 5 times, and reports the command's own peak RSS.  It times the
order-5 n-gram trained on the motif corpus of the ``challenge-motif``
workload over the questions of its n-gram leg (seed MOTIF_SEED), in
microseconds per scored token, median of 5, after one run that builds
the index.  It builds the corpus oracle on the ``codec-generate`` corpus
and reports the ``tracemalloc`` peak and kept bytes of the build per
token, then times the oracle over the questions of the
``challenge-motif`` workload's oracle leg (its motif corpus and
questions, seed MOTIF_SEED), in microseconds per scored token, median of
5.

``yardstick`` runs ``report`` over 456 random solos (as many as WJazzD
holds) at 120 bpm, each 100-150 bars (200-300 one-second frames, lengths
drawn uniformly), once, under ``perfbench/tracer.py`` (``TRACED_REPORT``):
the command's wall time, CPU time and peak RSS, and per traced layer
function its calls (``n``), seconds (``s``) and self seconds
(``self_s``).

``startup`` runs every CLI command of the three ``perfbench`` workloads
(inputs built with seed = SEED) as ``python -m swingbench.cli``, a new
process each time, STARTUP_ROUNDS rounds, and records each command's
wall times and peak RSS, their medians, and whether the command loaded
numpy (from one more run through ``NUMPY_PROBE``).  With ``--parent-src``
it runs the package in that directory too, interleaved with this one,
the order of the two sides alternating from round to round.  It records
``PYTHONDONTWRITEBYTECODE`` as it finds it ("unset" when it is not).
When it is set, no run writes bytecode, so every timed run compiles the
package from source and its time includes that compile; when it is
unset, the probe runs write the bytecode that the timed runs read.  The
tool compiles nothing itself: ``perfbench``'s children read cached
bytecode, so a checkout given it would be read faster on one side only.

Every CLI command that ``fixed-n``, ``yardstick`` and ``startup`` run
as a process runs through ``run_child``: a small ``python -S`` parent
(``SPAWNER``) starts it, times it, and reads its exit code, CPU time and
peak RSS from ``os.wait4``.  At exec Linux gives
a process the high-water RSS of the one that spawned it, so a command
started straight from this script would read this script's peak, not
its own.

``assemble`` puts these files together with the ``results.jsonl`` records
of ``perfbench/run.py`` for the parent and the change, and the verdicts
of ``perfbench/compare.py`` on them.  Its ``machine`` block names numpy's
BLAS library and version, and ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` as ``assemble`` finds them ("unset" when they are
not), so run every step from one shell.  ``--parent-fixed-n`` is the output
of ``fixed-n`` run in a checkout of the parent, whose line-protocol,
ingest, n-gram and oracle numbers are set beside the change's; a section
the parent's file lacks is left out of its side.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import compare  # noqa: E402
import numpy as np  # noqa: E402
import workloads  # noqa: E402

from swingbench import structure  # noqa: E402
from swingbench.challenge import (  # noqa: E402
    CorpusOracleModel,
    SubprocessModel,
    build_questions,
    generate_tokens,
    run_challenge,
    train_ngram,
)
from swingbench.corpus import load_corpus, save_corpus  # noqa: E402
from swingbench.synthetic import random_solo  # noqa: E402
from swingbench.tokenizer import DEFAULT_VOCABULARY as VOCAB, encode_solo  # noqa: E402

# frames of the fixed-N points
SIZES = (100, 200, 300, 500)
# context ids of the line-protocol points, and the ids scored after each
CONTEXTS = (100, 400, 700)
SCORED = 300
RESPONDER = ROOT / "perfbench" / "responder.py"
SOLOS = 456
SEED = 0
# n-gram order, and the cap on each generated piece, of the codec-generate workload
ORDER = 5
GEN_TOKENS = 3000
# seed of the challenge-motif inputs and questions the n-gram and oracle are timed on
MOTIF_SEED = 1
# Runs the command in its arguments, prints its wall and CPU seconds and
# peak RSS in KiB, and exits with its exit code; started with ``-S``, it
# imports nothing but ``os``, ``sys`` and ``time``.
SPAWNER = (
    "import os, sys, time\n"
    "start = time.perf_counter()\n"
    "pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ)\n"
    "_, status, usage = os.wait4(pid, 0)\n"
    "print(time.perf_counter() - start, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)\n"
    "sys.exit(os.waitstatus_to_exitcode(status))\n"
)
# Rounds of the startup section: each runs every command once on each side.
STARTUP_ROUNDS = 5
# Runs the CLI command in its arguments, prints on its last line whether
# numpy was loaded, and exits with the command's exit code.
NUMPY_PROBE = (
    "import sys\n"
    "from swingbench import cli\n"
    "code = cli.main(sys.argv[1:])\n"
    "print('numpy' in sys.modules)\n"
    "sys.exit(code)\n"
)
# Runs ``report`` with the arguments after its first under the Tracer of
# ``tracer.py`` in the directory its first names, and prints the tracer's
# totals as JSON on its last line.  ``Tracer.installed`` looks up every
# traced module, so ``challenge`` and ``structure`` are imported first.
TRACED_REPORT = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from tracer import Tracer\n"
    "from swingbench import challenge, cli, structure\n"
    "tracer = Tracer('yardstick')\n"
    "with tracer.installed():\n"
    "    code = cli.main(['report', *sys.argv[2:]])\n"
    "print(json.dumps(tracer.totals()))\n"
    "sys.exit(code)\n"
)


class Child(NamedTuple):
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str


def run_child(args: list[str], src: Path = ROOT / "src") -> Child:
    """Run ``python ARGS`` with the package from ``src``, started by
    ``SPAWNER``; a nonzero exit code is an error."""
    done = subprocess.run([sys.executable, "-S", "-c", SPAWNER, sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
                          text=True, stdin=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"error: python {' '.join(args)} exited with code {done.returncode}: "
                         f"{done.stderr}")
    *out, wall, cpu, kib = done.stdout.rsplit(maxsplit=3)
    return Child(float(wall), float(cpu), int(kib) / 1024.0, "".join(out))


def random_ssm(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, n))
    m = (a + a.T) / 2
    np.fill_diagonal(m, 1.0)
    return m


def timed(fn, repeats: int) -> tuple[list[float], np.ndarray]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return times, result


def line_protocol() -> dict:
    rng = np.random.default_rng(SEED)
    ids = [int(x) for x in rng.integers(0, VOCAB.size, max(CONTEXTS) + SCORED)]
    points = []
    with SubprocessModel([sys.executable, str(RESPONDER)], VOCAB.size) as model:
        model.score([], ids[:SCORED])  # the child is up and answering before timing
        for n in CONTEXTS:
            times, _ = timed(lambda: model.score(ids[:n], ids[n:n + SCORED]), 5)
            us = [1e6 * t / SCORED for t in times]
            points.append({"context_ids": n, "us_per_request": us,
                           "median_us_per_request": statistics.median(us)})
            print(f"line protocol, {n} + {SCORED} ids: {points[-1]['median_us_per_request']:.1f} "
                  "us a request", file=sys.stderr)
    return {
        "responder": "perfbench/responder.py",
        "ids": f"uniform over the {VOCAB.size} token ids; seed = SEED",
        "scored_ids": SCORED,
        "points": points,
    }


def ingest() -> tuple[dict, list[list[int]]]:
    """Ingest timings, and the token ids of the corpus they ingest."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads.WORKLOADS["codec-generate"].setup(SEED, Path(tmp))
        path = Path(tmp) / "codec.jsonl"
        load_s, solos = timed(lambda: load_corpus(path), 5)
        encode_s, encoded = timed(lambda: [encode_solo(solo) for solo in solos], 5)
    notes, tokens = sum(len(s.notes) for s in solos), sum(map(len, encoded))
    load_us = [1e6 * t / notes for t in load_s]
    encode_us = [1e6 * t / tokens for t in encode_s]
    result = {
        "corpus": "perfbench codec-generate inputs, seed = SEED",
        "solos": len(solos),
        "notes": notes,
        "tokens": tokens,
        "load_corpus_us_per_note": load_us,
        "encode_solo_us_per_token": encode_us,
        "median_load_corpus_us_per_note": statistics.median(load_us),
        "median_encode_solo_us_per_token": statistics.median(encode_us),
    }
    print(f"ingest, {len(solos)} solos: load_corpus "
          f"{result['median_load_corpus_us_per_note']:.2f} us a note, encode_solo "
          f"{result['median_encode_solo_us_per_token']:.3f} us a token", file=sys.stderr)
    return result, [VOCAB.tokens_to_ids(tokens) for tokens in encoded]


def motif_questions(count: int) -> tuple[list[list[int]], list]:
    """The ``challenge-motif`` workload's corpus as token ids (seed
    MOTIF_SEED), and ``count`` questions drawn from it as its legs draw them."""
    with tempfile.TemporaryDirectory() as tmp:
        workloads.WORKLOADS["challenge-motif"].setup(MOTIF_SEED, Path(tmp))
        motif = [VOCAB.tokens_to_ids(encode_solo(solo))
                 for solo in load_corpus(Path(tmp) / "motif.jsonl")]
    return motif, build_questions(motif, count=count, seed=MOTIF_SEED,
                                  bar_token_id=VOCAB.bar_token_id)


def generate_peak_rss(model) -> list[float]:
    """Peak RSS in MB of the ``codec-generate`` workload's ``generate``
    command on ``model``, 5 runs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        model.save(path)
        argv = ["-m", "swingbench.cli", "generate", "--model-file", str(path),
                "--out", str(Path(tmp) / "gen"), "--bars", "1000",
                "--count", str(workloads.GEN_COUNT),
                "--max-tokens", str(workloads.GEN_MAX_TOKENS), "--seed", str(SEED)]
        return [run_child(argv).peak_rss_mb for _ in range(5)]


def ngram(sequences: list[list[int]]) -> dict:
    tokens = sum(map(len, sequences))
    build_s = []
    for _ in range(5):
        model = train_ngram(sequences, ORDER, VOCAB.size)
        start = time.perf_counter()
        model.index
        build_s.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        model = train_ngram(sequences, ORDER, VOCAB.size)
        model_kept = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        model.index
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    kept -= model_kept
    peak -= model_kept
    # no piece reaches its bar target, so each samples GEN_TOKENS - 1 ids after its Bar
    step_s, _ = timed(lambda: [generate_tokens(model, [VOCAB.bar_token_id], target_bars=10**6,
                                               seed=SEED + i, max_tokens=GEN_TOKENS)
                               for i in range(2)], 5)
    steps = 2 * (GEN_TOKENS - 1)
    step_us = [1e6 * t / steps for t in step_s]
    rss = generate_peak_rss(model)
    motif, questions = motif_questions(workloads.NGRAM_QUESTIONS)
    motif_model = train_ngram(motif, ORDER, VOCAB.size)
    run_challenge(motif_model, questions)  # builds the index
    score_s, _ = timed(lambda: run_challenge(motif_model, questions), 5)
    scored = sum(4 * question.truncation_length for question in questions)
    score_us = [1e6 * t / scored for t in score_s]
    result = {
        "corpus": "perfbench codec-generate inputs, seed = SEED",
        "order": ORDER,
        "tokens": tokens,
        "index_build_s": build_s,
        "median_index_build_s": statistics.median(build_s),
        "index_peak_bytes_per_token": peak / tokens,
        "index_kept_bytes_per_token": kept / tokens,
        "model_kept_bytes_per_token": (model_kept + kept) / tokens,
        "generate": f"2 pieces capped at {GEN_TOKENS} tokens after one Bar, seeds SEED, SEED + 1",
        "sampled_tokens": steps,
        "generate_us_per_step": step_us,
        "median_generate_us_per_step": statistics.median(step_us),
        "generate_command": "the codec-generate generate leg on this model, seed = SEED, "
                            "started by run_child",
        "generate_peak_rss_mb": rss,
        "median_generate_peak_rss_mb": statistics.median(rss),
        "score_questions": "perfbench challenge-motif n-gram leg, seed = MOTIF_SEED, "
                           f"order {ORDER} trained on its corpus",
        "score_scored_tokens": scored,
        "score_us_per_token": score_us,
        "median_score_us_per_token": statistics.median(score_us),
    }
    print(f"n-gram, {tokens} tokens: index build {result['median_index_build_s']:.3f} s, "
          f"peak {peak / tokens:.1f} and kept {kept / tokens:.1f} bytes a token (with the model "
          f"{result['model_kept_bytes_per_token']:.1f}); generate "
          f"{result['median_generate_us_per_step']:.1f} us a step, its command's peak RSS "
          f"{result['median_generate_peak_rss_mb']:.1f} MB; score "
          f"{result['median_score_us_per_token']:.2f} us a scored token", file=sys.stderr)
    return result


def oracle(sequences: list[list[int]]) -> dict:
    tokens = sum(map(len, sequences))
    tracemalloc.start()
    try:
        model = CorpusOracleModel(sequences, VOCAB.size)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    motif, questions = motif_questions(workloads.ORACLE_QUESTIONS)
    model = CorpusOracleModel(motif, VOCAB.size)
    score_s, answered = timed(lambda: run_challenge(model, questions), 5)
    if answered.accuracy != 1.0:
        raise SystemExit(f"error: the oracle answered {answered.accuracy:.0%} of the questions")
    scored = sum(4 * question.truncation_length for question in questions)
    score_us = [1e6 * t / scored for t in score_s]
    result = {
        "corpus": "perfbench codec-generate inputs, seed = SEED",
        "tokens": tokens,
        "build_peak_bytes_per_token": peak / tokens,
        "build_kept_bytes_per_token": kept / tokens,
        "questions": "perfbench challenge-motif oracle leg, seed = MOTIF_SEED",
        "scored_tokens": scored,
        "score_us_per_token": score_us,
        "median_score_us_per_token": statistics.median(score_us),
    }
    print(f"oracle, {tokens} tokens: peak {peak / tokens:.1f} and kept {kept / tokens:.1f} "
          f"bytes a token; {result['median_score_us_per_token']:.2f} us a scored token",
          file=sys.stderr)
    return result


def fixed_n() -> dict:
    protocol = line_protocol()
    ingested, sequences = ingest()
    ngram_model = ngram(sequences)
    oracle_model = oracle(sequences)
    start = time.perf_counter()
    kernel = structure._kernel()
    load_s = time.perf_counter() - start
    if kernel is None:
        raise SystemExit("error: the compiled kernel is not available; stderr says why")
    kernel_fn = structure._kernel
    points = []
    for n in SIZES:
        m = random_ssm(n, SEED + n)
        k_times, k_plot = timed(lambda: structure.scape_plot(m), 5)
        structure._kernel = lambda: None
        try:
            n_times, n_plot = timed(lambda: structure.scape_plot(m), 3)
        finally:
            structure._kernel = kernel_fn
        k_med, n_med = statistics.median(k_times), statistics.median(n_times)
        points.append({
            "frames": n,
            "kernel_s": k_times,
            "numpy_s": n_times,
            "kernel_median_s": k_med,
            "numpy_median_s": n_med,
            "speedup": n_med / k_med,
            "bit_identical": k_plot.tobytes() == n_plot.tobytes(),
        })
        print(f"N={n}: kernel {k_med:.3f} s, numpy {n_med:.3f} s, "
              f"{n_med / k_med:.1f}x, identical {points[-1]['bit_identical']}", file=sys.stderr)
    return {
        "ssm": "uniform(-1, 1) symmetrised, unit diagonal; seed = SEED + N",
        "seed": SEED,
        "first_call_s": load_s,
        "first_call_note": "build or load of the library in this process, before any timing",
        "points": points,
        "line_protocol": protocol,
        "ingest": ingested,
        "ngram": ngram_model,
        "oracle": oracle_model,
    }


def yardstick() -> dict:
    rng = np.random.default_rng(SEED)
    bars = [int(b) for b in rng.integers(100, 151, size=SOLOS)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "yardstick.jsonl"
        pieces = [
            random_solo(rng, f"solo-{i:03d}", n_bars=b, bpm_range=(120.0, 120.0))
            for i, b in enumerate(bars)
        ]
        save_corpus(pieces, corpus)
        frames = [len(structure.chroma_from_solo(p)) for p in pieces]
        child = run_child(["-c", TRACED_REPORT, str(ROOT / "perfbench"),
                           "--corpus", str(corpus), "--out", str(Path(tmp) / "out")])
    return {
        "solos": SOLOS,
        "seed": SEED,
        "length_mix": "random_solo at 120 bpm, bars uniform in 100..150 (seeded), "
                      "so 200-300 frames at 1 Hz",
        "frames": {"min": min(frames), "median": statistics.median(frames), "max": max(frames),
                   "total": sum(frames)},
        "wall_s": child.wall_s,
        "cpu_s": child.cpu_s,
        "peak_rss_mb": child.peak_rss_mb,
        "stage_wall_s": json.loads(child.stdout.splitlines()[-1]),
    }


def startup(parent_src: Path | None) -> dict:
    sides = {"change": ROOT / "src", **({"parent": parent_src.resolve()} if parent_src else {})}
    commands: dict[str, dict[str, dict]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        plans = {side: [] for side in sides}  # per side: (command name, argv) in run order
        for name, workload in workloads.WORKLOADS.items():
            inputs = Path(tmp) / name
            inputs.mkdir()
            workload.setup(SEED, inputs)
            for side in sides:
                plans[side] += [(f"{name}/{leg.name}", leg.argv)
                                for leg in workload.legs(SEED, inputs, Path(tmp) / side / name)]

        for side, plan in plans.items():
            for name, argv in plan:
                probe = run_child(["-c", NUMPY_PROBE, *argv], sides[side]).stdout.split()[-1]
                commands.setdefault(name, {})[side] = {"numpy_loaded": probe == "True",
                                                       "wall_s": [], "peak_rss_mb": []}
        for round_ in range(STARTUP_ROUNDS):
            for side in list(sides)[::1 if round_ % 2 == 0 else -1]:
                for name, argv in plans[side]:
                    child = run_child(["-m", "swingbench.cli", *argv], sides[side])
                    commands[name][side]["wall_s"].append(child.wall_s)
                    commands[name][side]["peak_rss_mb"].append(child.peak_rss_mb)
    for name, by_side in commands.items():
        for side, entry in by_side.items():
            entry["median_wall_s"] = statistics.median(entry["wall_s"])
            entry["median_peak_rss_mb"] = statistics.median(entry["peak_rss_mb"])
        print(f"startup, {name}: " + ", ".join(
            f"{side} {entry['median_wall_s'] * 1e3:.0f} ms {entry['median_peak_rss_mb']:.1f} MB"
            f"{' (numpy)' if entry['numpy_loaded'] else ''}" for side, entry in by_side.items()),
            file=sys.stderr)
    return {
        "inputs": "perfbench workload inputs, seed = SEED",
        "command": "python -m swingbench.cli, a new process per run",
        "rounds": STARTUP_ROUNDS,
        "sides": "change: this checkout's src; parent: --parent-src",
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "commands": commands,
    }


def assemble(args) -> dict:
    def records(path: Path) -> list[dict]:
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()
                if line.strip()]

    def load(path: Path | None) -> dict | None:
        return None if path is None else json.loads(path.read_text(encoding="utf-8"))

    spec = load(ROOT / "BENCHMARK.json")
    fixed, parent_fixed, yard = load(args.fixed_n), load(args.parent_fixed_n), load(args.yardstick)
    sides = {}
    for key in ("line_protocol", "ingest", "ngram", "oracle"):
        sides[key] = {"change": fixed.pop(key)}
        if parent_fixed and key in parent_fixed:
            sides[key]["parent"] = parent_fixed[key]
    if args.startup:
        sides["startup"] = load(args.startup)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": {"cpus": os.cpu_count(), "python": sys.version.split()[0],
                    "numpy": np.__version__, "blas": blas["name"],
                    "blas_version": blas["version"],
                    **{var: os.environ.get(var, "unset")
                       for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}},
        "perfbench": {
            "command": "python3 perfbench/run.py --workload W --seed S --seconds 30 --trace T",
            "compare": compare.compare(compare.load_runs(args.parent),
                                       compare.load_runs(args.change), spec),
            "parent": records(args.parent),
            "change": records(args.change),
        },
        "scape_fixed_n": fixed,
        "yardstick": yard,
        **sides,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("fixed-n", "yardstick", "startup"):
        sub.add_parser(name).add_argument("--out", type=Path, required=True)
    sub.choices["startup"].add_argument("--parent-src", type=Path)
    p = sub.add_parser("assemble")
    for name in ("--parent", "--change", "--fixed-n", "--yardstick", "--out"):
        p.add_argument(name, type=Path, required=True)
    p.add_argument("--parent-fixed-n", type=Path)
    p.add_argument("--startup", type=Path)
    args = parser.parse_args(argv)

    if args.command == "fixed-n":
        result = fixed_n()
    elif args.command == "yardstick":
        result = yardstick()
    elif args.command == "startup":
        result = startup(args.parent_src)
    else:
        result = assemble(args)
    args.out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
