"""The benchmark's workloads: seeded inputs, the CLI commands run on them,
and the checks on what those commands write.

Every input is built from the seed with ``swingbench.synthetic`` and
written to files; the CLI only ever sees those files.  Sizes are fixed so
that the amount of work does not depend on the seed, only the content does.
"""

from __future__ import annotations

import shlex
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from swingbench import challenge as chal
from swingbench import structure, synthetic
from swingbench.corpus import load_corpus, save_corpus, transpose_solo
from swingbench.tokenizer import (
    DEFAULT_VOCABULARY as VOCAB,
    decode_tokens,
    encode_solo,
    read_tokens,
    write_tokens,
)

RESPONDER = Path(__file__).resolve().parent / "responder.py"

# report-long: two sectional and two random solos of about 64, 72, 80 and
# 96 frames at 1 Hz (120 bpm, 2 s per bar); the scape DP grows about as N^4.
LONG_PIECES = (("sectional", 4), ("random", 36), ("sectional", 5), ("random", 48))
# challenge-motif: questions per leg; the external leg is protocol-bound.
MOTIF_BARS = 40
NGRAM_QUESTIONS = 20
ORACLE_QUESTIONS = 20
EXTERNAL_QUESTIONS = 5
# codec-generate: corpus size, and generated pieces capped by tokens rather
# than bars, so every piece samples exactly GEN_MAX_TOKENS - 1 tokens.
CODEC_SOLOS = 100
CODEC_BARS = 32
GEN_COUNT = 2
GEN_MAX_TOKENS = 3000


@dataclass
class Leg:
    """One CLI command of a workload; ``out`` holds everything it writes."""

    name: str
    argv: list[str]
    out: Path
    check: Callable[[], list[str]]


@dataclass
class Command:
    """What one run of one CLI command cost and whether its output held."""

    wall_s: float
    code: int
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    import_s: float | None = None
    main_s: float | None = None
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)


class Workload:
    name: str
    work_name: str  # what work_per_s counts, as named in the results

    def setup(self, seed: int, inputs: Path) -> None:
        raise NotImplementedError

    def prepare(self, seed: int, inputs: Path) -> dict:
        """Untimed facts about the inputs that the work count needs."""
        return {}

    def legs(self, seed: int, inputs: Path, out: Path) -> list[Leg]:
        raise NotImplementedError

    def work_per_s(self, info: dict, out: Path, times: dict[str, float]) -> float:
        raise NotImplementedError


class ReportLong(Workload):
    name = "report-long"
    work_name = "frames_per_s"

    def setup(self, seed: int, inputs: Path) -> None:
        rng = np.random.default_rng(seed)
        solos = []
        for i, (kind, size) in enumerate(LONG_PIECES):
            piece_id = f"long-{i}"
            if kind == "sectional":
                form = ("AABA", "ABAB")[int(rng.integers(2))]
                solos.append(synthetic.sectional_solo(piece_id, form=form, section_bars=size))
            else:
                solos.append(
                    synthetic.random_solo(rng, piece_id, n_bars=size, bpm_range=(120.0, 120.0))
                )
        save_corpus(solos, inputs / "long.jsonl")
        token_dir = inputs / "long_tokens"
        token_dir.mkdir(exist_ok=True)
        for solo in solos:
            write_tokens(encode_solo(solo), token_dir / f"{solo.id}.tokens")

    def prepare(self, seed: int, inputs: Path) -> dict:
        solos = load_corpus(inputs / "long.jsonl")
        timelines = [
            decode_tokens(read_tokens(p)) for p in sorted((inputs / "long_tokens").glob("*.tokens"))
        ]
        corpus_frames = [len(structure.chroma_from_solo(s)) for s in solos]
        token_frames = [len(structure.chroma_from_timeline(t)) for t in timelines]
        return {"pieces": len(solos), "frames": corpus_frames + token_frames}

    def legs(self, seed: int, inputs: Path, out: Path) -> list[Leg]:
        pieces = len(LONG_PIECES)
        corpus_out, tokens_out = out / "report_corpus", out / "report_tokens"
        return [
            Leg(
                "report_corpus",
                ["report", "--corpus", str(inputs / "long.jsonl"), "--out", str(corpus_out)],
                corpus_out,
                lambda: checks.check_report(corpus_out / "report.tsv", pieces),
            ),
            Leg(
                "report_tokens",
                ["report", "--tokens-dir", str(inputs / "long_tokens"), "--out", str(tokens_out)],
                tokens_out,
                lambda: checks.check_report(tokens_out / "report.tsv", pieces),
            ),
        ]

    def work_per_s(self, info: dict, out: Path, times: dict[str, float]) -> float:
        return sum(info["frames"]) / (times["report_corpus"] + times["report_tokens"])


class ChallengeMotif(Workload):
    name = "challenge-motif"
    work_name = "steps_per_s"

    def setup(self, seed: int, inputs: Path) -> None:
        shift = int(np.random.default_rng(seed).integers(-3, 4))
        solos = [transpose_solo(s, shift) for s in synthetic.motif_corpus(10, n_bars=MOTIF_BARS)]
        save_corpus(solos, inputs / "motif.jsonl")

    def prepare(self, seed: int, inputs: Path) -> dict:
        # The n-gram leg's questions, drawn exactly as the CLI draws them.
        sequences = [
            VOCAB.tokens_to_ids(encode_solo(s)) for s in load_corpus(inputs / "motif.jsonl")
        ]
        questions = chal.build_questions(
            sequences, count=NGRAM_QUESTIONS, seed=seed, bar_token_id=VOCAB.bar_token_id
        )
        return {"ngram_steps": sum(4 * q.truncation_length for q in questions)}

    def legs(self, seed: int, inputs: Path, out: Path) -> list[Leg]:
        corpus = str(inputs / "motif.jsonl")
        external = f"{shlex.quote(sys.executable)} {shlex.quote(str(RESPONDER))}"

        def leg(model: str, count: int, extra: list[str], **expect) -> Leg:
            leg_out = out / f"challenge_{model}"
            argv = [
                "challenge", "--corpus", corpus, "--out", str(leg_out), "--model", model,
                "--count", str(count), "--seed", str(seed), *extra,
            ]
            return Leg(
                f"challenge_{model}",
                argv,
                leg_out,
                lambda: checks.check_challenge(leg_out / "challenge.tsv", count, **expect),
            )

        # Criterion 7 calibration: the oracle is always right, the order-5
        # n-gram right on at least 60% of motif-corpus questions.
        return [
            leg("ngram", NGRAM_QUESTIONS, ["--order", "5"], min_accuracy=0.6),
            leg("oracle", ORACLE_QUESTIONS, [], exact_accuracy=1.0),
            leg("external", EXTERNAL_QUESTIONS, ["--external-cmd", external]),
        ]

    def work_per_s(self, info: dict, out: Path, times: dict[str, float]) -> float:
        return info["ngram_steps"] / times["challenge_ngram"]


def sampled_tokens(token_file: Path) -> int:
    """Tokens sampled for one generated piece: kept plus dropped, less the primer."""
    kept = dropped = 0
    for line in token_file.read_text(encoding="utf-8").splitlines():
        if line.startswith("# piece ") and "repaired_drops=" in line:
            dropped = int(line.rsplit("=", 1)[1])
        elif line and not line.startswith("#"):
            kept += 1
    return kept + dropped - 1


class CodecGenerate(Workload):
    name = "codec-generate"
    work_name = "gen_tokens_per_s"

    def setup(self, seed: int, inputs: Path) -> None:
        solos = synthetic.random_corpus(seed, CODEC_SOLOS, prefix="codec", n_bars=CODEC_BARS)
        save_corpus(solos, inputs / "codec.jsonl")

    def legs(self, seed: int, inputs: Path, out: Path) -> list[Leg]:
        corpus = str(inputs / "codec.jsonl")
        tok, train, gen, midi = (out / n for n in ("tokenize", "train", "generate", "detokenize"))
        model = train / "model.json"
        generated = [gen / f"gen-{i:03d}.tokens" for i in range(GEN_COUNT)]

        def check_tokenize() -> list[str]:
            files = list(tok.glob("*.tokens"))
            problems = checks.check_nonempty(tok / "summary.tsv")
            if len(files) != CODEC_SOLOS:
                problems.append(f"tokenize wrote {len(files)} token files, expected {CODEC_SOLOS}")
            return problems

        return [
            Leg(
                "tokenize", ["tokenize", "--corpus", corpus, "--out", str(tok)], tok, check_tokenize
            ),
            Leg(
                "train",
                ["train-model", "--corpus", corpus, "--out", str(model), "--order", "5"],
                train,
                lambda: checks.check_nonempty(model),
            ),
            Leg(
                "generate",
                [
                    "generate", "--model-file", str(model), "--out", str(gen),
                    "--bars", "1000", "--count", str(GEN_COUNT),
                    "--max-tokens", str(GEN_MAX_TOKENS), "--seed", str(seed),
                ],
                gen,
                lambda: [p for f in generated for p in checks.check_tokens_decode(f)],
            ),
            Leg(
                "detokenize",
                ["detokenize", "--tokens", *map(str, generated), "--out", str(midi)],
                midi,
                lambda: [p for f in generated for p in checks.check_midi(midi / f"{f.stem}.mid")],
            ),
        ]

    def work_per_s(self, info: dict, out: Path, times: dict[str, float]) -> float:
        tokens = sum(sampled_tokens(f) for f in sorted((out / "generate").glob("*.tokens")))
        return tokens / times["generate"]


def run_pass(
    workload: Workload, seed: int, inputs: Path, out: Path, runner: Callable[[Leg, Path], Command]
) -> dict[str, Command]:
    """Run every command of the workload once, checking and hashing its output."""
    results = {}
    for leg in workload.legs(seed, inputs, out):
        command = runner(leg, out / f"{leg.name}.log")
        if command.code != 0:
            command.problems = [f"{leg.name}: exit code {command.code}"]
        else:
            command.problems = leg.check()
        if leg.out.exists():
            command.digests = checks.digests(leg.out)
        results[leg.name] = command
    return results


def mark_nondeterminism(passes: list[dict[str, Command]]) -> None:
    """A command whose outputs differ from the first pass's has failed."""
    first = passes[0]
    for later in passes[1:]:
        for name, command in later.items():
            if command.digests != first[name].digests and not command.problems:
                command.problems.append(f"{name}: outputs differ from the first pass")


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (ReportLong(), ChallengeMotif(), CodecGenerate())
}
