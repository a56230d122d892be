"""Command-line interface: tokenize, detokenize, report, scape, challenge,
train-model, generate.

The ``*.tokens``, ``summary.tsv``, ``report.tsv`` and ``challenge.tsv``
files start with a provenance header, and MIDI files carry it as a text
meta event: every setting that applies to the run and a SHA-256 of each
input file.  ``vocab.tsv``, model files, ``*.scape.txt`` and
``.pgm`` images carry none.  Identical configuration and inputs yield
byte-identical outputs; all randomness flows from the single --seed flag.

The commands import ``challenge``, ``structure`` and numpy only when they
run them, so ``tokenize`` and ``detokenize`` start without numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import math
import shlex
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import metrics
from .corpus import Solo, load_corpus
from .midi import CHORD_REGISTER, write_midi
from .tokenizer import (
    DEFAULT_VOCABULARY as VOCAB,
    DecodedTimeline,
    EventToken,
    TokenGrammarError,
    decode_tokens,
    encode_solo,
    read_tokens,
    write_tokens,
)

if TYPE_CHECKING:
    from .challenge import NGramModel
    from .structure import ChromaSequence


class CliError(RuntimeError):
    pass


DEFAULT_ORDER = 5
DEFAULT_ALPHA = 0.01


# --- provenance -------------------------------------------------------------


def _hash_file(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _one_line(text: str, what: str) -> str:
    """``text``, or a CliError naming ``what`` if it holds any line break str.splitlines knows."""
    if text and text.splitlines() != [text]:
        raise CliError(f"{what} must not contain a line break")
    return text


def provenance_header(config: dict, inputs: Sequence[Path]) -> list[str]:
    """The run's header lines, refused if a value or name splits one: build it before --out."""
    lines = ["# swingbench run", *(f"# cfg {key}={config[key]}" for key in sorted(config)),
             *(f"# input {path.name} sha256={_hash_file(path)}" for path in sorted(inputs))]
    return [_one_line(line, f"header line {line!r}") for line in lines]


def _write_text(path: Path, header: Sequence[str], lines: Iterable[str]) -> None:
    """Write the provenance header, then ``lines``, one per line."""
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(map("{}\n".format, chain(header, lines)))


def _fmt(value: float | None, decimals: int) -> str:
    return "NA" if value is None else f"{value:.{decimals}f}"


# --- piece loading ------------------------------------------------------------


def _token_files(token_dir: Path) -> list[Path]:
    files = sorted(token_dir.glob("*.tokens"))
    if not files:
        raise CliError(f"no .tokens files under {token_dir}")
    for file in files:
        if file.stem.splitlines() != [file.stem] or "\t" in file.stem:
            raise CliError(f"token file {str(file)!r}: its name must be one line, without a tab")
    return files


def _decode_file(path: Path) -> tuple[list[EventToken], DecodedTimeline]:
    """A .tokens file's tokens and decoded timeline: the CLI's one reader of
    token files, so every command names a file that breaks the grammar."""
    tokens = read_tokens(path)
    try:
        return tokens, decode_tokens(tokens)
    except TokenGrammarError as exc:
        raise CliError(f"{path}: {exc}") from None


def _load_sources(args) -> tuple[dict[str, Solo | DecodedTimeline], list[Path]]:
    """Every solo of ``--corpus``, or decoded file of ``--tokens-dir``, by
    piece id, and the input files; a bad source fails here, whichever
    piece is wanted."""
    if args.corpus:
        path = Path(args.corpus)
        return {solo.id: solo for solo in load_corpus(path)}, [path]
    files = _token_files(Path(args.tokens_dir))
    return {file.stem: _decode_file(file)[1] for file in files}, files


def _chroma(piece_id: str, source: Solo | DecodedTimeline) -> ChromaSequence:
    """The piece's chroma; an error in rendering it names the piece."""
    from . import structure

    try:
        if isinstance(source, Solo):
            return structure.chroma_from_solo(source)
        return structure.chroma_from_timeline(source)
    except (ValueError, MemoryError) as exc:
        raise CliError(f"piece {piece_id!r}: {exc}") from None


def _token_sequences(args) -> tuple[list[list[int]], list[Path]]:
    """Token-id sequences for model training / the challenge, and the input files."""
    if args.corpus:
        path = Path(args.corpus)
        return [VOCAB.tokens_to_ids(encode_solo(solo, include_structure=not args.no_structure))
                for solo in load_corpus(path)], [path]
    if args.no_structure:
        raise CliError("--no-structure applies when encoding a --corpus; "
                       "it cannot be used with --tokens-dir")
    files = _token_files(Path(args.tokens_dir))
    return [VOCAB.tokens_to_ids(_decode_file(file)[0]) for file in files], files


# --- commands ------------------------------------------------------------------


def cmd_tokenize(args) -> int:
    out_dir = Path(args.out)
    corpus_path = Path(args.corpus)
    solos = load_corpus(corpus_path)
    # every solo is encoded before --out is made, so a failure leaves nothing
    encoded = [encode_solo(solo, include_structure=not args.no_structure) for solo in solos]
    config = {
        "command": "tokenize",
        "no_structure": args.no_structure,
        "corpus": corpus_path.name,
    }
    header = provenance_header(config, [corpus_path])

    out_dir.mkdir(parents=True, exist_ok=True)
    summary_rows = []
    for solo, tokens in zip(solos, encoded):
        write_tokens(tokens, out_dir / f"{solo.id}.tokens", header)
        summary_rows.append((solo.id, len(solo.notes), len(solo.beats), len(tokens)))

    VOCAB.save(out_dir / "vocab.tsv")
    total_events = sum(r[3] for r in summary_rows)
    _write_text(out_dir / "summary.tsv", header, [
        "solo_id\tnotes\tbeats\tevents",
        *("\t".join(map(str, row)) for row in summary_rows),
        f"TOTAL\t{sum(r[1] for r in summary_rows)}\t"
        f"{sum(r[2] for r in summary_rows)}\t{total_events}",
        f"# solos={len(solos)} mean_events_per_solo={total_events / len(solos):.1f}",
    ])
    print(f"tokenized {len(solos)} solos -> {out_dir}")
    return 0


def cmd_detokenize(args) -> int:
    out_dir = Path(args.out)
    config = {"command": "detokenize", "chord_register": CHORD_REGISTER}
    files = [Path(p) for p in args.tokens]
    by_stem: dict[str, Path] = {}
    for file in files:  # a stem names the output file, so two would overwrite one
        if file.stem in by_stem:
            raise CliError(f"{by_stem[file.stem]} and {file} would both write {file.stem}.mid")
        by_stem[file.stem] = file
    # every file is decoded before --out is made, so a failure leaves nothing
    timelines = [_decode_file(file)[1] for file in files]
    metas = ["; ".join(provenance_header(config, [file])) for file in files]
    out_dir.mkdir(parents=True, exist_ok=True)
    for file, timeline, meta in zip(files, timelines, metas):
        target = out_dir / (file.stem + ".mid")
        write_midi(timeline, target, meta_text=meta)
        print(f"wrote {target}")
    return 0


def cmd_report(args) -> int:
    import numpy as np

    from . import structure

    bands = structure.DEFAULT_SI_BANDS
    out_dir = Path(args.out)
    sources, input_files = _load_sources(args)
    # chroma alone can fail on loaded input (a span past memory): render it before --out
    chromas = [_chroma(piece_id, source) for piece_id, source in sources.items()]
    config = {
        "command": "report",
        "bands": ",".join(f"{lo}:{hi or ''}" for lo, hi in bands),
        "tau": structure.DEFAULT_SSM_THRESHOLD,
        "delta": structure.DEFAULT_SSM_PENALTY,
        "frame_rate": 1.0,
        "chord_collapse": True,
        "entropy_windows": "1,4",
        "scape_images": args.scape_images,
        "source": Path(args.corpus or args.tokens_dir).name,
    }
    header = provenance_header(config, input_files)
    out_dir.mkdir(parents=True, exist_ok=True)

    rows = []
    for (piece_id, source), chroma in zip(sources.items(), chromas):
        bars = (metrics.bars_from_solo(source) if isinstance(source, Solo)
                else metrics.bars_from_timeline(source))
        row = metrics.metric_row(bars, metrics.chord_changes(source.chord_intervals()))
        plot = structure.scape_plot_for_chroma(chroma)
        values = [row.entropy_1bar, row.entropy_4bar, row.grooving, row.chord_irregularity,
                  *structure.band_indicators(plot)]
        rows.append((piece_id, values))
        if args.scape_images:
            structure.write_scape_pgm(plot, out_dir / f"{piece_id}.pgm")

    def column_mean(values: Iterable[float | None]) -> float | None:
        defined = [v for v in values if v is not None]
        return float(np.mean(defined)) if defined else None

    decimals = [4, 4, 4, 2] + [4] * len(bands)  # CPI is a percentage

    def line(label: str, values: Iterable[float | None]) -> str:
        return "\t".join([label, *map(_fmt, values, decimals)])

    lines = [
        "\t".join(["piece_id", "H1", "H4", "GS", "CPI",
                   *(f"SI_{lo}_{hi}" if hi else f"SI_{lo}" for lo, hi in bands)]),
        *(line(piece_id, values) for piece_id, values in rows),
        line("MEAN", [column_mean(column) for column in zip(*(v for _, v in rows))]),
    ]
    report_path = out_dir / "report.tsv"
    _write_text(report_path, header, lines)
    print(f"wrote {report_path} ({len(rows)} pieces)")
    return 0


def cmd_scape(args) -> int:
    from . import structure

    out_dir = Path(args.out)
    sources, _ = _load_sources(args)
    if args.piece not in sources:
        raise CliError(f"piece {args.piece!r} not found; have {sorted(sources)}")
    plot = structure.scape_plot_for_chroma(_chroma(args.piece, sources[args.piece]))
    out_dir.mkdir(parents=True, exist_ok=True)
    structure.write_scape_text(plot, out_dir / f"{args.piece}.scape.txt")
    structure.write_scape_pgm(plot, out_dir / f"{args.piece}.pgm")
    print(f"wrote scape plot for {args.piece} ({plot.shape[0]} frames)")
    return 0


def _load_ngram(path: str) -> NGramModel:
    from .challenge import NGramModel

    model = NGramModel.load(path)
    if model.vocab_size != VOCAB.size:
        raise CliError(
            f"model vocabulary ({model.vocab_size}) does not match this build ({VOCAB.size})"
        )
    return model


def _external_command(text: str | None) -> list[str]:
    """``--external-cmd`` split as a POSIX shell would, refused when it is
    missing, names no command or holds a line break."""
    try:
        command = shlex.split(_one_line(text or "", "--external-cmd"))
    except ValueError as exc:  # an unclosed quotation or a trailing backslash
        raise CliError(f"--external-cmd {text!r} cannot be split into words: {exc}") from None
    if not command:
        raise CliError("--external-cmd with a command is required with --model external")
    return command


def _build_model(args, sequences: list[list[int]], command: list[str] | None):
    from . import challenge as chal

    if args.model == "uniform":
        return chal.UniformModel(VOCAB.size)
    if args.model == "oracle":
        return chal.CorpusOracleModel(sequences, VOCAB.size)
    if args.model == "external":
        try:
            return chal.SubprocessModel(command, VOCAB.size)
        except OSError as exc:
            raise CliError(f"--external-cmd {args.external_cmd!r}: cannot start "
                           f"{command[0]!r}: {exc.strerror or exc}") from None
    if args.model_file:
        return _load_ngram(args.model_file)
    order = DEFAULT_ORDER if args.order is None else args.order
    alpha = DEFAULT_ALPHA if args.alpha is None else args.alpha
    return chal.train_ngram(sequences, order=order, vocab_size=VOCAB.size, alpha=alpha)


def cmd_challenge(args) -> int:
    from . import challenge as chal

    if args.model_file and args.model != "ngram":
        raise CliError(
            f"--model-file holds an n-gram model; it cannot be used with --model {args.model}"
        )
    if args.external_cmd is not None and args.model != "external":
        raise CliError(
            f"--external-cmd starts an external model; it cannot be used with --model {args.model}"
        )
    ngram_flags = [flag for flag, value in (("--order", args.order), ("--alpha", args.alpha))
                   if value is not None]
    if ngram_flags and args.model != "ngram":
        raise CliError(f"{' and '.join(ngram_flags)} cannot be used with --model {args.model}, "
                       "which trains no n-gram model")
    if ngram_flags and args.model_file:
        raise CliError(f"{' and '.join(ngram_flags)} cannot be used with --model-file, "
                       "whose model keeps its own settings")
    command = _external_command(args.external_cmd) if args.model == "external" else None
    sequences, input_files = _token_sequences(args)
    questions = chal.build_questions(
        sequences, count=args.count, seed=args.seed, bar_token_id=VOCAB.bar_token_id
    )
    model = _build_model(args, sequences, command)
    config = {
        "command": "challenge",
        "model": args.model,
        "count": args.count,
        "seed": args.seed,
        "no_structure": args.no_structure,
        "source": Path(args.corpus or args.tokens_dir).name,
    }
    if args.model == "ngram":
        # a model file's own settings, not the flags it overrides
        config["order"] = model.order
        config["alpha"] = model.alpha
    elif args.model == "external":
        config["external_cmd"] = args.external_cmd
    if args.model_file:
        input_files = [*input_files, Path(args.model_file)]
    out_dir = Path(args.out)
    with model if isinstance(model, chal.SubprocessModel) else contextlib.nullcontext():
        header = provenance_header(config, input_files)
        out_dir.mkdir(parents=True, exist_ok=True)
        result = chal.run_challenge(model, questions)

    lines = ["question\tP0\tP1\tP2\tP3\tchosen\ttrue\tcorrect"]
    for row in result.rows:
        scores = "\t".join(f"{p:.6f}" for p in row["scores"])
        lines.append(
            f"{row['question']}\t{scores}\t{row['chosen']}\t{row['true']}\t{int(row['correct'])}"
        )
    lines.append(f"# accuracy {result.accuracy:.4f}")
    path = out_dir / "challenge.tsv"
    _write_text(path, header, lines)
    print(f"accuracy {result.accuracy:.4f} over {len(questions)} questions -> {path}")
    return 0


def cmd_train_model(args) -> int:
    from .challenge import train_ngram

    sequences, _ = _token_sequences(args)
    model = train_ngram(
        sequences, order=args.order, vocab_size=VOCAB.size, alpha=args.alpha
    )
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    model.save(out)
    print(f"trained order-{args.order} model on {len(sequences)} pieces -> {out}")
    return 0


def cmd_generate(args) -> int:
    from .challenge import generate_tokens

    out_dir = Path(args.out)
    model = _load_ngram(args.model_file)
    config = {
        "command": "generate",
        "model_file": Path(args.model_file).name,
        "bars": args.bars,
        "count": args.count,
        "max_tokens": args.max_tokens,
        "temperature": args.temperature,
        "seed": args.seed,
    }
    header = provenance_header(config, [Path(args.model_file)])
    bars = 0
    for i in range(args.count):
        ids = generate_tokens(model, [VOCAB.bar_token_id], target_bars=args.bars,
                              temperature=args.temperature, seed=args.seed + i,
                              max_tokens=args.max_tokens)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_tokens(VOCAB.ids_to_tokens(ids), out_dir / f"gen-{i:03d}.tokens", header)
        bars += ids.count(VOCAB.bar_token_id)
    print(f"generated {args.count} pieces, {bars} bars in all -> {out_dir}")
    return 0


# --- parser --------------------------------------------------------------------


def _int_at_least(lowest: int, at_most: Callable[[], int] | None = None) -> Callable[[str], int]:
    """An int of at least ``lowest`` and, if given, at most ``at_most()``,
    which is asked only when the flag is given."""
    def integer(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if at_most is not None and value > (bound := at_most()):
            raise argparse.ArgumentTypeError(f"must be at most {bound}, got {value}")
        return value
    return integer


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _max_order() -> int:
    from .challenge import MAX_ORDER

    return MAX_ORDER


_ORDER = _int_at_least(1, at_most=_max_order)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--corpus", help="JSONL corpus file")
    group.add_argument("--tokens-dir", help="directory of .tokens files")


def _add_no_structure_arg(p: argparse.ArgumentParser) -> None:
    """Only for the commands that encode a corpus into tokens themselves."""
    p.add_argument("--no-structure", action="store_true",
                   help="drop Phrase/MLU/Part/Rep events when encoding from a corpus")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swingbench",
        description="Lead-sheet event codec and objective evaluation battery.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenize", help="encode a corpus into token files")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    _add_no_structure_arg(p)
    p.set_defaults(fn=cmd_tokenize)

    p = sub.add_parser("detokenize", help="decode token files into MIDI")
    p.add_argument("--tokens", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_detokenize)

    p = sub.add_parser("report", help="full metric table per piece")
    _add_source_args(p)
    p.add_argument("--out", required=True)
    p.add_argument("--scape-images", action="store_true")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("scape", help="scape plot of one piece")
    _add_source_args(p)
    p.add_argument("--piece", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_scape)

    p = sub.add_parser("challenge", help="continuation prediction challenge")
    _add_source_args(p)
    _add_no_structure_arg(p)
    p.add_argument("--out", required=True)
    p.add_argument("--model", choices=("ngram", "uniform", "oracle", "external"),
                   default="ngram")
    p.add_argument("--model-file", help="pretrained n-gram model JSON")
    p.add_argument("--external-cmd", help="command for the line-protocol model")
    p.add_argument("--order", type=_ORDER,
                   help="n-gram order from 1 to challenge.MAX_ORDER, --model ngram only "
                        f"(default {DEFAULT_ORDER})")
    p.add_argument("--alpha", type=_positive_float,
                   help=f"add-alpha smoothing, --model ngram only (default {DEFAULT_ALPHA})")
    p.add_argument("--count", type=_int_at_least(1), default=100)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.set_defaults(fn=cmd_challenge)

    p = sub.add_parser("train-model", help="train the n-gram baseline")
    _add_source_args(p)
    _add_no_structure_arg(p)
    p.add_argument("--out", required=True)
    p.add_argument("--order", type=_ORDER, default=DEFAULT_ORDER,
                   help="n-gram order from 1 to challenge.MAX_ORDER (default %(default)s)")
    p.add_argument("--alpha", type=_positive_float, default=DEFAULT_ALPHA,
                   help="add-alpha smoothing (default %(default)s)")
    p.set_defaults(fn=cmd_train_model)

    p = sub.add_parser("generate", help="sample token sequences from a model")
    p.add_argument("--model-file", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bars", type=_int_at_least(1), default=32)
    p.add_argument("--count", type=_int_at_least(1), default=1)
    p.add_argument("--temperature", type=_positive_float, default=1.0)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--max-tokens", type=_int_at_least(1), default=20000)
    p.set_defaults(fn=cmd_generate)

    return parser


def _reported_errors() -> tuple[type[BaseException], ...]:
    """The errors ``main`` reports in one line; challenge's two are among
    them once a command has loaded that module."""
    chal = sys.modules.get(f"{__package__}.challenge")
    extra = (chal.GenerationError, chal.ModelProtocolError) if chal else ()
    return (CliError, ValueError, OSError, MemoryError, *extra)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _reported_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
