"""Per-layer metrics of a traced run, named ``<module>.<function>.<measure>``.

Each is reported on every workload; a layer that does no work on a
workload reads 0.  ``perfbench/baseline.json`` maps each one to the
end-to-end metric it should move.
"""

from __future__ import annotations

import statistics

# Every CLI command the workloads run, as named in the results.
LEGS = (
    "report_corpus", "report_tokens",
    "challenge_ngram", "challenge_oracle", "challenge_external",
    "tokenize", "train", "generate", "detokenize",
)

_SECONDS = (
    "structure.scape_plot", "structure.compute_ssm",
    "structure.chroma_from_solo", "structure.chroma_from_timeline",
    "metrics.metric_row", "metrics.bars_from_solo", "metrics.bars_from_timeline",
    "corpus.load_corpus", "tokenizer.encode_solo",
    "tokenizer.read_tokens", "tokenizer.decode_tokens", "tokenizer.repair_token_stream",
    "challenge.NGramModel.next_token_distribution",
    "challenge.LineProtocolModel.next_token_distribution",
    "challenge.train_ngram", "challenge.NGramModel.save", "challenge.NGramModel.load",
    "challenge.generate_tokens", "challenge.build_questions", "challenge.run_challenge",
    "midi.write_midi", "cli.provenance_header",
)

# (metric, unit, better)
PER_LAYER: list[tuple[str, str, str]] = [
    *((f"{name}.s", "s", "lower") for name in _SECONDS),
    ("structure.scape_plot.calls", "count", "lower"),
    ("structure.scape_plot.frames", "count", "higher"),
    ("corpus.load_corpus.solos", "count", "higher"),
    ("tokenizer.encode_solo.tokens", "count", "higher"),
    ("tokenizer.repair_token_stream.dropped", "count", "lower"),
    ("tokenizer.repair_token_stream.kept_ratio", "ratio", "higher"),
    ("challenge.NGramModel.next_token_distribution.calls", "count", "lower"),
    ("challenge.NGramModel.next_token_distribution.us_per_call", "us", "lower"),
    ("challenge.checked_distribution.self_s", "s", "lower"),
    ("challenge.CorpusOracleModel.build_s", "s", "lower"),
    ("challenge.CorpusOracleModel.alloc_mb", "MB", "lower"),
    ("challenge.LineProtocolModel.next_token_distribution.calls", "count", "lower"),
    ("challenge.LineProtocolModel.next_token_distribution.bytes_out", "bytes", "lower"),
    ("challenge.NGramModel.save.bytes", "bytes", "lower"),
    ("challenge.generate_tokens.tokens", "count", "higher"),
    ("midi.write_midi.bytes", "bytes", "lower"),
    ("cli.import.s", "s", "lower"),
    *((f"cli.{leg}.{m}", u, "lower") for leg in LEGS for m, u in
      (("wall_s", "s"), ("cpu_s", "s"), ("rss_mb", "MB"))),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]
PER_LAYER_UNITS = [(name, unit) for name, unit, _ in PER_LAYER]


def layer_metrics(tracer, untraced: dict, overhead_s: float, alloc_mb: float) -> dict[str, float]:
    """Per-layer metrics from a traced pass and the untraced child pass beside it.

    ``untraced`` maps command names to results carrying ``wall_s``,
    ``cpu_s``, ``rss_mb``, ``import_s`` and ``main_s``.
    """
    totals = tracer.totals()
    counts = tracer.counts

    def seconds(name: str) -> float:
        return totals[name]["s"] if name in totals else 0.0

    out = {f"{name}.s": seconds(name) for name in _SECONDS}
    # every count and byte metric is a counter the tracer kept under its name
    out.update(
        {name: counts.get(name, 0) for name, unit, _ in PER_LAYER if unit in ("count", "bytes")}
    )

    kept = counts.get("tokenizer.repair_token_stream.kept", 0)
    dropped = counts.get("tokenizer.repair_token_stream.dropped", 0)
    repaired = kept + dropped
    out["tokenizer.repair_token_stream.kept_ratio"] = kept / repaired if repaired else 0.0
    ngram = "challenge.NGramModel.next_token_distribution"
    calls = counts.get(f"{ngram}.calls", 0)
    out[f"{ngram}.us_per_call"] = seconds(ngram) / calls * 1e6 if calls else 0.0
    checked = totals.get("challenge.checked_distribution")
    out["challenge.checked_distribution.self_s"] = checked["self_s"] if checked else 0.0
    out["challenge.CorpusOracleModel.build_s"] = seconds("challenge.CorpusOracleModel.__init__")
    out["challenge.CorpusOracleModel.alloc_mb"] = alloc_mb

    imports = [c.import_s for c in untraced.values() if c.import_s is not None]
    out["cli.import.s"] = statistics.median(imports) if imports else 0.0
    for leg in LEGS:
        command = untraced.get(leg)
        out[f"cli.{leg}.wall_s"] = command.wall_s if command else 0.0
        out[f"cli.{leg}.cpu_s"] = command.cpu_s if command else 0.0
        out[f"cli.{leg}.rss_mb"] = command.rss_mb if command else 0.0

    untraced_s = sum(c.main_s or 0.0 for c in untraced.values())
    out["trace.overhead_s"] = overhead_s
    out["trace.overhead_pct"] = 100.0 * overhead_s / untraced_s if untraced_s else 0.0
    return out
