"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from conftest import random_ssm
from oracles import fitness_oracle
from swingbench import challenge as chal
from swingbench import metrics, structure
from swingbench.chords import CHORD_QUALITIES, PITCH_CLASS_NAMES, parse_chord
from swingbench.cli import main as cli_main
from swingbench.corpus import save_corpus
from swingbench.synthetic import (
    motif_corpus,
    random_corpus,
    random_token_piece,
    sectional_corpus,
)
from swingbench.tokenizer import (
    DEFAULT_VOCABULARY as VOCAB,
)
from swingbench.tokenizer import (
    beat_for_onset,
    decode_tokens,
    derive_tempo_events,
    encode_solo,
    justify_position,
    note_grid_position,
    quantize_duration,
    quantize_velocity,
    velocity_to_midi,
)


def check(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {criterion}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{criterion}: {detail}"


def test_criterion_1_formula_exactness():
    t0 = time.perf_counter()
    ok = True
    ok &= quantize_velocity(65.0) == 20
    ok &= quantize_velocity(30.0) == 1
    ok &= quantize_velocity(90.0) == 32
    ok &= velocity_to_midi(1) == 3
    ok &= velocity_to_midi(32) == 127
    ok &= velocity_to_midi(20) == 79
    ok &= quantize_duration(0.5, 0.5) == 16
    ok &= quantize_duration(1.5, 0.5) == 32
    ok &= quantize_duration(0.5 / 40.0, 0.5) is None
    ok &= justify_position(0, 0.0, 0.5, 0.0) == 0
    ok &= justify_position(16, 1.0, 0.5, 1.25) == 24
    ok &= justify_position(48, 3.0, 0.6, 3.33) == 57
    ok &= derive_tempo_events(0.5) == (3, 28)
    ok &= derive_tempo_events(60.0 / 50.0) == (1, 0)
    ok &= derive_tempo_events(60.0 / 49.0) == (1, 0)
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 1.0
    check("1 formula exactness", bool(ok), f"{elapsed * 1000:.1f} ms")


def test_criterion_2_codec_round_trip():
    corpus = random_corpus(seed=202, size=50, n_bars=16, sub64_fraction=0.05)
    mismatches = 0
    drops = 0
    notes_total = 0
    for solo in corpus:
        onsets = [b.onset_sec for b in solo.beats]
        first_bar = solo.beats[0].bar_index
        expected = []
        for note in solo.notes:
            beat = beat_for_onset(solo.beats, onsets, note.onset_sec)
            units = quantize_duration(note.duration_sec, beat.duration_sec)
            notes_total += 1
            if units is None:
                drops += 1
                continue
            expected.append(
                (
                    beat.bar_index - first_bar,
                    note_grid_position(note, solo.beats, onsets),
                    units,
                    quantize_velocity(note.loudness_db),
                    note.pitch,
                )
            )
        decoded = decode_tokens(encode_solo(solo))
        got = sorted(
            (n.bar, n.position, n.duration_units, n.velocity_bin, n.pitch)
            for n in decoded.notes
        )
        if got != sorted(expected):
            mismatches += 1
    check(
        "2 codec round-trip on 50 solos",
        mismatches == 0 and drops > 0,
        f"{notes_total} notes, {drops} sub-64th drops, {mismatches} mismatching solos",
    )


def test_criterion_3_chord_coverage():
    rng = np.random.default_rng(303)
    roots = list(PITCH_CLASS_NAMES) + ["Db", "Eb", "Gb", "Ab", "Bb"]
    qualities = [q.symbol for q in CHORD_QUALITIES]
    fuzz = []
    while len(fuzz) < 200:
        symbol = str(rng.choice(roots)) + str(rng.choice(qualities))
        if rng.random() < 0.5:
            symbol += "/" + str(rng.choice(roots))
        fuzz.append(symbol)
    failures = []
    for symbol in fuzz:
        try:
            parse_chord(symbol)
        except Exception as exc:  # noqa: BLE001 - collecting all failures
            failures.append(f"{symbol}: {exc}")
    ok = not failures and VOCAB.chord_token_count == 71
    check(
        "3 chord coverage (200-symbol fuzz, 71 chord tokens)",
        ok,
        f"{len(failures)} parse failures, chord vocab {VOCAB.chord_token_count}",
    )


def test_criterion_4_metric_identities():
    uniform_entropy = metrics.histogram_entropy(np.full(12, 1.0 / 12.0))
    entropy_ok = abs(uniform_entropy - math.log2(12)) <= 1e-9

    ga = np.zeros(64, dtype=np.uint8)
    gb = ga.copy()
    gb[:16] = 1
    gs = metrics.grooving_similarity(ga, gb)
    gs_ok = gs == 0.75

    cpi_a = metrics.chord_progression_irregularity(["C7", "F7", "C7", "C7", "F7", "C7"])
    cpi_b = metrics.chord_progression_irregularity(["X"] * 5)
    cpi_ok = cpi_a == 75.0 and abs(cpi_b - 33.33) <= 0.01

    check(
        "4 metric identities",
        entropy_ok and gs_ok and cpi_ok,
        f"H={uniform_entropy:.10f} GS={gs} CPI={cpi_a}/{cpi_b:.2f}",
    )


def test_criterion_5_scape_oracle_and_runtime():
    rng = np.random.default_rng(505)
    worst = 0.0
    ssms = 0
    segments = 0
    while ssms < 110:
        n = int(rng.integers(2, 11))
        m = random_ssm(rng, n)
        ssms += 1
        pairs = {(0, n - 1)}
        for _ in range(4):
            s = int(rng.integers(0, n))
            pairs.add((s, int(rng.integers(s, n))))
        for s, e in sorted(pairs):
            diff = abs(structure.segment_fitness(m, s, e) - fitness_oracle(m, s, e))
            worst = max(worst, diff)
            segments += 1
    agree = worst <= 1e-6

    big = random_ssm(np.random.default_rng(506), 200)
    big[big < 0.2] = -2.0
    t0 = time.perf_counter()
    plot = structure.scape_plot(big)
    elapsed = time.perf_counter() - t0
    fast = elapsed < 60.0

    check(
        "5 path-family oracle agreement + N=200 runtime",
        agree and fast and plot.shape == (200, 200),
        f"{ssms} SSMs/{segments} segments, worst diff {worst:.2e}, N=200 in {elapsed:.1f}s",
    )


def test_criterion_6_structureness_discrimination():
    structured = sectional_corpus(6, forms=("AABA", "ABAB", "AABB"), repetitions=2)
    si_structured = [
        structure.structureness_indicator(structure.scape_plot_for_chroma(structure.chroma_from_solo(s)), 8, 15)
        for s in structured
    ]
    rng = np.random.default_rng(606)
    si_random = []
    for _ in range(6):
        timeline = decode_tokens(random_token_piece(rng, n_bars=32))
        si_random.append(
            structure.structureness_indicator(
                structure.scape_plot_for_chroma(structure.chroma_from_timeline(timeline)), 8, 15
            )
        )
    gap = float(np.mean(si_structured) - np.mean(si_random))
    check(
        "6 structureness discrimination (mean SI_8_15 gap >= 0.3)",
        gap >= 0.3,
        f"structured {np.mean(si_structured):.3f} vs random {np.mean(si_random):.3f}, gap {gap:.3f}",
    )


@pytest.fixture(scope="module")
def motif_sequences():
    return [VOCAB.tokens_to_ids(encode_solo(s)) for s in motif_corpus(10, n_bars=20)]


def test_criterion_7_challenge_calibration(motif_sequences):
    questions_100 = chal.build_questions(
        motif_sequences, count=100, seed=707, bar_token_id=VOCAB.bar_token_id
    )
    oracle_acc = chal.run_challenge(
        chal.CorpusOracleModel(motif_sequences, VOCAB.size), questions_100
    ).accuracy

    questions_1000 = chal.build_questions(
        motif_sequences, count=1000, seed=708, bar_token_id=VOCAB.bar_token_id
    )
    uniform_acc = chal.run_challenge(chal.UniformModel(VOCAB.size), questions_1000).accuracy
    half_width = 1.96 * math.sqrt(0.25 * 0.75 / 1000)
    uniform_ok = abs(uniform_acc - 0.25) <= half_width

    ngram = chal.train_ngram(motif_sequences, order=5, vocab_size=VOCAB.size)
    ngram_acc = chal.run_challenge(ngram, questions_100).accuracy

    check(
        "7 challenge calibration",
        oracle_acc == 1.0 and uniform_ok and ngram_acc >= 0.6 and ngram_acc > uniform_acc,
        f"oracle {oracle_acc}, uniform {uniform_acc:.3f} (CI half-width {half_width:.4f}), "
        f"ngram5 {ngram_acc:.2f}",
    )


def test_criterion_8_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(motif_corpus(6, n_bars=18), corpus_path)

    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        code = cli_main(
            ["report", "--corpus", str(corpus_path), "--out", str(out), "--scape-images"]
        )
        assert code == 0
        outs.append(out)
    report_same = all(
        (outs[0] / f.name).read_bytes() == f.read_bytes()
        for f in sorted(outs[1].iterdir())
    )

    chal_outs = []
    for name in ("c1", "c2"):
        out = tmp_path / name
        code = cli_main(
            [
                "challenge", "--corpus", str(corpus_path), "--out", str(out),
                "--model", "ngram", "--order", "3", "--count", "20", "--seed", "9",
            ]
        )
        assert code == 0
        chal_outs.append(out / "challenge.tsv")
    challenge_same = chal_outs[0].read_bytes() == chal_outs[1].read_bytes()

    check(
        "8 byte-identical reruns of report and challenge",
        report_same and challenge_same,
        f"report {report_same}, challenge {challenge_same}",
    )


def test_criterion_9_pipeline_completeness(tmp_path):
    corpus_path = tmp_path / "corpus.jsonl"
    save_corpus(random_corpus(seed=909, size=3, n_bars=18), corpus_path)
    out = tmp_path / "report"
    assert cli_main(["report", "--corpus", str(corpus_path), "--out", str(out)]) == 0
    lines = (out / "report.tsv").read_text().splitlines()
    header = next(l for l in lines if l.startswith("piece_id"))
    columns = header.split("\t")
    wanted = ["H1", "H4", "GS", "CPI", "SI_3_8", "SI_8_15", "SI_15"]
    rows = [l.split("\t") for l in lines if not l.startswith(("#", "piece_id"))]
    cells_filled = all(len(r) == len(columns) and all(r) for r in rows)
    check(
        "9 report emits all seven statistics",
        columns == ["piece_id", *wanted] and len(rows) == 4 and cells_filled,
        f"columns {columns[1:]}, {len(rows)} rows",
    )
