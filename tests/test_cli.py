from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Sequence

import pytest

import swingbench
from swingbench import challenge as chal
from swingbench.challenge import train_ngram
from swingbench.cli import build_parser, main
from swingbench.corpus import Beat, Note, Solo, save_corpus, solo_to_record
from swingbench.synthetic import motif_corpus, random_corpus, sectional_corpus, sectional_solo
from swingbench.tokenizer import BAR, decode_tokens, read_tokens, repair_token_stream


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    save_corpus(random_corpus(seed=2, size=4, n_bars=10), path)
    return path


@pytest.fixture(scope="module")
def motif_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("motifs") / "motifs.jsonl"
    save_corpus(motif_corpus(6, n_bars=18), path)
    return path


@pytest.fixture(scope="module")
def repetition_13_file(tmp_path_factory):
    """A valid corpus whose second solo plays its A section 13 times: one
    repetition past the vocabulary's RepStart/RepEnd range."""
    path = tmp_path_factory.mktemp("rep13") / "rep13.jsonl"
    save_corpus([sectional_solo("plain", form="AB", section_bars=4),
                 sectional_solo("thirteen", form="A", repetitions=13, section_bars=2)], path)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def _unplaced_corpus(path: Path, kind: str) -> Path:
    """A valid solo, then one with a note that no beat holds: at the end of
    the beat track, or in the gap left by a beat shortened to 0.1 s."""
    good, bad = (sectional_solo(name, form="A", repetitions=1, section_bars=1)
                 for name in ("ok", kind))
    if kind == "end":
        end = bad.beats[-1].onset_sec + bad.beats[-1].duration_sec
        late = dataclasses.replace(bad.notes[-1], onset_sec=end)
        bad = dataclasses.replace(bad, notes=bad.notes + (late,))
    else:
        short = dataclasses.replace(bad.beats[1], duration_sec=0.1)
        bad = dataclasses.replace(bad, beats=(bad.beats[0], short, *bad.beats[2:]))
    save_corpus([good, bad], path)
    return path


def test_tokenize_outputs(tmp_path, corpus_file):
    out = tmp_path / "tok"
    assert run("tokenize", "--corpus", corpus_file, "--out", out) == 0
    token_files = sorted(out.glob("*.tokens"))
    assert len(token_files) == 4
    assert (out / "vocab.tsv").exists()
    summary = (out / "summary.tsv").read_text()
    assert "solo_id\tnotes\tbeats\tevents" in summary
    assert "TOTAL" in summary


def test_tokenize_identity_rerun_byte_identical(tmp_path, corpus_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run("tokenize", "--corpus", corpus_file, "--out", out1)
    run("tokenize", "--corpus", corpus_file, "--out", out2)
    for f1 in sorted(out1.iterdir()):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes()


def test_tokenize_no_structure_drops_categories(tmp_path, corpus_file):
    structural = {"Phrase", "MLU", "PartStart", "PartEnd", "RepStart", "RepEnd"}
    full, bare = tmp_path / "full", tmp_path / "bare"
    run("tokenize", "--corpus", corpus_file, "--out", full)
    run("tokenize", "--corpus", corpus_file, "--out", bare, "--no-structure")
    seen = set()
    for file in sorted(full.glob("*.tokens")):
        full_cats = {t.category for t in read_tokens(file)}
        bare_cats = {t.category for t in read_tokens(bare / file.name)}
        seen |= full_cats
        assert bare_cats == full_cats - structural
    assert structural <= seen  # the corpus exercises every structural category


def test_tokenize_corrupt_corpus_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": "x"}\n')
    assert run("tokenize", "--corpus", bad, "--out", tmp_path / "out") == 1
    assert "error:" in capsys.readouterr().err


def test_detokenize_writes_midi(tmp_path, corpus_file):
    tok = tmp_path / "tok"
    run("tokenize", "--corpus", corpus_file, "--out", tok)
    first = sorted(tok.glob("*.tokens"))[0]
    out = tmp_path / "midi"
    assert run("detokenize", "--tokens", first, "--out", out) == 0
    data = (out / (first.stem + ".mid")).read_bytes()
    assert data[:4] == b"MThd"
    assert b"sha256=" in data  # provenance meta event


def test_report_columns_and_mean(tmp_path, corpus_file):
    out = tmp_path / "rep"
    assert run("report", "--corpus", corpus_file, "--out", out) == 0
    lines = (out / "report.tsv").read_text().splitlines()
    header = [l for l in lines if l.startswith("piece_id")][0]
    assert header.split("\t") == [
        "piece_id", "H1", "H4", "GS", "CPI", "SI_3_8", "SI_8_15", "SI_15",
    ]
    rows = [l for l in lines if not l.startswith(("#", "piece_id"))]
    assert len(rows) == 5  # 4 pieces + MEAN
    assert rows[-1].startswith("MEAN\t")
    assert any(l.startswith("# cfg tau=") for l in lines)
    assert any(l.startswith("# input") and "sha256=" in l for l in lines)


def test_report_from_tokens_dir(tmp_path, corpus_file):
    tok, rep = tmp_path / "tok", tmp_path / "rep"
    run("tokenize", "--corpus", corpus_file, "--out", tok)
    assert run("report", "--tokens-dir", tok, "--out", rep) == 0
    rows = [
        l for l in (rep / "report.tsv").read_text().splitlines()
        if not l.startswith(("#", "piece_id"))
    ]
    assert len(rows) == 5


def test_report_deterministic(tmp_path, corpus_file):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    run("report", "--corpus", corpus_file, "--out", out1, "--scape-images")
    run("report", "--corpus", corpus_file, "--out", out2, "--scape-images")
    for f1 in sorted(out1.iterdir()):
        assert f1.read_bytes() == (out2 / f1.name).read_bytes(), f1.name


def test_report_empty_corpus_errors(tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert run("report", "--corpus", empty, "--out", tmp_path / "rep") == 1
    assert "error:" in capsys.readouterr().err


def test_scape_command(tmp_path, corpus_file):
    out = tmp_path / "scape"
    assert run("scape", "--corpus", corpus_file, "--piece", "rand-000", "--out", out) == 0
    assert (out / "rand-000.scape.txt").exists()
    pgm = (out / "rand-000.pgm").read_bytes()
    assert pgm.startswith(b"P5\n")


def test_scape_unknown_piece(tmp_path, corpus_file, capsys):
    assert run("scape", "--corpus", corpus_file, "--piece", "nope", "--out", tmp_path) == 1
    assert "not found" in capsys.readouterr().err


def _one_bar_corpus(path: Path, beats: list[tuple[float, float]], *others: Solo) -> Path:
    """``others``, then a solo "long" of one bar of (onset, duration) beats
    and one note at 0."""
    beats = tuple(Beat(onset, duration, 0, i, "C7") for i, (onset, duration) in enumerate(beats))
    save_corpus([*others, Solo("long", (Note(0.0, 1.0, 60, 70.0),), beats)], path)
    return path


@pytest.mark.parametrize("command", ["report", "scape"])
@pytest.mark.parametrize("beats", [
    [(0.0, 5e307), (5e307, 5e307), (1e308, 5e307), (1.5e308, 1e308)],
    [(i * 1e15, 1e15) for i in range(4)],
    [(i * 1e300, 1e300) for i in range(4)],
], ids=["frame-count-overflows", "frames-take-exbibytes", "frames-past-numpy-dimensions"])
def test_frame_rate_too_high_is_one_error_line(tmp_path, capsys, command, beats):
    # beats too long for any frame count in seconds are read as their tokens
    # decode, at the codec's slowest tempo, 50 bpm: the bar lasts 4.8 s and
    # plots 5 frames (render_chroma's errors on such spans: test_structure.py)
    corpus = _one_bar_corpus(tmp_path / "long.jsonl", beats)
    out = tmp_path / "out"
    piece = ["--piece", "long"] if command == "scape" else ["--scape-images"]
    assert run(command, "--corpus", corpus, "--out", out, *piece) == 0
    assert capsys.readouterr().err == ""
    assert (out / "long.pgm").read_bytes().startswith(b"P5\n5 5\n255\n")


def test_scape_builds_only_the_piece_it_plots(tmp_path, monkeypatch):
    from swingbench import structure

    rendered = []
    chroma_from_timeline = structure.chroma_from_timeline

    def counted(timeline):
        rendered.append(timeline)
        return chroma_from_timeline(timeline)

    monkeypatch.setattr(structure, "chroma_from_timeline", counted)
    corpus = tmp_path / "three.jsonl"
    save_corpus([sectional_solo(name, form="A", repetitions=2, section_bars=2)
                 for name in ("a", "b", "c")], corpus)
    out = tmp_path / "out"
    assert run("scape", "--corpus", corpus, "--piece", "b", "--out", out) == 0
    assert sorted(p.name for p in out.iterdir()) == ["b.pgm", "b.scape.txt"]
    assert len(rendered) == 1
    assert run("report", "--corpus", corpus, "--out", tmp_path / "rep") == 0
    assert len(rendered) == 1 + 3


@pytest.mark.parametrize("command, piece", [("report", "rand-000"), ("scape", "rand-001")])
def test_a_failed_scape_plot_names_its_piece(tmp_path, corpus_file, capsys, monkeypatch,
                                              command, piece):
    from swingbench import structure

    def fail(ssm):
        raise MemoryError("scape DP: cannot allocate its row buffers")

    monkeypatch.setattr(structure, "scape_plot", fail)
    only = ["--piece", piece] if command == "scape" else []
    assert run(command, "--corpus", corpus_file, "--out", tmp_path / "out", *only) == 1
    assert capsys.readouterr().err == (
        f"error: piece {piece!r}: scape DP: cannot allocate its row buffers\n")


@pytest.mark.parametrize("command", ["report", "scape"])
def test_stride_is_a_usage_error(tmp_path, corpus_file, capsys, command):
    # structureness has no settings: one frame a second, tau 0.2, delta -2.0,
    # and report's bands are the paper's 3-8, 8-15 and 15- seconds
    piece = ["--piece", "rand-000"] if command == "scape" else []
    bands = [("--bands", "3:8")] if command == "report" else []
    for flag, value in [("--stride", 2), ("--frame-rate", 2), ("--tau", 2), ("--delta", 2),
                        *bands]:
        with pytest.raises(SystemExit) as exc:
            run(command, "--corpus", corpus_file, *piece, "--out", tmp_path / "out", flag, value)
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err, flag
        assert not (tmp_path / "out").exists(), flag


def test_report_header_lists_its_settings(tmp_path, corpus_file):
    out = tmp_path / "rep"
    assert run("report", "--corpus", corpus_file, "--out", out) == 0
    keys = [line[len("# cfg "):].split("=", 1)[0]
            for line in (out / "report.tsv").read_text().splitlines()
            if line.startswith("# cfg ")]
    assert keys == ["bands", "chord_collapse", "command", "delta", "entropy_windows",
                    "frame_rate", "scape_images", "source", "tau"]


def test_grammar_error_names_the_token_file(tmp_path, capsys):
    tok = tmp_path / "tok"
    tok.mkdir()
    bad = tok / "bad.tokens"
    bad.write_text("Position(3)\n")
    for argv in (
        ("report", "--tokens-dir", tok, "--out", tmp_path / "rep"),
        ("scape", "--tokens-dir", tok, "--piece", "bad", "--out", tmp_path / "scape"),
        ("detokenize", "--tokens", bad, "--out", tmp_path / "midi"),
    ):
        assert run(*argv) == 1
        assert f"error: {bad}: token 0: Position(3) before the first Bar" in capsys.readouterr().err


def test_every_command_refuses_a_token_file_that_breaks_the_grammar(tmp_path, capsys):
    # valid token files, then one that breaks the grammar: no command reads
    # it by another path, so each names it and makes no output
    corpus, tok = tmp_path / "motifs.jsonl", tmp_path / "tok"
    save_corpus(motif_corpus(6, n_bars=20), corpus)
    assert run("tokenize", "--corpus", corpus, "--out", tok) == 0
    bad = tok / "zz-bad.tokens"
    bad.write_text("NoteOn(60)\nBar(0)\n")
    capsys.readouterr()
    out = tmp_path / "out"
    for argv in (
        ("report", "--tokens-dir", tok, "--out", out),
        ("scape", "--tokens-dir", tok, "--piece", "motif-000", "--out", out),
        ("challenge", "--tokens-dir", tok, "--count", 4, "--out", out),
        ("train-model", "--tokens-dir", tok, "--out", out / "model.json"),
        ("detokenize", "--tokens", *sorted(tok.glob("*.tokens")), "--out", out),
    ):
        assert run(*argv) == 1, argv
        assert capsys.readouterr().err == (
            f"error: {bad}: token 0: NoteOn not preceded by NoteVelocity "
            "(expected one of ['NoteVelocity'])\n"), argv
        assert not out.exists(), argv


def _report_and_scape(corpus: Path, pieces: Sequence[str]) -> dict:
    """For each source, ``--corpus`` and ``--tokens-dir`` of the corpus's own
    ``tokenize`` output, the bytes of every output of ``report
    --scape-images`` and of ``scape`` for each of ``pieces``, by path."""
    tokens = corpus.parent / "tokens"
    assert run("tokenize", "--corpus", corpus, "--out", tokens) == 0
    outputs = {}
    for source, source_args in (("corpus", ("--corpus", corpus)),
                                ("tokens", ("--tokens-dir", tokens))):
        out = corpus.parent / "out" / source
        assert run("report", *source_args, "--out", out / "report", "--scape-images") == 0
        for piece in pieces:
            assert run("scape", *source_args, "--piece", piece, "--out", out / "scape") == 0
        outputs[source] = {f.relative_to(out).as_posix(): f.read_bytes()
                           for f in sorted(out.rglob("*")) if f.is_file()}
    return outputs


def _assert_analysed_alike(outputs: dict) -> None:
    """A corpus solo is analysed as the timeline its tokens decode to: each
    image and scape text is its token file's twin, and so is each row of
    report.tsv, whose header names another source."""
    corpus, tokens = outputs["corpus"], outputs["tokens"]
    assert sorted(corpus) == sorted(tokens)
    for name in corpus:
        if name == "report/report.tsv":
            assert ([line for line in corpus[name].splitlines() if not line.startswith(b"#")]
                    == [line for line in tokens[name].splitlines() if not line.startswith(b"#")])
        else:
            assert corpus[name] == tokens[name], name


@pytest.fixture(scope="module")
def pinned_outputs(tmp_path_factory) -> dict:
    corpus = tmp_path_factory.mktemp("pinned") / "pinned.jsonl"
    save_corpus(sectional_corpus(2, forms=("AABA", "ABAC"), section_bars=2)
                + random_corpus(seed=5, size=2, n_bars=12), corpus)
    return _report_and_scape(corpus, ("form-000", "rand-001"))


# SHA-256 of every report/scape output for the pinned corpus.  Only
# report.tsv differs by source, in its header's source name and input hash.
PINNED_OUTPUTS = {
    "corpus": {
        "report/form-000.pgm": "22d9afc628b5eb06f98481762d7288566961d14897413b731d53c1c6955236f1",
        "report/form-001.pgm": "edf35a4cd2a471529cb37fa58127a7064a0bea626b3950858c5631ec56c90b0e",
        "report/rand-000.pgm": "d91462919c56062de867fccc45a89b88c78a216d85e4a363c1f291668272bbf9",
        "report/rand-001.pgm": "0a98128f4f8c7464152a019d0681e804b78e7359c62f46e0755e702682e51807",
        "report/report.tsv": "62e309245450951dab9f051ae7aab631d091ce3ec3a269fdf3a675bc6ce62843",
        "scape/form-000.pgm": "22d9afc628b5eb06f98481762d7288566961d14897413b731d53c1c6955236f1",
        "scape/form-000.scape.txt": "04f54a7c0765c8243fcf4ae9cb1f91efac19d4ce326fbaf201f6227ed87f9cf6",
        "scape/rand-001.pgm": "0a98128f4f8c7464152a019d0681e804b78e7359c62f46e0755e702682e51807",
        "scape/rand-001.scape.txt": "8a71660c661a9ea0a7c15635e13f742256c27133aa2ef7155989c0d0f447dc0f",
    },
    "tokens": {
        "report/form-000.pgm": "22d9afc628b5eb06f98481762d7288566961d14897413b731d53c1c6955236f1",
        "report/form-001.pgm": "edf35a4cd2a471529cb37fa58127a7064a0bea626b3950858c5631ec56c90b0e",
        "report/rand-000.pgm": "d91462919c56062de867fccc45a89b88c78a216d85e4a363c1f291668272bbf9",
        "report/rand-001.pgm": "0a98128f4f8c7464152a019d0681e804b78e7359c62f46e0755e702682e51807",
        "report/report.tsv": "4f639ad15d2751908390e36dba1084bf3c48d1a01c460fe7a92324bc79b1f7d9",
        "scape/form-000.pgm": "22d9afc628b5eb06f98481762d7288566961d14897413b731d53c1c6955236f1",
        "scape/form-000.scape.txt": "04f54a7c0765c8243fcf4ae9cb1f91efac19d4ce326fbaf201f6227ed87f9cf6",
        "scape/rand-001.pgm": "0a98128f4f8c7464152a019d0681e804b78e7359c62f46e0755e702682e51807",
        "scape/rand-001.scape.txt": "8a71660c661a9ea0a7c15635e13f742256c27133aa2ef7155989c0d0f447dc0f",
    },
}


@pytest.mark.parametrize("source", sorted(PINNED_OUTPUTS))
def test_report_and_scape_bytes_pinned(pinned_outputs, source):
    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in pinned_outputs[source].items()}
    assert digests == PINNED_OUTPUTS[source]
    _assert_analysed_alike(pinned_outputs)


def test_sub_64th_notes_are_analysed_as_their_tokens_decode(tmp_path):
    # the codec drops notes shorter than a 64th of their beat, so no metric counts them
    corpus = tmp_path / "sub64.jsonl"
    save_corpus(random_corpus(seed=3, size=4, sub64_fraction=0.3), corpus)
    _assert_analysed_alike(_report_and_scape(corpus, ("rand-000", "rand-003")))


# Each report row of a corpus whose pieces last 2, 4 and 32 s, recorded
# while report still took its bands as a setting.  A band whose shortest
# duration is longer than the piece prints NA; MEAN averages the defined cells.
PINNED_SHORT_ROWS = {
    "piece_id": "H1\tH4\tGS\tCPI\tSI_3_8\tSI_8_15\tSI_15",
    "one-bar": "1.5850\t1.5850\tNA\tNA\tNA\tNA\tNA",
    "two-bars": "1.5850\t1.5850\t1.0000\tNA\t0.2027\tNA\tNA",
    "sixteen-bars": "1.5850\t2.1902\t1.0000\t57.14\t0.6171\t0.4839\t0.5000",
    "MEAN": "1.5850\t1.7867\t1.0000\t57.14\t0.4099\t0.4839\t0.5000",
}


@pytest.mark.parametrize("source", ["corpus", "tokens"])
def test_report_prints_na_for_a_band_past_the_end_of_the_piece(tmp_path, source):
    corpus = tmp_path / "short.jsonl"
    save_corpus([sectional_solo("one-bar", form="A", repetitions=1, section_bars=1),
                 sectional_solo("two-bars", form="A", repetitions=1, section_bars=2),
                 sectional_solo("sixteen-bars", form="AB", repetitions=2, section_bars=4)],
                corpus)
    if source == "corpus":
        source_args = ("--corpus", corpus)
    else:
        assert run("tokenize", "--corpus", corpus, "--out", tmp_path / "tokens") == 0
        source_args = ("--tokens-dir", tmp_path / "tokens")
    assert run("report", *source_args, "--out", tmp_path / "rep") == 0
    rows = dict(line.split("\t", 1)
                for line in (tmp_path / "rep" / "report.tsv").read_text().splitlines()
                if not line.startswith("#"))
    assert rows == PINNED_SHORT_ROWS
    # the mean of the SI_3_8 cells that are defined, to the printed precision
    si_3_8 = [float(rows[piece].split("\t")[4]) for piece in ("two-bars", "sixteen-bars")]
    assert float(rows["MEAN"].split("\t")[4]) == pytest.approx(sum(si_3_8) / 2, abs=1e-4)


def test_challenge_oracle_perfect(tmp_path, motif_file, capsys):
    out = tmp_path / "chal"
    code = run(
        "challenge", "--corpus", motif_file, "--out", out,
        "--model", "oracle", "--count", 20, "--seed", 5,
    )
    assert code == 0
    text = (out / "challenge.tsv").read_text()
    assert "# accuracy 1.0000" in text


def test_challenge_deterministic(tmp_path, motif_file):
    out1, out2 = tmp_path / "c1", tmp_path / "c2"
    for out in (out1, out2):
        run(
            "challenge", "--corpus", motif_file, "--out", out,
            "--model", "ngram", "--order", 3, "--count", 10, "--seed", 7,
        )
    assert (out1 / "challenge.tsv").read_bytes() == (out2 / "challenge.tsv").read_bytes()


# SHA-256 of challenge.tsv for the n-gram at two orders, 20 questions, seed 1,
# recorded while models took their weights as a setting.  Order 7 is one
# where the interpolation weight, 1/7 normalised by its float sum, is not 1/7.
PINNED_CHALLENGE = {
    5: "76f268676ab5e9a8aeffd6e3f9242a1767306c1c3e2969f5ef6281e4a711fb80",
    7: "ad96c559f5fb0a7097313e542bdec618f7d1e0e81e9c4077e8768aaf3276b0ad",
}


@pytest.mark.parametrize("order", sorted(PINNED_CHALLENGE))
def test_ngram_challenge_bytes_pinned(tmp_path, motif_file, order):
    out = tmp_path / "chal"
    assert run("challenge", "--corpus", motif_file, "--out", out, "--model", "ngram",
               "--order", order, "--count", 20, "--seed", 1) == 0
    digest = hashlib.sha256((out / "challenge.tsv").read_bytes()).hexdigest()
    assert digest == PINNED_CHALLENGE[order]


# The interpolation weights an order-7 model file held while it stored them.
ORDER_7_FILE_WEIGHTS = [0.14285714285714288] * 7
# SHA-256 of the token lines (the header aside) that generate samples from it,
# recorded when the sampler came to draw only what the grammar allows.
PINNED_GENERATED_BODIES = {
    "gen-000.tokens": "698da150e82f9950a62ac251cc1c221a79777153fadb839d5a5b304ce471556e",
    "gen-001.tokens": "ce85a9b10ed96f3641e71dfd6576bd0256318df2fbd86645d56561d10e303520",
}


def _generated_bodies(tmp_path: Path, motif_file: Path, weights: list | None) -> dict:
    """SHA-256 of the token lines of each file that generate writes from an
    order-7 model file, with ``weights`` added to the file unless None."""
    model_path = tmp_path / f"model-{weights is None}.json"
    assert run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 7) == 0
    if weights is not None:
        data = json.loads(model_path.read_text(encoding="utf-8"))
        data["weights"] = weights
        model_path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
    gen = tmp_path / f"gen-{weights is None}"
    assert run("generate", "--model-file", model_path, "--out", gen,
               "--bars", 4, "--count", 2, "--seed", 3) == 0
    bodies = {}
    for file in sorted(gen.glob("*.tokens")):
        lines = [line for line in file.read_text().splitlines() if not line.startswith("#")]
        bodies[file.name] = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    return bodies


def test_model_file_with_its_weights_field_generates_what_the_plain_file_does(
    tmp_path, motif_file
):
    assert (_generated_bodies(tmp_path, motif_file, ORDER_7_FILE_WEIGHTS)
            == _generated_bodies(tmp_path, motif_file, None))


def test_model_file_with_its_weights_field_samples_pinned_tokens(tmp_path, motif_file):
    assert _generated_bodies(tmp_path, motif_file, ORDER_7_FILE_WEIGHTS) == PINNED_GENERATED_BODIES


def test_challenge_small_corpus_errors(tmp_path, corpus_file, capsys):
    # 10-bar pieces cannot host 8+8 bar questions
    assert run("challenge", "--corpus", corpus_file, "--out", tmp_path, "--count", 5) == 1
    assert "error:" in capsys.readouterr().err


def test_train_and_generate_pipeline(tmp_path, motif_file):
    model_path = tmp_path / "model.json"
    assert run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 3) == 0

    gen_dir = tmp_path / "gen"
    assert run(
        "generate", "--model-file", model_path, "--out", gen_dir,
        "--bars", 4, "--count", 2, "--seed", 3,
    ) == 0
    files = sorted(gen_dir.glob("*.tokens"))
    assert len(files) == 2
    for file in files:
        tokens = read_tokens(file)
        assert sum(t.category == BAR for t in tokens) >= 1

    # generated tokens feed straight back into the report
    rep = tmp_path / "rep"
    assert run("report", "--tokens-dir", gen_dir, "--out", rep) == 0


@pytest.mark.parametrize("command", ["generate", "challenge"])
def test_model_file_with_wrong_vocabulary_errors(tmp_path, motif_file, capsys, command):
    model_path = tmp_path / "small.json"
    train_ngram([[0, 1, 0, 1]], order=2, vocab_size=5).save(model_path)
    source = [] if command == "generate" else ["--corpus", motif_file, "--count", 2]
    code = run(command, "--model-file", model_path, "--out", tmp_path / "out", *source)
    assert code == 1
    assert "error: model vocabulary (5) does not match" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "challenge"])
@pytest.mark.parametrize(
    "data,message",
    [
        ({"order": 2, "vocab_size": 5, "alpha": 0.01},
         "error: model file field 'sequences' is missing or of the wrong type"),
        ({"order": 2, "vocab_size": 5, "alpha": 0.01, "sequences": [[0, 9999]]},
         "error: token id outside [0, 5)"),
    ],
    ids=["missing-key", "id-out-of-range"],
)
def test_bad_model_file_errors(tmp_path, motif_file, capsys, command, data, message):
    model_path = tmp_path / "bad.json"
    model_path.write_text(json.dumps(data), encoding="utf-8")
    source = [] if command == "generate" else ["--corpus", motif_file, "--count", 2]
    code = run(command, "--model-file", model_path, "--out", tmp_path / "out", *source)
    assert code == 1
    assert capsys.readouterr().err.startswith(message)


@pytest.mark.parametrize("command", ["generate", "challenge"])
@pytest.mark.parametrize(
    "content",
    [b"", b"\x89PNG\r\n\x1a\n\x00\xff", b'{"order": 2, "vocab_size": 5, "alp', b"[" * 100_000],
    ids=["empty", "binary", "truncated", "nested-too-deep"],
)
def test_model_file_that_is_not_json_is_a_named_error(
    tmp_path, motif_file, capsys, command, content
):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(content)
    source = [] if command == "generate" else ["--corpus", motif_file, "--count", 2]
    code = run(command, "--model-file", model_path, "--out", tmp_path / "out", *source)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model_path} is not an n-gram model file ("), err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv",
    [["report", "--corpus", "c.jsonl", "--out", "o"],
     ["scape", "--corpus", "c.jsonl", "--piece", "x", "--out", "o"]],
)
def test_no_structure_is_a_usage_error_where_it_is_not_read(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--no-structure"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["challenge", "train-model"])
def test_no_structure_accepted_where_a_corpus_is_encoded(command):
    args = build_parser().parse_args(
        [command, "--corpus", "c.jsonl", "--out", "o", "--no-structure"]
    )
    assert args.no_structure


@pytest.mark.parametrize("command", ["challenge", "train-model"])
def test_no_structure_with_tokens_dir_is_a_named_error(tmp_path, motif_file, capsys, command):
    tok = tmp_path / "tok"
    assert run("tokenize", "--corpus", motif_file, "--out", tok) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run(command, "--tokens-dir", tok, "--out", out, "--no-structure") == 1
    assert capsys.readouterr().err == (
        "error: --no-structure applies when encoding a --corpus; "
        "it cannot be used with --tokens-dir\n"
    )
    assert not out.exists()


def test_generate_deterministic(tmp_path, motif_file):
    model_path = tmp_path / "model.json"
    run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 3)
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    for g in (g1, g2):
        run("generate", "--model-file", model_path, "--out", g, "--bars", 4, "--seed", 11)
    assert (g1 / "gen-000.tokens").read_bytes() == (g2 / "gen-000.tokens").read_bytes()


@pytest.mark.parametrize("argv, count, bars", [
    (["--max-tokens", "1"], 1, 1),  # the primer's Bar alone
    (["--bars", "3", "--count", "2"], 2, 6),
])
def test_generate_reports_the_bars_it_wrote(tmp_path, motif_file, capsys, argv, count, bars):
    model = tmp_path / "model.json"
    assert run("train-model", "--corpus", motif_file, "--out", model, "--order", 3) == 0
    out = tmp_path / "gen"
    capsys.readouterr()
    assert run("generate", "--model-file", model, "--out", out, *argv) == 0
    assert sum(t.category == BAR for f in out.glob("*.tokens") for t in read_tokens(f)) == bars
    assert capsys.readouterr().out == f"generated {count} pieces, {bars} bars in all -> {out}\n"


@pytest.mark.parametrize("count", ["0", "-1"])
def test_generate_count_below_one_is_a_usage_error(count, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["generate", "--model-file", "m.json", "--out", "o",
                                   "--count", count])
    assert exc.value.code == 2
    assert "--count: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--bars", "-5"], ["--bars", "0"], ["--max-tokens", "0"]])
def test_generate_bars_and_max_tokens_below_one_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["generate", "--model-file", "m.json", "--out", "o", *argv])
    assert exc.value.code == 2
    assert f"{argv[0]}: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["generate", "--model-file", "m.json", "--out", "o", "--seed", "-1"],
    ["challenge", "--corpus", "c.jsonl", "--out", "o", "--seed", "-5"],
])
def test_negative_seed_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"--seed: must be at least 0, got {argv[-1]}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["challenge", "train-model"])
@pytest.mark.parametrize("flag, value, message", [
    ("--order", "0", "must be at least 1, got 0"),
    ("--order", str(chal.MAX_ORDER + 1),
     f"must be at most {chal.MAX_ORDER}, got {chal.MAX_ORDER + 1}"),
    ("--order", "100000", f"must be at most {chal.MAX_ORDER}, got 100000"),
    ("--alpha", "nan", "must be finite, got nan"),
    ("--alpha", "inf", "must be finite, got inf"),
    ("--alpha", "0", "must be positive, got 0"),
    ("--alpha", "-0.5", "must be positive, got -0.5"),
])
def test_order_and_alpha_out_of_range_are_usage_errors_naming_the_flag(
    command, flag, value, message, capsys
):
    # refused before the corpus is read, which here does not exist
    with pytest.raises(SystemExit) as exc:
        main([command, "--corpus", "missing.jsonl", "--out", "o", flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["challenge", "train-model"])
def test_order_up_to_the_bound_is_accepted(command):
    args = build_parser().parse_args(
        [command, "--corpus", "c.jsonl", "--out", "o", "--order", str(chal.MAX_ORDER)]
    )
    assert args.order == chal.MAX_ORDER


@pytest.mark.parametrize("command", ["generate", "challenge"])
def test_model_file_of_an_order_past_the_bound_is_a_named_error(
    tmp_path, motif_file, capsys, command
):
    model_path = tmp_path / "deep.json"
    data = {"order": chal.MAX_ORDER + 8, "vocab_size": chal.VOCAB.size, "alpha": 0.01,
            "sequences": [[chal.VOCAB.bar_token_id]]}
    model_path.write_text(json.dumps(data), encoding="utf-8")
    source = [] if command == "generate" else ["--corpus", motif_file, "--count", 2]
    code = run(command, "--model-file", model_path, "--out", tmp_path / "out", *source)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: n-gram order must be in 1..{chal.MAX_ORDER}, got {chal.MAX_ORDER + 8}\n"
    )


def test_every_generated_file_decodes_as_it_is(tmp_path, motif_file):
    # every cap from 1 to 40 tokens, so that some cut an event group open
    model_path = tmp_path / "model.json"
    assert run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 3) == 0
    gen = tmp_path / "gen"
    gen.mkdir()
    files, cut = [], 0
    for cap in range(1, 41):
        out = tmp_path / f"gen-{cap}"
        assert run("generate", "--model-file", model_path, "--out", out, "--bars", 99,
                   "--max-tokens", cap, "--seed", cap) == 0
        files.append((out / "gen-000.tokens").rename(gen / f"cap-{cap:02d}.tokens"))
        assert "# piece" not in files[-1].read_text(encoding="utf-8")  # the provenance header alone
        tokens = read_tokens(files[-1])
        assert 1 <= len(tokens) <= cap
        assert repair_token_stream(tokens) == (tokens, 0)
        decode_tokens(tokens)  # must not raise
        cut += len(tokens) < cap
    assert cut
    assert run("detokenize", "--tokens", *files, "--out", tmp_path / "midi") == 0
    assert run("report", "--tokens-dir", gen, "--out", tmp_path / "rep") == 0


@pytest.mark.parametrize("temperature", ["1e-310", "1e308"])
def test_generate_takes_any_positive_finite_temperature(tmp_path, motif_file, temperature):
    model_path = tmp_path / "model.json"
    assert run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 3) == 0
    out = tmp_path / "gen"
    assert run("generate", "--model-file", model_path, "--out", out, "--bars", 4,
               "--temperature", temperature) == 0
    assert decode_tokens(read_tokens(out / "gen-000.tokens")).bar_count == 4


def test_generate_header_states_max_tokens(tmp_path, motif_file):
    model_path = tmp_path / "model.json"
    run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 2)
    out = tmp_path / "gen"
    assert run("generate", "--model-file", model_path, "--out", out, "--bars", 1,
               "--max-tokens", 600) == 0
    assert "# cfg max_tokens=600" in (out / "gen-000.tokens").read_text().splitlines()


@pytest.mark.parametrize("temperature", ["nan", "inf", "-inf", "0", "-0.5"])
def test_generate_bad_temperature_is_a_usage_error_naming_the_flag(tmp_path, capsys,
                                                                    temperature):
    # refused before the model file is read, which here does not exist
    out = tmp_path / "g"
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--model-file", str(tmp_path / "missing.json"), "--out", str(out),
              f"--temperature={temperature}"])
    assert exc.value.code == 2
    rule = "finite" if temperature.endswith(("nan", "inf")) else "positive"
    assert f"argument --temperature: must be {rule}, got {temperature}" in capsys.readouterr().err
    assert not out.exists()


def test_challenge_header_names_the_model_file(tmp_path, motif_file):
    headers = []
    for order in (2, 4):
        model_path = tmp_path / f"o{order}" / "model.json"
        run("train-model", "--corpus", motif_file, "--out", model_path, "--order", order)
        out = tmp_path / f"challenge{order}"
        run("challenge", "--corpus", motif_file, "--model-file", model_path,
            "--out", out, "--count", 4, "--seed", 1)
        lines = (out / "challenge.tsv").read_text().splitlines()
        header = lines[: lines.index("question\tP0\tP1\tP2\tP3\tchosen\ttrue\tcorrect")]
        digest = hashlib.sha256(model_path.read_bytes()).hexdigest()
        assert f"# input model.json sha256={digest}" in header
        headers.append(header)
    assert headers[0] != headers[1]


def test_challenge_header_states_the_model_file_settings(tmp_path, motif_file):
    model_path = tmp_path / "o2.json"
    run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 2, "--alpha", 0.5)
    out = tmp_path / "chal"
    assert run("challenge", "--corpus", motif_file, "--model-file", model_path,
               "--out", out, "--count", 4, "--seed", 1) == 0
    lines = (out / "challenge.tsv").read_text().splitlines()
    assert "# cfg order=2" in lines and "# cfg alpha=0.5" in lines
    assert not any(line in lines for line in ("# cfg order=5", "# cfg alpha=0.01"))


@pytest.mark.parametrize("model", ["oracle", "uniform", "external"])
def test_model_file_with_another_model_is_a_usage_error(tmp_path, motif_file, capsys, model):
    model_path = tmp_path / "o2.json"
    train_ngram([[0, 1, 0, 1]], order=2, vocab_size=5).save(model_path)
    code = run("challenge", "--corpus", motif_file, "--model", model, "--model-file", model_path,
               "--external-cmd", "true", "--out", tmp_path / "out", "--count", 2)
    assert code == 1
    assert f"cannot be used with --model {model}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_challenge_external_model(tmp_path, motif_file):
    from swingbench.tokenizer import DEFAULT_VOCABULARY as V

    script = tmp_path / "uniform_model.py"
    script.write_text(
        "import sys\n"
        f"V = {V.size}\n"
        "for line in sys.stdin:\n"
        "    print(' '.join(['%.10g' % (1.0 / V)] * V), flush=True)\n"
    )
    out = tmp_path / "ext"
    code = run(
        "challenge", "--corpus", motif_file, "--out", out,
        "--model", "external", "--external-cmd", f"{sys.executable} {script}",
        "--count", 4, "--seed", 1,
    )
    assert code == 0
    uniform_out = tmp_path / "uni"
    run(
        "challenge", "--corpus", motif_file, "--out", uniform_out,
        "--model", "uniform", "--count", 4, "--seed", 1,
    )
    strip = lambda p: [
        l for l in (p / "challenge.tsv").read_text().splitlines()
        if not l.startswith("# cfg")
    ]
    assert strip(out) == strip(uniform_out)


def _uniform_responder(tmp_path) -> Path:
    from swingbench.tokenizer import DEFAULT_VOCABULARY as V

    script = tmp_path / "uniform_model.py"
    script.write_text(
        "import sys\n"
        f"V = {V.size}\n"
        "for line in sys.stdin:\n"
        "    print(' '.join(['%.10g' % (1.0 / V)] * V), flush=True)\n"
    )
    return script


def _cfg_lines(out: Path) -> list[str]:
    return [l for l in (out / "challenge.tsv").read_text().splitlines() if l.startswith("# cfg ")]


def test_sampled_prefix_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["challenge", "--corpus", "c.jsonl", "--out", "o",
                                   "--sampled-prefix"])
    assert exc.value.code == 2
    assert "--sampled-prefix" in capsys.readouterr().err


CHALLENGE_CFG_KEYS = {"command", "model", "count", "seed", "no_structure", "source"}


@pytest.mark.parametrize("model, extra_keys", [
    ("ngram", {"order", "alpha"}),
    ("uniform", set()),
    ("oracle", set()),
    ("external", {"external_cmd"}),
])
def test_challenge_header_lists_only_the_settings_that_apply(
    tmp_path, motif_file, model, extra_keys
):
    extra = []
    if model == "external":
        extra = ["--external-cmd", f"{sys.executable} {_uniform_responder(tmp_path)}"]
    out = tmp_path / "chal"
    assert run("challenge", "--corpus", motif_file, "--out", out, "--model", model,
               "--count", 2, "--seed", 1, *extra) == 0
    keys = [line[len("# cfg "):].split("=", 1)[0] for line in _cfg_lines(out)]
    assert sorted(keys) == sorted(CHALLENGE_CFG_KEYS | extra_keys)


def test_challenge_header_records_the_external_command(tmp_path, motif_file):
    script = _uniform_responder(tmp_path)
    headers = []
    for i, command in enumerate([f"{sys.executable} {script}", f"{sys.executable} -u {script}"]):
        out = tmp_path / f"ext{i}"
        assert run("challenge", "--corpus", motif_file, "--out", out, "--model", "external",
                   "--external-cmd", command, "--count", 2, "--seed", 1) == 0
        cfg = _cfg_lines(out)
        assert f"# cfg external_cmd={command}" in cfg
        headers.append(cfg)
    assert headers[0] != headers[1]


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"])
def test_external_cmd_with_a_line_break_is_refused(tmp_path, motif_file, capsys, newline):
    command = f"{sys.executable} {_uniform_responder(tmp_path)}{newline}# cfg seed=9"
    code = run("challenge", "--corpus", motif_file, "--out", tmp_path / "out",
               "--model", "external", "--external-cmd", command, "--count", 2)
    assert code == 1
    assert capsys.readouterr().err == "error: --external-cmd must not contain a line break\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("reply, entry", [("* 0:inf 1:-inf", "0:inf"),
                                          ("* 0:1e308 1:1e308", "0:1e308")])
def test_sparse_probability_outside_0_1_is_one_error_line(tmp_path, motif_file, reply, entry):
    # a new interpreter, so that a numpy warning would print as it does for a user
    responder = tmp_path / "hostile.py"
    responder.write_text(f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n")
    src = str(Path(swingbench.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "swingbench.cli", "challenge", "--corpus", str(motif_file),
         "--out", str(tmp_path / "out"), "--model", "external",
         "--external-cmd", f"{sys.executable} {responder}", "--count", "2"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 1
    assert done.stderr == f"error: sparse entry {entry!r}: probability outside [0, 1]\n"


@pytest.mark.parametrize("model", ["ngram", "uniform", "oracle"])
def test_external_cmd_with_another_model_is_a_usage_error(tmp_path, motif_file, capsys, model):
    code = run("challenge", "--corpus", motif_file, "--model", model, "--external-cmd", "true",
               "--out", tmp_path / "out", "--count", 2)
    assert code == 1
    err = capsys.readouterr().err
    assert "--external-cmd" in err and f"cannot be used with --model {model}" in err
    assert not (tmp_path / "out").exists()


def test_external_model_that_ignores_end_of_input_is_killed(
    tmp_path, motif_file, capsys, monkeypatch
):
    from swingbench.tokenizer import DEFAULT_VOCABULARY as V

    monkeypatch.setattr(chal, "CLOSE_TIMEOUT_S", 0.2)
    pid_file = tmp_path / "pid"
    script = tmp_path / "stubborn_model.py"
    script.write_text(
        "import os, sys, time\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        f"V = {V.size}\n"
        "for line in sys.stdin:\n"
        "    print(' '.join(['%.10g' % (1.0 / V)] * V), flush=True)\n"
        "time.sleep(60)\n"
    )
    code = run(
        "challenge", "--corpus", motif_file, "--out", tmp_path / "ext",
        "--model", "external", "--external-cmd", f"{sys.executable} {script}",
        "--count", 4, "--seed", 1,
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "did not exit" in err and str(script) in err
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


@pytest.mark.parametrize("reply", ["", "0.5 0.5"], ids=["never-answers", "half-a-line"])
def test_external_model_that_stalls_times_out(tmp_path, motif_file, capsys, monkeypatch, reply):
    monkeypatch.setattr(chal, "READ_TIMEOUT_S", 0.2)
    monkeypatch.setattr(chal, "CLOSE_TIMEOUT_S", 0.2)
    pid_file = tmp_path / "pid"
    script = tmp_path / "stalled_model.py"
    script.write_text(
        "import os, sys, time\n"
        f"open({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "sys.stdin.readline()\n"
        f"sys.stdout.write({reply!r})\n"
        "sys.stdout.flush()\n"
        "time.sleep(30)\n"
    )
    start = time.monotonic()
    code = run(
        "challenge", "--corpus", motif_file, "--out", tmp_path / "ext",
        "--model", "external", "--external-cmd", f"{sys.executable} {script}",
        "--count", 2, "--seed", 1,
    )
    assert time.monotonic() - start < 10
    assert code == 1
    err = capsys.readouterr().err
    assert str(script) in err and "sent no whole reply line within 0.2 s" in err
    with pytest.raises(ProcessLookupError):  # killed and reaped
        os.kill(int(pid_file.read_text()), 0)


def test_external_model_that_exits_early_names_its_exit_code(tmp_path, motif_file, capsys):
    command = f"{sys.executable} -c 'import sys; sys.stderr.write(\"boom\"); sys.exit(3)'"
    code = run(
        "challenge", "--corpus", motif_file, "--out", tmp_path / "ext",
        "--model", "external", "--external-cmd", command, "--count", 2, "--seed", 1,
    )
    assert code == 1
    assert "exited with code 3; its stderr ends: boom" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command,message",
    [
        ("'unbalanced", "--external-cmd \"'unbalanced\" cannot be split into words"),
        ("{missing}", "--external-cmd '{missing}': cannot start '{missing}'"),
        ("", "--external-cmd with a command is required"),
    ],
    ids=["unbalanced-quote", "missing-program", "empty"],
)
def test_bad_external_cmd_is_named_and_makes_no_directory(
    tmp_path, motif_file, capsys, command, message
):
    missing = tmp_path / "no-such-model"
    out = tmp_path / "out"
    code = run("challenge", "--corpus", motif_file, "--out", out, "--model", "external",
               "--external-cmd", command.format(missing=missing), "--count", 2)
    assert code == 1
    assert message.format(missing=missing) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [("tokenize",), ("train-model",), ("challenge", "--model", "uniform", "--count", 2)],
    ids=["tokenize", "train-model", "challenge"],
)
def test_repetition_past_the_vocabulary_is_a_named_error(tmp_path, repetition_13_file, capsys,
                                                         argv):
    out = tmp_path / "out"
    assert run(argv[0], "--corpus", repetition_13_file, "--out", out, *argv[1:]) == 1
    assert ("error: solo 'thirteen' part A13: repetition 13 outside the vocabulary's range 1-12"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("kind, message", [
    ("end", "error: solo 'end': note 6 (onset 2.0) is in no beat's span "
            "[onset, onset + duration)"),
    ("gap", "error: solo 'gap': note 3 (onset 0.75) is in no beat's span "
            "[onset, onset + duration)"),
], ids=["track-end", "gap"])
def test_note_in_no_beat_is_refused_alike_by_every_corpus_command(tmp_path, capsys, kind,
                                                                  message):
    corpus = _unplaced_corpus(tmp_path / "corpus.jsonl", kind)
    out = tmp_path / "out"
    for argv in (("tokenize", "--out", out),
                 ("report", "--out", out),
                 ("scape", "--piece", kind, "--out", out),
                 ("challenge", "--model", "uniform", "--count", 2, "--out", out),
                 ("train-model", "--out", out / "model.json")):
        assert run(argv[0], "--corpus", corpus, *argv[1:]) == 1, argv[0]
        assert capsys.readouterr().err.splitlines() == [message], argv[0]
        assert not out.exists(), argv[0]


def test_infinite_beat_onset_is_refused_by_every_corpus_command(tmp_path, capsys):
    corpus = _one_bar_corpus(tmp_path / "long.jsonl",
                             [(0.0, 0.5), (0.5, 0.5), (1.0, 0.5), (float("inf"), 0.5)])
    assert "Infinity" in corpus.read_text()
    out = tmp_path / "out"
    for argv in (("tokenize", "--out", out),
                 ("report", "--out", out),
                 ("scape", "--piece", "long", "--out", out),
                 ("challenge", "--model", "uniform", "--count", 2, "--out", out),
                 ("train-model", "--out", out / "model.json")):
        assert run(argv[0], "--corpus", corpus, *argv[1:]) == 1, argv[0]
        assert capsys.readouterr().err.splitlines() == [
            "error: solo 'long': beat at inf: onset_sec must be finite"], argv[0]
        assert not out.exists(), argv[0]


def _hostile_corpus(path: Path, change) -> Path:
    """A one-solo corpus, ``change``d from what save_corpus writes."""
    record = json.loads(json.dumps(solo_to_record(sectional_solo("s", form="AB",
                                                                   section_bars=2))))
    change(record)
    path.write_text(json.dumps(record) + "\n")
    return path


@pytest.mark.parametrize("change, message", [
    (lambda r: r["notes"].__setitem__(0, 0), "solo 's' note 0: row is not a list (0)"),
    (lambda r: r["notes"].__setitem__(0, {}), "solo 's' note 0: row is not a list ({})"),
    (lambda r: r.update(parts=[3]), "solo 's' part 0: row is not a list (3)"),
    (lambda r: r.update(notes=128), "solo 's': 'notes' is not a list (128)"),
    (lambda r: r.update(beats=None), "solo 's': 'beats' is not a list (None)"),
    (lambda r: r.update(id=None), "{corpus} line 1: solo id None is not a string"),
    (lambda r: r.update(id=True), "{corpus} line 1: solo id True is not a string"),
    (lambda r: r.update(id={"a": 1}), "{corpus} line 1: solo id {'a': 1} is not a string"),
], ids=["note-int", "note-object", "part-int", "notes-int", "beats-null", "id-null", "id-bool",
        "id-object"])
def test_record_of_the_wrong_json_type_is_one_named_error(tmp_path, capsys, change, message):
    corpus = _hostile_corpus(tmp_path / "hostile.jsonl", change)
    assert run("tokenize", "--corpus", corpus, "--out", tmp_path / "out") == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: " + message.replace("{corpus}", str(corpus))]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("row, field, value, expected", [
    ("notes", 3, 1e308, "NoteVelocity(32)"),
    ("notes", 3, -1e308, "NoteVelocity(1)"),
    ("notes", 1, 1e308, "NoteDuration(32)"),
    ("beats", 1, 1e-320, "Tempo(59)"),
], ids=["loud", "quiet", "long-note", "short-beat"])
def test_number_past_a_quantizer_range_encodes_at_its_bound(tmp_path, row, field, value,
                                                            expected):
    def change(record):
        record[row][0 if row == "notes" else -1][field] = value
    corpus = _hostile_corpus(tmp_path / "hostile.jsonl", change)
    assert run("tokenize", "--corpus", corpus, "--out", tmp_path / "out") == 0
    # the first note's token, or the last beat's: the bound, not an OverflowError
    category = expected.split("(")[0]
    tokens = [str(t) for t in read_tokens(tmp_path / "out" / "s.tokens")
              if t.category == category]
    assert tokens[0 if row == "notes" else -1] == expected


@pytest.mark.parametrize("count", ["0", "-3"])
def test_challenge_count_below_one_is_a_usage_error(tmp_path, motif_file, capsys, count):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run("challenge", "--corpus", motif_file, "--model", "uniform", "--out", out,
            "--count", count)
    assert exc.value.code == 2
    assert "--count: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["tokenize", "detokenize", "report", "scape", "generate"])
def test_failed_run_makes_no_out_directory(tmp_path, corpus_file, repetition_13_file, capsys,
                                           command):
    bad_tokens = tmp_path / "bad.tokens"
    bad_tokens.write_text("Position(3)\n")
    not_a_model = tmp_path / "model.json"
    not_a_model.write_text("not json")
    inputs = {
        # the first solo encodes, the second does not
        "tokenize": ("--corpus", repetition_13_file),
        "detokenize": ("--tokens", bad_tokens),
        "report": ("--corpus", tmp_path / "missing.jsonl"),
        "scape": ("--corpus", corpus_file, "--piece", "nope"),
        "generate": ("--model-file", not_a_model),
    }[command]
    out = tmp_path / "out"
    assert run(command, *inputs, "--out", out) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_detokenize_refuses_two_files_of_one_stem(tmp_path, corpus_file, capsys):
    for side in ("a", "b"):
        assert run("tokenize", "--corpus", corpus_file, "--out", tmp_path / side) == 0
    first = sorted((tmp_path / "a").glob("*.tokens"))[0]
    second = tmp_path / "b" / first.name
    out = tmp_path / "midi"
    capsys.readouterr()
    assert run("detokenize", "--tokens", first, second, "--out", out) == 1
    assert capsys.readouterr().err == (
        f"error: {first} and {second} would both write {first.stem}.mid\n")
    assert not out.exists()


def test_detokenize_decodes_every_file_before_making_out(tmp_path, corpus_file, capsys):
    tok = tmp_path / "tok"
    assert run("tokenize", "--corpus", corpus_file, "--out", tok) == 0
    good = sorted(tok.glob("*.tokens"))[0]
    bad = tmp_path / "bad.tokens"
    bad.write_text("Position(3)\n")
    out = tmp_path / "out"
    assert run("detokenize", "--tokens", good, bad, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")
    assert not out.exists()


# SHA-256 of each MIDI file that detokenize writes for a corpus with chords,
# recorded while the chord register was still a setting.
PINNED_MIDI = {
    "rand-000.mid": "6ada27c3f6a165d1168ae8e50cca41d442cfad02749a942e24d48d5464a62ce9",
    "rand-001.mid": "067f4b411300a9f9218a1f0bd93af7606d772ab7579d1806a12ee9814c879323",
    "rand-002.mid": "07aa1452617d311d9c3b16415c2cf24256a10f853f0b6fae4a64615003414e8e",
    "rand-003.mid": "b872a49e90cecab40c061320009775e9ce87fb8393934957dd05945670c89d10",
}


def test_detokenize_midi_bytes_pinned(tmp_path, corpus_file):
    tok = tmp_path / "tok"
    assert run("tokenize", "--corpus", corpus_file, "--out", tok) == 0
    assert all(any(t.category == "ChordTone" for t in read_tokens(f))
               for f in tok.glob("*.tokens"))
    assert run("detokenize", "--tokens", *sorted(tok.glob("*.tokens")), "--out",
               tmp_path / "mid") == 0
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
               for f in sorted((tmp_path / "mid").glob("*.mid"))}
    assert digests == PINNED_MIDI


def test_chord_register_is_a_usage_error(tmp_path, capsys):
    # chords are voiced at one register, midi.CHORD_REGISTER
    with pytest.raises(SystemExit) as exc:
        run("detokenize", "--tokens", tmp_path / "one.tokens", "--out", tmp_path / "out",
            "--chord-register", 60)
    assert exc.value.code == 2
    assert "unrecognized arguments: --chord-register 60" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["tokenize", "report"])
@pytest.mark.parametrize("ids, line, problem", [
    (["dup", "dup"], 2, "repeats an earlier solo's"),
    (["ok", "../escaped"], 2, "is not a file name"),
    (["", "ok"], 1, "is not a file name"),
    (["ok", "a\0b"], 2, "is not a file name"),
    (["a\tb", "ok"], 1, "is not a file name"),
    (["ok", "c\nd"], 2, "is not a file name"),
    (["ok", "c\u2028d"], 2, "is not a file name"),
], ids=["repeated", "parent-dir", "empty", "nul", "tab", "line-feed", "line-separator"])
def test_solo_id_that_cannot_name_its_files_is_refused(tmp_path, capsys, command, ids, line,
                                                       problem):
    corpus = tmp_path / "ids.jsonl"
    save_corpus([sectional_solo(i, form="A", repetitions=1, section_bars=1) for i in ids],
                corpus)
    images = ["--scape-images"] if command == "report" else []
    assert run(command, "--corpus", corpus, "--out", tmp_path / "out" / "sub", *images) == 1
    err = capsys.readouterr().err
    assert f"{corpus} line {line}: solo id {ids[line - 1]!r} {problem}" in err
    # nothing is written, neither under --out nor beside it
    assert not (tmp_path / "out").exists()


def _name_case(tmp_path: Path, motif_file: Path, case: str, name: str) -> list:
    """The argv of one command whose input, named ``name``, it must refuse."""
    corpus = tmp_path / f"{name}.jsonl"
    corpus.write_bytes(motif_file.read_bytes())
    out = ["--out", tmp_path / "out"]
    if case in ("tokenize", "report"):
        return [case, "--corpus", corpus, *out]
    if case == "challenge":
        return [case, "--corpus", corpus, "--model", "uniform", "--count", 2, *out]
    if case == "generate":  # train-model writes the file; its name goes into each header
        model = tmp_path / f"{name}.json"
        assert run("train-model", "--corpus", motif_file, "--out", model, "--order", 2) == 0
        return [case, "--model-file", model, "--bars", 2, *out]
    tokens = tmp_path / "tok"
    assert run("tokenize", "--corpus", motif_file, "--out", tokens) == 0
    named = tokens / f"{name}.tokens"
    (tokens / "motif-000.tokens").rename(named)
    if case == "detokenize":
        return [case, "--tokens", named, *out]
    return [case.split("-")[0], "--tokens-dir", tokens, *out]  # report- and challenge-tokens


@pytest.mark.parametrize("case", ["tokenize", "report", "challenge", "generate", "detokenize",
                                  "report-tokens", "challenge-tokens"])
@pytest.mark.parametrize("name", ["a\nb", "a\rb", "a\r\nb", "a\u2028b", "a\tb"],
                         ids=["line-feed", "carriage-return", "crlf", "line-separator", "tab"])
def test_an_input_name_that_would_split_a_line_or_cell_is_refused(tmp_path, motif_file, capsys,
                                                                 case, name):
    argv = _name_case(tmp_path, motif_file, case, name)
    capsys.readouterr()
    code = run(*argv)
    err = capsys.readouterr().err
    if "\t" in name and case not in ("report-tokens", "challenge-tokens"):
        # a tab splits no header line, and only a token file's stem is a table's piece id
        assert code == 0, err
        return
    assert code == 1
    assert err.count("error:") == 1 and len(err.splitlines()) == 1
    assert repr(name)[1:-1] in err
    assert not (tmp_path / "out").exists()


def test_an_empty_source_name_is_recorded(tmp_path, motif_file, monkeypatch):
    assert run("tokenize", "--corpus", motif_file, "--out", tmp_path / "tok") == 0
    monkeypatch.chdir(tmp_path / "tok")
    assert run("report", "--tokens-dir", ".", "--out", tmp_path / "rep") == 0
    assert "# cfg source=" in (tmp_path / "rep" / "report.tsv").read_text().splitlines()


def _fresh_child(code: str):
    """Run ``code`` in a new interpreter that imports the package from this
    checkout; it prints one JSON object on its last line of stdout."""
    src = str(Path(swingbench.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n"
                           + code], capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_cli_import_does_not_load_scipy():
    # scipy is a test-only dependency; the runtime needs numpy alone
    assert not _fresh_child(
        "import json, swingbench.cli\nprint(json.dumps('scipy' in sys.modules))")


def test_cli_import_loads_the_codec_layers_but_not_numpy():
    loaded = _fresh_child(
        "import json, swingbench.cli\n"
        "print(json.dumps(sorted(sys.modules)))"
    )
    # perfbench's tracer looks these up in sys.modules once cli is imported
    assert {f"swingbench.{m}" for m in ("corpus", "tokenizer", "metrics", "midi")} <= set(loaded)
    unwanted = ["numpy", "swingbench.challenge", "swingbench.structure", "swingbench.synthetic"]
    assert [m for m in unwanted if m in loaded] == []


def test_tokenize_and_detokenize_run_without_numpy(tmp_path, corpus_file):
    def command(*argv) -> dict:
        return _fresh_child(
            "import json\nfrom swingbench import cli\n"
            f"code = cli.main({[str(a) for a in argv]!r})\n"
            "print(json.dumps({'code': code, 'numpy': 'numpy' in sys.modules}))"
        )

    assert command("tokenize", "--corpus", corpus_file, "--out", tmp_path / "tok") == {
        "code": 0, "numpy": False}
    tokens = sorted((tmp_path / "tok").glob("*.tokens"))
    assert command("detokenize", "--tokens", *tokens, "--out", tmp_path / "midi") == {
        "code": 0, "numpy": False}
    assert len(list((tmp_path / "midi").glob("*.mid"))) == len(tokens) == 4


@pytest.mark.parametrize("model", ["oracle", "uniform", "external"])
@pytest.mark.parametrize(
    "flags, named",
    [(["--order", "5"], "--order"), (["--alpha", "0.01"], "--alpha"),
     (["--alpha", "3", "--order", "7"], "--order and --alpha")],
)
def test_ngram_settings_with_another_model_are_a_named_error(
    tmp_path, motif_file, capsys, model, flags, named
):
    extra = ["--external-cmd", "true"] if model == "external" else []
    out = tmp_path / "out"
    code = run("challenge", "--corpus", motif_file, "--model", model, *extra, *flags,
               "--out", out, "--count", 2)
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {named} cannot be used with --model {model}, which trains no n-gram model\n"
    )
    assert not out.exists()


def test_ngram_settings_with_a_model_file_are_a_named_error(tmp_path, motif_file, capsys):
    model_path = tmp_path / "o2.json"
    run("train-model", "--corpus", motif_file, "--out", model_path, "--order", 2)
    out = tmp_path / "out"
    code = run("challenge", "--corpus", motif_file, "--model-file", model_path, "--order", 5,
               "--out", out, "--count", 2)
    assert code == 1
    assert "--order cannot be used with --model-file" in capsys.readouterr().err
    assert not out.exists()


def test_ngram_challenge_header_keeps_its_defaults(tmp_path, motif_file):
    default, explicit = tmp_path / "default", tmp_path / "explicit"
    common = ["challenge", "--corpus", motif_file, "--count", 2, "--seed", 1]
    assert run(*common, "--out", default) == 0
    assert run(*common, "--out", explicit, "--order", 5, "--alpha", 0.01) == 0
    assert (default / "challenge.tsv").read_bytes() == (explicit / "challenge.tsv").read_bytes()
    assert _cfg_lines(default) == [
        "# cfg alpha=0.01", "# cfg command=challenge", "# cfg count=2", "# cfg model=ngram",
        "# cfg no_structure=False", "# cfg order=5", "# cfg seed=1", "# cfg source=motifs.jsonl",
    ]
