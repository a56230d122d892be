from __future__ import annotations

import dataclasses
import json
import math
import re

import pytest

from swingbench.chords import parse_chord
from swingbench.corpus import (
    CorpusError,
    EmptyCorpusError,
    FormPart,
    Note,
    Solo,
    TranspositionError,
    beat_index,
    load_corpus,
    save_corpus,
    transpose_solo,
    validate_solo,
)
from swingbench.synthetic import four_four_beats


def test_save_load_identity(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus, path)
    assert load_corpus(path) == small_corpus


def test_load_preserves_ids(tmp_path, small_corpus):
    path = tmp_path / "corpus.jsonl"
    save_corpus(small_corpus, path)
    assert [s.id for s in load_corpus(path)] == [s.id for s in small_corpus]


def test_load_empty_corpus_is_distinct_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(EmptyCorpusError):
        load_corpus(path)


def test_load_rejects_bad_pitch(tmp_path, simple_solo):
    bad = dataclasses.replace(simple_solo.notes[0], pitch=128)
    solo = dataclasses.replace(simple_solo, notes=(bad,) + simple_solo.notes[1:])
    path = tmp_path / "bad.jsonl"
    save_corpus([solo], path)
    with pytest.raises(CorpusError, match="pitch 128"):
        load_corpus(path)


def test_load_rejects_three_beat_bar(tmp_path, simple_solo):
    solo = dataclasses.replace(simple_solo, beats=simple_solo.beats[:-1], notes=simple_solo.notes[:4])
    path = tmp_path / "bad.jsonl"
    save_corpus([solo], path)
    with pytest.raises(CorpusError, match="4/4"):
        load_corpus(path)


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x", "notes": [\n')
    with pytest.raises(CorpusError, match="line 1"):
        load_corpus(path)


@pytest.mark.parametrize("line", ["[" * 100_000 + "]" * 100_000, "1" * 5000],
                         ids=["nested-too-deep", "int-too-long"])
def test_load_names_the_line_of_json_that_python_cannot_read(tmp_path, line):
    path = tmp_path / "bad.jsonl"
    path.write_text("\n" + line + "\n")
    with pytest.raises(CorpusError, match=r"line 2: invalid JSON"):
        load_corpus(path)


def test_load_rejects_wrong_field_type(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"id":"x","notes":[[0.0,"long",60,65.0,false,null]],'
        '"beats":[[0.0,0.5,0,0,null],[0.5,0.5,0,1,null],[1.0,0.5,0,2,null],[1.5,0.5,0,3,null]],"parts":[]}\n'
    )
    with pytest.raises(CorpusError, match="duration_sec"):
        load_corpus(path)


def test_load_rejects_an_int_too_large_for_a_float(tmp_path):
    path = tmp_path / "bad.jsonl"
    save_corpus([Solo("x", (Note(0.0, 0.5, 60, 65.0),), tuple(four_four_beats(1)))], path)
    path.write_text(path.read_text().replace("65.0", "1" + "0" * 400))
    with pytest.raises(CorpusError, match=r"^solo 'x' note 0: field 'loudness_db' has wrong type"):
        load_corpus(path)


def test_load_names_the_file_and_line_of_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "bad.jsonl"
    save_corpus([Solo("x", (), tuple(four_four_beats(1)))], path)
    path.write_bytes(path.read_bytes() + b'{"id":"\xff"}\n')
    expected = rf"^{re.escape(str(path))} line 2: not UTF-8 text \('utf-8' codec"
    with pytest.raises(CorpusError, match=expected):
        load_corpus(path)


@pytest.mark.parametrize("kind, row, fields, extra", [
    ("note", 1, 6, [True]),
    ("beat", 3, 5, ["C", 0]),
    ("part", 0, 4, [None]),
])
@pytest.mark.parametrize("every_row", [False, True])
def test_load_refuses_a_row_with_more_fields_than_its_kind(tmp_path, kind, row, fields, extra,
                                                           every_row):
    path = tmp_path / "extra.jsonl"
    notes = (Note(0.0, 0.5, 60, 65.0), Note(0.5, 0.5, 62, 65.0, mlu_label="lick"))
    save_corpus([Solo("x", notes, tuple(four_four_beats(1)), (FormPart("A", 1, 0, 0),))], path)
    record = json.loads(path.read_text())
    rows = record[f"{kind}s"]
    for i in range(len(rows)) if every_row else [row]:
        rows[i] += extra
    path.write_text(json.dumps(record) + "\n")
    first = 0 if every_row else row
    message = (f"solo 'x' {kind} {first}: {fields + len(extra)} fields, "
               f"more than the {fields} of a {kind}")
    with pytest.raises(CorpusError, match=f"^{message}$"):
        load_corpus(path)


def test_validate_valid_solo(simple_solo):
    assert validate_solo(simple_solo) == []


def test_validate_unsorted_notes(simple_solo):
    solo = dataclasses.replace(simple_solo, notes=tuple(reversed(simple_solo.notes)))
    violations = validate_solo(solo)
    assert any("not sorted" in v for v in violations)


def test_validate_overlapping_parts(simple_solo):
    solo = dataclasses.replace(
        simple_solo,
        parts=(FormPart("A", 1, 0, 1), FormPart("B", 1, 1, 1), FormPart("A", 2, 1, 1)),
    )
    violations = validate_solo(solo)
    assert sum("overlap" in v for v in violations) == 2


def test_validate_reports_every_violation(simple_solo):
    bad_note = dataclasses.replace(simple_solo.notes[0], pitch=200, duration_sec=-1.0)
    solo = dataclasses.replace(simple_solo, notes=(bad_note,) + simple_solo.notes[1:])
    violations = validate_solo(solo)
    assert len(violations) >= 2


def test_validate_mlu_allow_list(simple_solo):
    note = dataclasses.replace(simple_solo.notes[0], mlu_label="noodle")
    solo = dataclasses.replace(simple_solo, notes=(note,) + simple_solo.notes[1:])
    assert any("mlu_label" in v for v in validate_solo(solo))


def test_validate_note_outside_beat_span(simple_solo):
    late = Note(onset_sec=1000.0, duration_sec=0.1, pitch=60, loudness_db=65.0)
    solo = dataclasses.replace(simple_solo, notes=simple_solo.notes + (late,))
    assert any("span" in v for v in validate_solo(solo))


@pytest.mark.parametrize("onset, expected", [
    (0.0, 0),  # a beat holds its own onset
    (0.49, 0),
    (0.5, -1),  # and not its end, here a gap before the next beat
    (0.7, -1),
    (1.0, 1),
    (1.6, -1),  # the end of the beat track
    (-0.1, -1),  # before the first beat
    (math.nan, -1),
])
def test_beat_index_places_an_onset_in_the_beat_that_holds_it(onset, expected):
    beats = [dataclasses.replace(b, duration_sec=0.5) for b in four_four_beats(1, bpm=60.0)]
    beats = beats[:2]  # [0, 0.5) and [1.0, 1.5)
    assert beat_index(beats, [b.onset_sec for b in beats], onset) == expected
    assert beat_index([], [], onset) == -1  # no beat track at all


def test_validate_nan_beat_onset(simple_solo):
    beats = list(simple_solo.beats)
    beats[2] = dataclasses.replace(beats[2], onset_sec=math.nan)
    solo = dataclasses.replace(simple_solo, beats=tuple(beats))
    assert validate_solo(solo) == ["beat track onsets not strictly increasing"]


def test_validate_infinite_beat_onset(simple_solo):
    # the last note goes too, so that no note is left outside the beats
    beats = list(simple_solo.beats)
    beats[-1] = dataclasses.replace(beats[-1], onset_sec=math.inf)
    solo = dataclasses.replace(simple_solo, notes=simple_solo.notes[:-1], beats=tuple(beats))
    assert validate_solo(solo) == ["beat at inf: onset_sec must be finite"]


def test_transpose_identity(simple_solo):
    assert transpose_solo(simple_solo, 0) == simple_solo


def test_transpose_worked_example(simple_solo):
    up = transpose_solo(simple_solo, 2)
    assert up.notes[0].pitch == 62
    assert up.beats[0].chord == "D7"
    assert transpose_solo(up, -2) == simple_solo


def test_transpose_shifts_slash():
    beats = four_four_beats(1, chords=["C7/G", None, None, None])
    solo = Solo(
        id="s",
        notes=(Note(0.0, 0.4, 60, 65.0),),
        beats=tuple(beats),
        parts=(),
    )
    assert transpose_solo(solo, 2).beats[0].chord == "D7/A"


def test_transpose_preserves_counts_and_timing(small_corpus):
    for solo in small_corpus:
        for k in (-3, 3):
            moved = transpose_solo(solo, k)
            assert len(moved.notes) == len(solo.notes)
            assert len(moved.beats) == len(solo.beats)
            assert all(
                a.onset_sec == b.onset_sec and a.duration_sec == b.duration_sec
                for a, b in zip(moved.notes, solo.notes)
            )


def test_transpose_roundtrip_property(small_corpus):
    # chords in the synthetic corpus are canonically spelled, so the
    # string-level round trip is exact
    for solo in small_corpus:
        for k in range(-3, 4):
            assert transpose_solo(transpose_solo(solo, k), -k) == solo


def test_transpose_pitch_overflow():
    beats = four_four_beats(1)
    solo = Solo(id="s", notes=(Note(0.0, 0.4, 1, 65.0),), beats=tuple(beats), parts=())
    with pytest.raises(TranspositionError, match="onset 0.0"):
        transpose_solo(solo, -3)


def test_transpose_range_enforced(simple_solo):
    with pytest.raises(ValueError):
        transpose_solo(simple_solo, 4)


def test_random_corpus_is_valid(small_corpus):
    for solo in small_corpus:
        assert validate_solo(solo) == []


def test_chord_intervals_merge_held_chords_and_end_at_span():
    # C7 restated after two unannotated beats, then F7 from beat 4 on
    chords = [None, "C7", None, "C7", "F7", None, "F7", None]
    beats = four_four_beats(2, bpm=120.0, chords=chords)
    solo = Solo(id="spans", notes=(), beats=tuple(beats), parts=())
    intervals = solo.chord_intervals()
    assert intervals == [(0.5, 2.0, parse_chord("C7")), (2.0, 4.0, parse_chord("F7"))]
    assert intervals[-1][1] == solo.span()[1]


def test_chord_intervals_without_chords_is_empty():
    solo = Solo(id="bare", notes=(), beats=tuple(four_four_beats(1)), parts=())
    assert solo.chord_intervals() == []
