from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swingbench.chords import parse_chord
from swingbench.corpus import FormPart, Solo, transpose_solo
from swingbench.synthetic import four_four_beats, random_corpus, random_solo
from swingbench.tokenizer import (
    BAR,
    CHORD_SLASH,
    CHORD_TONE,
    CHORD_TYPE,
    DEFAULT_VOCABULARY,
    MLU,
    NOTE_DURATION,
    NOTE_ON,
    NOTE_VELOCITY,
    PART_END,
    PART_START,
    PHRASE,
    POSITION,
    REP_END,
    REP_START,
    TEMPO,
    TEMPO_CLASS,
    EventToken,
    QuantizationError,
    TokenGrammarError,
    TokenizationError,
    beat_for_onset,
    decode_tokens,
    derive_tempo_events,
    encode_solo,
    justify_position,
    note_grid_position,
    parse_token,
    quantize_duration,
    quantize_velocity,
    read_tokens,
    repair_token_stream,
    tempo_value_to_bpm,
    velocity_to_midi,
    write_tokens,
)

V = DEFAULT_VOCABULARY


# --- quantizers -------------------------------------------------------------


@pytest.mark.parametrize("db,expected", [(65.0, 20), (30.0, 1), (90.0, 32),
                                         (1e308, 32), (-1e308, 1)])
def test_quantize_velocity(db, expected):
    assert quantize_velocity(db) == expected


def test_quantize_velocity_rejects_nan():
    with pytest.raises(QuantizationError):
        quantize_velocity(float("nan"))


@pytest.mark.parametrize("vbin,midi", [(1, 3), (32, 127), (20, 79)])
def test_velocity_to_midi(vbin, midi):
    assert velocity_to_midi(vbin) == midi


def test_velocity_to_midi_range():
    with pytest.raises(QuantizationError):
        velocity_to_midi(0)
    with pytest.raises(QuantizationError):
        velocity_to_midi(33)


def test_quantize_duration_quarter_note():
    assert quantize_duration(0.5, 0.5) == 16


def test_quantize_duration_clips_at_half_note():
    assert quantize_duration(1.5, 0.5) == 32
    # a length past float range clips too, and does not overflow math.floor
    assert quantize_duration(1e308, 0.5) == 32
    assert quantize_duration(0.5, 1e-320) == 32


def test_quantize_duration_discards_sub_64th():
    assert quantize_duration(0.5 / 40.0, 0.5) is None
    assert quantize_duration(1e-320, 1e308) is None


def test_quantize_duration_rejects_nonpositive():
    with pytest.raises(QuantizationError):
        quantize_duration(0.0, 0.5)


@pytest.mark.parametrize(
    "p_b,t_b,d_b,t_n,expected",
    [(0, 0.0, 0.5, 0.0, 0), (16, 1.0, 0.5, 1.25, 24), (48, 3.0, 0.6, 3.33, 57)],
)
def test_justify_position(p_b, t_b, d_b, t_n, expected):
    assert justify_position(p_b, t_b, d_b, t_n) == expected


def test_justify_position_outside_beat():
    with pytest.raises(QuantizationError, match="outside"):
        justify_position(0, 0.0, 0.5, 0.6)


def test_justify_position_clamps_to_bar():
    # an onset rounding up at the very end of beat 4 stays inside the bar
    assert justify_position(48, 0.0, 1.0, 0.99) == 63


def test_derive_tempo_events_120bpm():
    assert derive_tempo_events(0.5) == (3, 28)  # class 3, step 4


def test_derive_tempo_events_class_edges():
    assert derive_tempo_events(60.0 / 50.0) == (1, 0)
    assert derive_tempo_events(60.0 / 49.0) == (1, 0)  # clamped up to 50
    assert derive_tempo_events(60.0 / 500.0) == (5, 59)  # clamped down to <320
    assert derive_tempo_events(1e-320) == (5, 59)  # an infinite bpm too
    assert derive_tempo_events(1e308) == (1, 0)


def test_tempo_steps_are_even_within_class():
    # first class spans 50..80 in 2.5 bpm steps
    assert [tempo_value_to_bpm(v) for v in range(3)] == [50.0, 52.5, 55.0]


def test_tempo_roundtrip_within_one_step():
    # probe just inside each step: edge values themselves are float-fragile
    for value in range(60):
        bpm = tempo_value_to_bpm(value) + 0.1
        assert derive_tempo_events(60.0 / bpm)[1] == value


# --- vocabulary ---------------------------------------------------------------


def test_vocabulary_ids_dense_and_bijective():
    ids = [V.token_id(V.token(i)) for i in range(V.size)]
    assert ids == list(range(V.size))


def test_vocabulary_chord_token_count_is_71():
    assert V.chord_token_count == 71


def test_vocabulary_category_ranges():
    assert V.value_range(NOTE_VELOCITY) == range(1, 33)
    assert V.value_range(POSITION) == range(0, 64)
    assert V.value_range(TEMPO) == range(0, 60)
    assert V.value_range(TEMPO_CLASS) == range(1, 6)


def test_tokens_to_ids_names_a_token_outside_the_vocabulary():
    with pytest.raises(KeyError, match=r"token RepStart\(13\) not in vocabulary"):
        V.tokens_to_ids([EventToken(BAR, 0), EventToken(REP_START, 13)])


def test_token_text_roundtrip():
    for i in range(V.size):
        tok = V.token(i)
        assert parse_token(str(tok)) == tok
        assert list(V.texts([tok])) == [str(tok)]


def test_vocabulary_sidecar(tmp_path):
    path = tmp_path / "vocab.tsv"
    V.save(path)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == V.size
    first_token, first_id = lines[0].split("\t")
    assert first_token == "Bar(0)" and first_id == "0"
    assert V.size == 443
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "0e2a9a3da0882a5dc6ee65fd72f1f442b9320be39df8248c4e73173232380df3"
    )


# --- encoding ----------------------------------------------------------------


def test_encode_empty_bar_layout():
    beats = four_four_beats(1, bpm=120.0)
    solo = Solo(id="empty", notes=(), beats=tuple(beats), parts=())
    tokens = encode_solo(solo)
    cats = [t.category for t in tokens]
    assert cats == [BAR] + [POSITION, TEMPO_CLASS, TEMPO] * 4
    assert [t.value for t in tokens if t.category == POSITION] == [0, 16, 32, 48]


def test_encode_note_event_order(simple_solo):
    tokens = encode_solo(simple_solo, include_structure=False)
    texts = [str(t) for t in tokens]
    i = texts.index("Position(16)")
    assert texts[i + 1 : i + 6] == [
        "TempoClass(3)",
        "Tempo(28)",
        "NoteVelocity(20)",
        "NoteOn(64)",
        "NoteDuration(14)",  # 0.9 of a beat -> round(14.4)
    ]


def test_encode_chord_emitted_once_on_change(simple_solo):
    tokens = encode_solo(simple_solo)
    chord_tokens = [t for t in tokens if t.category == CHORD_TONE]
    assert len(chord_tokens) == 1  # C7 held for both bars


def test_encode_chord_triple_contiguous(simple_solo):
    tokens = encode_solo(simple_solo)
    cats = [t.category for t in tokens]
    i = cats.index(CHORD_TONE)
    assert cats[i : i + 3] == [CHORD_TONE, CHORD_TYPE, CHORD_SLASH]


def test_encode_structure_markers(aaba_solo):
    tokens = encode_solo(aaba_solo)
    cats = [t.category for t in tokens]
    assert cats[0] == BAR
    assert cats[1:3] == [PART_START, REP_START]
    assert cats[-2:] == [REP_END, PART_END]
    # phrase marker directly precedes its note triple
    i = cats.index(PHRASE)
    assert cats[i + 1] in (MLU, NOTE_VELOCITY)


def test_encode_no_structure_flag(aaba_solo):
    tokens = encode_solo(aaba_solo, include_structure=False)
    cats = {t.category for t in tokens}
    assert cats.isdisjoint({PHRASE, MLU, PART_START, PART_END, REP_START, REP_END})
    structured = encode_solo(aaba_solo, include_structure=True)
    assert sum(t.category == NOTE_ON for t in structured) == sum(
        t.category == NOTE_ON for t in tokens
    )


def test_encode_positions_strictly_increase(small_corpus):
    for solo in small_corpus:
        last = None
        for tok in encode_solo(solo):
            if tok.category == BAR:
                last = None
            elif tok.category == POSITION:
                assert last is None or tok.value > last
                last = tok.value


def test_encode_drops_only_sub64_notes():
    corpus = random_corpus(seed=3, size=4, n_bars=8, sub64_fraction=0.2)
    for solo in corpus:
        onsets = [b.onset_sec for b in solo.beats]
        expected_kept = sum(
            quantize_duration(
                n.duration_sec, beat_for_onset(solo.beats, onsets, n.onset_sec).duration_sec
            )
            is not None
            for n in solo.notes
        )
        tokens = encode_solo(solo)
        assert sum(t.category == NOTE_ON for t in tokens) == expected_kept


@pytest.mark.parametrize(
    "change,message",
    [
        ({"notes": 0, "pitch": 128}, "solo 'simple' note 0: pitch 128 outside 0-127"),
        ({"notes": 0, "mlu_label": "bogus"}, "solo 'simple' note 0: MLU label 'bogus' not in"),
        ({"parts": 0, "letter": "Z"}, "solo 'simple' part Z1: part letter 'Z' not in"),
        ({"parts": 0, "repetition": 13},
         "solo 'simple' part A13: repetition 13 outside the vocabulary's range 1-12"),
        ({"parts": 0, "repetition": 0},
         "solo 'simple' part A0: repetition 0 outside the vocabulary's range 1-12"),
    ],
    ids=["pitch", "mlu", "part-letter", "repetition-13", "repetition-0"],
)
def test_encode_refuses_a_value_outside_the_vocabulary(simple_solo, change, message):
    change = dict(change)
    field, index = next((k, change.pop(k)) for k in ("notes", "parts") if k in change)
    solo = dataclasses.replace(simple_solo, parts=(FormPart("A", 1, 0, 1),))
    items = list(getattr(solo, field))
    items[index] = dataclasses.replace(items[index], **change)
    solo = dataclasses.replace(solo, **{field: tuple(items)})
    with pytest.raises(TokenizationError) as info:
        encode_solo(solo)
    assert str(info.value).startswith(message)


# --- decoding ------------------------------------------------------------------


def test_decode_roundtrip_quadruples(small_corpus):
    for solo in small_corpus:
        onsets = [b.onset_sec for b in solo.beats]
        first_bar = solo.beats[0].bar_index
        expected = []
        for n in solo.notes:
            beat = beat_for_onset(solo.beats, onsets, n.onset_sec)
            units = quantize_duration(n.duration_sec, beat.duration_sec)
            if units is None:
                continue
            expected.append(
                (
                    beat.bar_index - first_bar,
                    note_grid_position(n, solo.beats, onsets),
                    units,
                    quantize_velocity(n.loudness_db),
                    n.pitch,
                )
            )
        timeline = decode_tokens(encode_solo(solo))
        got = [
            (n.bar, n.position, n.duration_units, n.velocity_bin, n.pitch)
            for n in timeline.notes
        ]
        assert sorted(got) == sorted(expected)


def test_decode_reconstructs_annotations(aaba_solo):
    timeline = decode_tokens(encode_solo(aaba_solo))
    assert any(n.phrase_start for n in timeline.notes)
    assert any(n.mlu_label == "line" for n in timeline.notes)
    assert {m.category for m in timeline.structure} == {
        PART_START,
        PART_END,
        REP_START,
        REP_END,
    }


def test_decode_timing_follows_tempo(simple_solo):
    timeline = decode_tokens(encode_solo(simple_solo))
    # 120 bpm quantizes to the 120.0 step boundary, so timing is exact
    assert timeline.bar_times == [0.0, 2.0, 4.0]
    assert timeline.notes[1].onset_sec == pytest.approx(0.5)


def test_decode_chord_pitches(simple_solo):
    timeline = decode_tokens(encode_solo(simple_solo))
    assert timeline.chords[0].symbol == parse_chord("C7")


def test_decode_velocity_mapping(simple_solo):
    timeline = decode_tokens(encode_solo(simple_solo))
    assert all(n.velocity_midi == 4 * n.velocity_bin - 1 for n in timeline.notes)


def test_decode_rejects_orphan_note_on():
    tokens = [
        EventToken(BAR, 0),
        EventToken(POSITION, 0),
        EventToken(NOTE_ON, 60),
    ]
    with pytest.raises(TokenGrammarError, match="NoteVelocity") as err:
        decode_tokens(tokens)
    assert err.value.index == 2


def test_decode_rejects_nonincreasing_positions():
    tokens = [
        EventToken(BAR, 0),
        EventToken(POSITION, 16),
        EventToken(POSITION, 16),
    ]
    with pytest.raises(TokenGrammarError, match="increase"):
        decode_tokens(tokens)


def test_decode_rejects_truncated_triple():
    tokens = [
        EventToken(BAR, 0),
        EventToken(POSITION, 0),
        EventToken(NOTE_VELOCITY, 10),
    ]
    with pytest.raises(TokenGrammarError, match="ends inside"):
        decode_tokens(tokens)


def test_decode_rejects_content_before_bar():
    with pytest.raises(TokenGrammarError, match="before the first Bar"):
        decode_tokens([EventToken(POSITION, 0)])


def test_decode_rejects_note_before_position():
    tokens = [EventToken(BAR, 0), EventToken(NOTE_VELOCITY, 1)]
    with pytest.raises(TokenGrammarError, match="Position"):
        decode_tokens(tokens)


# --- properties ------------------------------------------------------------------


def test_transpose_commutes_with_encoding(small_corpus):
    for solo in small_corpus[:3]:
        for k in (-3, -1, 2, 3):
            try:
                moved = transpose_solo(solo, k)
            except Exception:
                continue
            direct = encode_solo(moved, include_structure=False)
            shifted = []
            for tok in encode_solo(solo, include_structure=False):
                if tok.category == NOTE_ON:
                    shifted.append(EventToken(NOTE_ON, tok.value + k))
                elif tok.category in (CHORD_TONE, CHORD_SLASH):
                    shifted.append(EventToken(tok.category, (tok.value + k) % 12))
                else:
                    shifted.append(tok)
            assert direct == shifted


def test_token_file_roundtrip(tmp_path, simple_solo):
    tokens = encode_solo(simple_solo)
    path = tmp_path / "simple.tokens"
    write_tokens(tokens, path)
    assert read_tokens(path) == tokens


def test_read_tokens_rejects_unknown(tmp_path):
    path = tmp_path / "bad.tokens"
    path.write_text("Bar(0)\nNoteOn(200)\n")
    with pytest.raises(ValueError, match="line 2"):
        read_tokens(path)


@pytest.mark.parametrize("text,message", [
    (b"Bar(0)\nPosition(0)\n\xff\n", "line 3: not UTF-8 text"),
    # only \n ends a line, so a bare \r is inside one
    (b"Bar(0)\rBar(0)\n", "line 1: malformed token text"),
])
def test_read_tokens_names_the_line_of_bytes_it_cannot_read(tmp_path, text, message):
    path = tmp_path / "bad.tokens"
    path.write_bytes(text)
    with pytest.raises(ValueError, match=f"bad.tokens {message}"):
        read_tokens(path)


# Raw text that may stand in place of one line of a token file, or of one
# token's value: wrong types, extreme and non-finite numbers, empty
# containers, long strings and numerals, and bytes that are not UTF-8.
_HOSTILE_TEXT = [
    b"", b"x", b"()", b"Bar", b"Bar(", b"#", b"0", b"-1", b"0.5", b"1e308", b"-1e308", b"inf",
    b"-inf", b"nan", b"1e-320", b"9223372036854775808", b"-9223372036854775809", b"[]", b"{}",
    b"x" * 100_000, b"9" * 5000, b"\xff", b"\xc3(", b"\x00", b"\r",
]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_bars=st.integers(1, 3), data=st.data())
def test_token_file_with_one_hostile_line_decodes_or_names_its_error(seed, n_bars, data):
    solo = random_solo(np.random.default_rng(seed), "fuzz", n_bars=n_bars)
    lines = [str(tok).encode() for tok in encode_solo(solo)]
    at = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["line", "value", "token"]))
    if kind == "token":  # another vocabulary token: the grammar must refuse it by name
        lines[at] = str(DEFAULT_VOCABULARY.token(data.draw(
            st.integers(0, DEFAULT_VOCABULARY.size - 1)))).encode()
    else:
        hostile = data.draw(st.sampled_from(_HOSTILE_TEXT))
        category = lines[at][: lines[at].index(b"(")]
        lines[at] = hostile if kind == "line" else category + b"(" + hostile + b")"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.tokens"
        path.write_bytes(b"# swingbench run\n" + b"\n".join(lines) + b"\n")
        try:
            tokens = read_tokens(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path} line "), exc
        else:
            try:
                decode_tokens(tokens)
            except TokenGrammarError:
                pass


# --- repair ------------------------------------------------------------------------


def test_repair_accepts_valid_stream(simple_solo):
    tokens = encode_solo(simple_solo)
    repaired, dropped = repair_token_stream(tokens)
    assert repaired == tokens
    assert dropped == 0


def test_repair_drops_orphans_and_decodes():
    tokens = [
        EventToken(NOTE_ON, 60),  # before any bar
        EventToken(BAR, 0),
        EventToken(NOTE_VELOCITY, 5),  # before any position
        EventToken(POSITION, 0),
        EventToken(TEMPO_CLASS, 3),
        EventToken(TEMPO, 28),
        EventToken(NOTE_VELOCITY, 5),
        EventToken(NOTE_ON, 60),
        EventToken(NOTE_DURATION, 8),
        EventToken(POSITION, 0),  # non-increasing
        EventToken(NOTE_VELOCITY, 9),
        EventToken(CHORD_TONE, 0),  # interrupts the note triple
        EventToken(CHORD_TYPE, 11),
        EventToken(CHORD_SLASH, 0),
        EventToken(NOTE_DURATION, 4),  # orphan
    ]
    repaired, dropped = repair_token_stream(tokens)
    timeline = decode_tokens(repaired)
    assert dropped == 5
    assert len(timeline.notes) == 1
    assert len(timeline.chords) == 1


def test_repair_random_id_soup_decodes():
    rng = np.random.default_rng(11)
    ids = rng.integers(0, V.size, size=2000)
    repaired, _ = repair_token_stream(V.ids_to_tokens(ids))
    if any(t.category == BAR for t in repaired):
        decode_tokens(repaired)  # must not raise


def test_repair_random_id_soup_pinned_counts():
    rng = np.random.default_rng(11)
    ids = rng.integers(0, V.size, size=2000)
    repaired, dropped = repair_token_stream(V.ids_to_tokens(ids))
    assert (len(repaired), dropped) == (183, 1817)


# --- grammar properties -----------------------------------------------------------

# Ids of tokens that build valid groups, mixed into uniform ids so that
# drawn streams reach past the first few grammar checks.
_GRAMMAR_IDS = [
    V.token_id(EventToken(cat, val))
    for cat, val in [
        (BAR, 0), (POSITION, 0), (POSITION, 16), (POSITION, 40), (TEMPO_CLASS, 3),
        (TEMPO, 28), (CHORD_TONE, 0), (CHORD_TYPE, 11), (CHORD_SLASH, 0), (PHRASE, 0),
        (MLU, 1), (NOTE_VELOCITY, 5), (NOTE_ON, 60), (NOTE_DURATION, 8),
        (PART_START, 0), (REP_START, 1), (REP_END, 1), (PART_END, 0),
    ]
]
_id_lists = st.lists(
    st.one_of(st.integers(0, V.size - 1), st.sampled_from(_GRAMMAR_IDS)), max_size=120
)


@settings(max_examples=150, deadline=None)
@given(_id_lists)
def test_property_repair_keeps_a_decodable_subsequence(ids):
    tokens = V.ids_to_tokens(ids)
    repaired, dropped = repair_token_stream(tokens)
    assert len(repaired) + dropped == len(tokens)
    remaining = iter(tokens)
    assert all(tok in remaining for tok in repaired)  # a subsequence of the input
    if any(t.category == BAR for t in repaired):
        decode_tokens(repaired)  # must not raise
        assert repair_token_stream(repaired) == (repaired, 0)


@settings(max_examples=150, deadline=None)
@given(_id_lists)
def test_property_decode_accepts_exactly_what_repair_keeps_whole(ids):
    tokens = V.ids_to_tokens(ids)
    untouched = repair_token_stream(tokens) == (tokens, 0) and any(
        t.category == BAR for t in tokens
    )
    try:
        decode_tokens(tokens)
    except TokenGrammarError:
        assert not untouched
    else:
        assert untouched


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.booleans())
def test_property_repair_leaves_encoded_solos_alone(seed, n_bars, with_structure):
    solo = random_solo(np.random.default_rng(seed), "prop", n_bars=n_bars)
    tokens = encode_solo(solo, include_structure=with_structure)
    assert repair_token_stream(tokens) == (tokens, 0)
