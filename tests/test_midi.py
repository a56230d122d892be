from __future__ import annotations

from itertools import product

import pytest

from swingbench.chords import ChordSymbol, chord_to_pitches
from swingbench.midi import (
    CHORD_REGISTER,
    TICKS_PER_POSITION,
    encode_variable_length,
    timeline_to_midi_bytes,
    write_midi,
)
from swingbench.tokenizer import (
    CHORD_SLASH,
    CHORD_TONE,
    CHORD_TYPE,
    DEFAULT_VOCABULARY as VOCAB,
    decode_tokens,
    encode_solo,
)


def read_events(data: bytes) -> list[tuple[int, bytes]]:
    """A tiny structural reader of a format-0 file: (absolute tick, message) pairs."""
    if data[:4] != b"MThd":
        raise ValueError("not a MIDI file")
    track_start = data.index(b"MTrk") + 8
    out: list[tuple[int, bytes]] = []
    i = track_start
    tick = 0
    while i < len(data):
        delta = 0
        while True:
            byte = data[i]
            i += 1
            delta = (delta << 7) | (byte & 0x7F)
            if not byte & 0x80:
                break
        tick += delta
        status = data[i]
        if status == 0xFF:
            j = i + 2
            length = 0
            while True:
                byte = data[j]
                j += 1
                length = (length << 7) | (byte & 0x7F)
                if not byte & 0x80:
                    break
            message = data[i : j + length]
            i = j + length
        elif (status & 0xF0) in (0x80, 0x90):
            message = data[i : i + 3]
            i += 3
        else:
            raise ValueError(f"unexpected status byte {status:#x}")
        out.append((tick, bytes(message)))
        if message[:2] == b"\xff\x2f":
            break
    return out


@pytest.mark.parametrize(
    "value,encoded",
    [(0, b"\x00"), (0x7F, b"\x7f"), (0x80, b"\x81\x00"), (0x3FFF, b"\xff\x7f"), (614980, b"\xa5\xc4\x44")],
)
def test_variable_length_quantity(value, encoded):
    assert encode_variable_length(value) == encoded


def test_header_format0_480tpq(simple_solo):
    data = timeline_to_midi_bytes(decode_tokens(encode_solo(simple_solo)))
    assert data[:4] == b"MThd"
    assert int.from_bytes(data[8:10], "big") == 0  # format 0
    assert int.from_bytes(data[10:12], "big") == 1  # single track
    assert int.from_bytes(data[12:14], "big") == 480


def test_track_events(simple_solo):
    timeline = decode_tokens(encode_solo(simple_solo))
    events = read_events(timeline_to_midi_bytes(timeline))

    tempo = [(t, m) for t, m in events if m[:2] == b"\xff\x51"]
    assert len(tempo) == len(timeline.tempo_curve) == 8
    usec = int.from_bytes(tempo[0][1][3:], "big")
    assert usec == round(60_000_000 / 120.0)

    note_ons = [(t, m) for t, m in events if m[0] & 0xF0 == 0x90]
    melody_ons = [(t, m) for t, m in note_ons if m[0] & 0x0F == 0]
    assert len(melody_ons) == len(timeline.notes)
    first = timeline.notes[0]
    assert melody_ons[0][0] == first.bar * 1920 + first.position * TICKS_PER_POSITION
    assert melody_ons[0][1][1] == first.pitch
    assert melody_ons[0][1][2] == first.velocity_midi

    chord_ons = [(t, m) for t, m in note_ons if m[0] & 0x0F == 1]
    assert len(chord_ons) == 5  # bass + four chord tones of C7
    assert sorted(m[1] for _, m in chord_ons) == [48, 60, 64, 67, 70]


def test_note_offs_pair_with_ons(simple_solo):
    timeline = decode_tokens(encode_solo(simple_solo))
    events = read_events(timeline_to_midi_bytes(timeline))
    ons = sum(m[0] & 0xF0 == 0x90 for _, m in events)
    offs = sum(m[0] & 0xF0 == 0x80 for _, m in events)
    assert ons == offs


def test_off_before_on_at_same_tick(aaba_solo):
    timeline = decode_tokens(encode_solo(aaba_solo))
    events = read_events(timeline_to_midi_bytes(timeline))
    active: set[tuple[int, int]] = set()
    for _, message in events:
        status, kind = message[0], message[0] & 0xF0
        if kind == 0x90:
            key = (status & 0x0F, message[1])
            assert key not in active, "note-on while the same pitch is sounding"
            active.add(key)
        elif kind == 0x80:
            active.discard((status & 0x0F, message[1]))
    assert not active


def test_write_midi_file(tmp_path, simple_solo):
    path = tmp_path / "out.mid"
    write_midi(decode_tokens(encode_solo(simple_solo)), path)
    assert path.read_bytes()[:4] == b"MThd"


def test_every_chord_in_the_vocabulary_voices_inside_midi_range():
    # so detokenize, which voices every chord at CHORD_REGISTER, cannot fail there
    triples = list(product(*map(VOCAB.value_range, (CHORD_TONE, CHORD_TYPE, CHORD_SLASH))))
    assert len(triples) == 12 * 47 * 12
    pitches = [pitch for triple in triples
               for pitch in chord_to_pitches(ChordSymbol(*triple), CHORD_REGISTER)]
    assert (min(pitches), max(pitches)) == (48, 92)
