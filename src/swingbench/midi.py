"""Minimal standard MIDI file writer for decoded timelines.

Writes format 0 at 480 ticks per quarter note.  Timing comes straight
from the token grid, so a 64th-note position equals 30 ticks: melody
notes land on channel 0, chord voicings on channel 1 (held until the
next chord change), and every tempo event becomes a set-tempo meta
message.
"""

from __future__ import annotations

from pathlib import Path

from .chords import chord_to_pitches
from .tokenizer import POSITIONS_PER_BAR, DecodedTimeline

TICKS_PER_QUARTER = 480
TICKS_PER_POSITION = TICKS_PER_QUARTER * 4 // POSITIONS_PER_BAR  # 30
TICKS_PER_BAR = TICKS_PER_QUARTER * 4

MELODY_CHANNEL = 0
CHORD_CHANNEL = 1
CHORD_VELOCITY = 48
# The MIDI pitch whose octave holds each chord's root; every chord symbol
# voices inside pitches 48-92 here.
CHORD_REGISTER = 60


def encode_variable_length(value: int) -> bytes:
    """MIDI variable-length quantity (7 bits per byte, high bit chains)."""
    if value < 0:
        raise ValueError("delta times must be non-negative")
    chunks = [value & 0x7F]
    value >>= 7
    while value:
        chunks.append(0x80 | (value & 0x7F))
        value >>= 7
    return bytes(reversed(chunks))


def _tick(bar: int, position: int) -> int:
    return bar * TICKS_PER_BAR + position * TICKS_PER_POSITION


def timeline_to_midi_bytes(timeline: DecodedTimeline, meta_text: str | None = None) -> bytes:
    """Render a decoded timeline as the bytes of a format-0 MIDI file.

    ``meta_text`` is embedded as a text meta event at tick 0 (used for
    provenance headers).
    """
    # (tick, order, message): order keeps tempo first, then offs, then ons.
    events: list[tuple[int, int, bytes]] = []

    if meta_text is not None:
        payload = meta_text.encode("utf-8")
        events.append((0, 0, bytes([0xFF, 0x01]) + encode_variable_length(len(payload)) + payload))

    for point in timeline.tempo_curve:
        usec_per_quarter = round(60_000_000 / point.bpm)
        events.append(
            (
                _tick(point.bar, point.position),
                0,
                bytes([0xFF, 0x51, 0x03]) + usec_per_quarter.to_bytes(3, "big"),
            )
        )

    for note in timeline.notes:
        on = _tick(note.bar, note.position)
        off = on + note.duration_units * TICKS_PER_POSITION
        events.append((on, 2, bytes([0x90 | MELODY_CHANNEL, note.pitch, note.velocity_midi])))
        events.append((off, 1, bytes([0x80 | MELODY_CHANNEL, note.pitch, 0])))

    end_tick = timeline.bar_count * TICKS_PER_BAR
    chord_ticks = [_tick(c.bar, c.position) for c in timeline.chords]
    for i, chord in enumerate(timeline.chords):
        on = chord_ticks[i]
        off = chord_ticks[i + 1] if i + 1 < len(chord_ticks) else end_tick
        for pitch in chord_to_pitches(chord.symbol, CHORD_REGISTER):
            events.append((on, 2, bytes([0x90 | CHORD_CHANNEL, pitch, CHORD_VELOCITY])))
            events.append((off, 1, bytes([0x80 | CHORD_CHANNEL, pitch, 0])))

    events.sort(key=lambda e: (e[0], e[1]))

    track = bytearray()
    cursor = 0
    for tick, _, message in events:
        track += encode_variable_length(tick - cursor)
        track += message
        cursor = tick
    track += encode_variable_length(max(end_tick - cursor, 0))
    track += bytes([0xFF, 0x2F, 0x00])

    header = (
        b"MThd"
        + (6).to_bytes(4, "big")
        + (0).to_bytes(2, "big")
        + (1).to_bytes(2, "big")
        + TICKS_PER_QUARTER.to_bytes(2, "big")
    )
    return header + b"MTrk" + len(track).to_bytes(4, "big") + bytes(track)


def write_midi(timeline: DecodedTimeline, path: str | Path, meta_text: str | None = None) -> None:
    Path(path).write_bytes(timeline_to_midi_bytes(timeline, meta_text))

