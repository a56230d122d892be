"""Chord symbol parsing, formatting, transposition, and voicing.

A chord symbol such as ``C7/G`` is decomposed into three parts: a root
pitch class (tone), a quality looked up in a fixed table of key templates
(type), and a bass pitch class (slash).  When no slash is written, the
bass defaults to the root.  The template table carries 47 qualities, so
together with 12 tones and 12 slashes the chord system spans exactly 71
distinct symbols.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache


class ChordError(ValueError):
    """Raised when a chord symbol cannot be parsed or voiced."""


PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

_ROOT_PITCH_CLASS = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}
_ACCIDENTAL_SHIFT = {"": 0, "#": 1, "b": -1}


@dataclass(frozen=True)
class ChordQuality:
    """One entry of the key-template table.

    ``intervals`` are semitone offsets from the root, starting at 0 and
    strictly increasing (e.g. a dominant 7th is ``(0, 4, 7, 10)``).
    ``symbol`` is the canonical suffix used when formatting; ``aliases``
    are additional accepted spellings.
    """

    name: str
    symbol: str
    intervals: tuple[int, ...]
    aliases: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.intervals or self.intervals[0] != 0:
            raise ValueError(f"template for {self.name!r} must start at 0")
        if any(b <= a for a, b in zip(self.intervals, self.intervals[1:])):
            raise ValueError(f"template for {self.name!r} must be strictly increasing")
        if any(i < 0 or i > 21 for i in self.intervals):
            raise ValueError(f"template for {self.name!r} exceeds the two-octave range")


# Default quality inventory: triads, suspensions, sixths, sevenths, and the
# extended/altered dominants common on jazz lead sheets.  47 entries.
CHORD_QUALITIES: tuple[ChordQuality, ...] = (
    ChordQuality("maj", "", (0, 4, 7), ("maj", "M")),
    ChordQuality("m", "m", (0, 3, 7), ("min", "-")),
    ChordQuality("dim", "dim", (0, 3, 6), ("o",)),
    ChordQuality("aug", "aug", (0, 4, 8), ("+",)),
    ChordQuality("5", "5", (0, 7)),
    ChordQuality("sus2", "sus2", (0, 2, 7)),
    ChordQuality("sus4", "sus4", (0, 5, 7), ("sus",)),
    ChordQuality("6", "6", (0, 4, 7, 9), ("maj6", "M6")),
    ChordQuality("m6", "m6", (0, 3, 7, 9), ("min6", "-6")),
    ChordQuality("69", "69", (0, 4, 7, 9, 14), ("6/9",)),
    ChordQuality("m69", "m69", (0, 3, 7, 9, 14), ("m6/9",)),
    ChordQuality("7", "7", (0, 4, 7, 10), ("dom7",)),
    ChordQuality("maj7", "maj7", (0, 4, 7, 11), ("M7", "j7")),
    ChordQuality("m7", "m7", (0, 3, 7, 10), ("min7", "-7")),
    ChordQuality("mmaj7", "mmaj7", (0, 3, 7, 11), ("mM7", "minmaj7", "-maj7", "mj7")),
    ChordQuality("dim7", "dim7", (0, 3, 6, 9), ("o7",)),
    ChordQuality("m7b5", "m7b5", (0, 3, 6, 10), ("-7b5", "min7b5")),
    ChordQuality("7#5", "7#5", (0, 4, 8, 10), ("aug7", "+7")),
    ChordQuality("7b5", "7b5", (0, 4, 6, 10)),
    ChordQuality("maj7#5", "maj7#5", (0, 4, 8, 11), ("M7#5",)),
    ChordQuality("maj7b5", "maj7b5", (0, 4, 6, 11), ("M7b5",)),
    ChordQuality("7sus4", "7sus4", (0, 5, 7, 10), ("7sus",)),
    ChordQuality("add9", "add9", (0, 4, 7, 14)),
    ChordQuality("madd9", "madd9", (0, 3, 7, 14)),
    ChordQuality("9", "9", (0, 4, 7, 10, 14)),
    ChordQuality("maj9", "maj9", (0, 4, 7, 11, 14), ("M9", "j9")),
    ChordQuality("m9", "m9", (0, 3, 7, 10, 14), ("min9", "-9")),
    ChordQuality("mmaj9", "mmaj9", (0, 3, 7, 11, 14), ("mM9",)),
    ChordQuality("9sus4", "9sus4", (0, 5, 7, 10, 14), ("9sus",)),
    ChordQuality("9#5", "9#5", (0, 4, 8, 10, 14), ("aug9", "+9")),
    ChordQuality("9b5", "9b5", (0, 4, 6, 10, 14)),
    ChordQuality("7b9", "7b9", (0, 4, 7, 10, 13)),
    ChordQuality("7#9", "7#9", (0, 4, 7, 10, 15)),
    ChordQuality("7#11", "7#11", (0, 4, 7, 10, 14, 18)),
    ChordQuality("maj7#11", "maj7#11", (0, 4, 7, 11, 14, 18), ("M7#11",)),
    ChordQuality("11", "11", (0, 4, 7, 10, 14, 17)),
    ChordQuality("m11", "m11", (0, 3, 7, 10, 14, 17), ("min11", "-11")),
    ChordQuality("maj11", "maj11", (0, 4, 7, 11, 14, 17), ("M11",)),
    ChordQuality("13", "13", (0, 4, 7, 10, 14, 21)),
    ChordQuality("maj13", "maj13", (0, 4, 7, 11, 14, 21), ("M13",)),
    ChordQuality("m13", "m13", (0, 3, 7, 10, 14, 17, 21), ("min13", "-13")),
    ChordQuality("13b9", "13b9", (0, 4, 7, 10, 13, 21)),
    ChordQuality("13#11", "13#11", (0, 4, 7, 10, 14, 18, 21)),
    ChordQuality("7b13", "7b13", (0, 4, 7, 10, 14, 20)),
    ChordQuality("7b9b13", "7b9b13", (0, 4, 7, 10, 13, 20)),
    ChordQuality("7b9#11", "7b9#11", (0, 4, 7, 10, 13, 18)),
    ChordQuality("7alt", "7alt", (0, 4, 8, 10, 13, 15), ("alt",)),
)

NUM_CHORD_TYPES = len(CHORD_QUALITIES)

_QUALITY_INDEX: dict[str, int] = {}
for _i, _q in enumerate(CHORD_QUALITIES):
    for _a in (_q.symbol, _q.name, *_q.aliases):
        _QUALITY_INDEX.setdefault(_a, _i)

_ROOT_RE = re.compile(r"^([A-G])([#b]?)")
_BASS_RE = re.compile(r"/([A-G])([#b]?)$")


@dataclass(frozen=True)
class ChordSymbol:
    """A decomposed chord: root pitch class, quality index, bass pitch class."""

    tone: int
    type_index: int
    slash: int

    def __post_init__(self) -> None:
        if not 0 <= self.tone <= 11:
            raise ChordError(f"tone {self.tone} out of range 0-11")
        if not 0 <= self.type_index < NUM_CHORD_TYPES:
            raise ChordError(f"chord type index {self.type_index} out of range")
        if not 0 <= self.slash <= 11:
            raise ChordError(f"slash {self.slash} out of range 0-11")

    @property
    def quality(self) -> ChordQuality:
        return CHORD_QUALITIES[self.type_index]

    def transposed(self, semitones: int) -> "ChordSymbol":
        return ChordSymbol(
            (self.tone + semitones) % 12, self.type_index, (self.slash + semitones) % 12
        )


def _pitch_class(letter: str, accidental: str) -> int:
    return (_ROOT_PITCH_CLASS[letter] + _ACCIDENTAL_SHIFT[accidental]) % 12


# A corpus spells a few dozen distinct chords over thousands of beats, and
# ChordSymbol is frozen, so one parse serves every beat that repeats it.
@lru_cache(maxsize=4096)
def parse_chord(symbol: str) -> ChordSymbol:
    """Parse a chord string like ``C7``, ``Dm7`` or ``C7/G``.

    The bass defaults to the root when no slash is present.  Raises
    :class:`ChordError` for an unknown root letter; an unknown quality is
    reported together with the closest known spellings.
    """
    if not symbol:
        raise ChordError("empty chord symbol")
    m = _ROOT_RE.match(symbol)
    if m is None:
        raise ChordError(f"unparseable chord symbol {symbol!r}: no root in A-G")
    tone = _pitch_class(m.group(1), m.group(2))
    rest = symbol[m.end():]

    slash = tone
    b = _BASS_RE.search(rest)
    if b is not None:
        slash = _pitch_class(b.group(1), b.group(2))
        rest = rest[: b.start()]

    type_index = _QUALITY_INDEX.get(rest)
    if type_index is None:
        import difflib  # only to name the qualities an unknown one is close to

        near = difflib.get_close_matches(rest, _QUALITY_INDEX.keys(), n=3, cutoff=0.4)
        raise ChordError(
            f"unknown chord quality {rest!r} in {symbol!r}"
            + (f"; close to {near}" if near else "")
        )
    return ChordSymbol(tone, type_index, slash)


def format_chord(chord: ChordSymbol) -> str:
    """Canonical string form; inverse of :func:`parse_chord` up to aliasing."""
    text = PITCH_CLASS_NAMES[chord.tone] + chord.quality.symbol
    if chord.slash != chord.tone:
        text += "/" + PITCH_CLASS_NAMES[chord.slash]
    return text


def transpose_chord_string(symbol: str, semitones: int) -> str:
    """Shift tone and slash of a chord string, leaving the quality as is."""
    return format_chord(parse_chord(symbol).transposed(semitones))


def chord_to_pitches(chord: ChordSymbol, register: int = 60) -> list[int]:
    """Realize a chord as MIDI pitches: bass note plus root-position voicing.

    The root is placed in the octave containing ``register``; the bass is
    the slash pitch class one octave below the root.
    """
    if not 0 <= register <= 127:
        raise ChordError(f"register {register} outside MIDI range")
    octave_base = register - register % 12
    root = octave_base + chord.tone
    bass = root - 12 + (chord.slash - chord.tone) % 12
    pitches = [bass] + [root + iv for iv in chord.quality.intervals]
    if pitches[0] < 0 or pitches[-1] > 127:
        raise ChordError(
            f"voicing of {format_chord(chord)} at register {register} leaves MIDI range"
        )
    return pitches


def chord_pitch_classes(chord: ChordSymbol) -> set[int]:
    """Sounding pitch classes of a chord: template over the root plus the bass."""
    classes = {(chord.tone + iv) % 12 for iv in chord.quality.intervals}
    classes.add(chord.slash)
    return classes
