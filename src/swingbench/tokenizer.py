"""Event vocabulary and the bidirectional codec between solos and tokens.

A solo becomes a flat stream of events.  Within every bar: a ``Bar``
marker, then each occupied 64th-grid position in ascending order.  A
position carries, in fixed order, the beat's tempo pair (every beat
position always does), a chord triple when the chord changes, and the
notes starting there, each one the contiguous triple ``NoteVelocity,
NoteOn, NoteDuration`` optionally prefixed by ``Phrase`` and ``MLU``
markers.  Form parts open right after the ``Bar`` of their first bar
(``PartStart``, ``RepStart``) and close at the end of their last bar
(``RepEnd``, ``PartEnd``).

``_GROUP_GRAMMAR`` is the one statement of this grammar inside a position;
``decode_tokens`` walks it strictly, ``repair_token_stream`` leniently and
``challenge.generate_tokens`` by the ids it allows, through the same
``_GrammarWalker``.

Quantization:

* loudness dB -> velocity bin ``v = floor((80 + 3*(dB - 65)) / 4)``
  clipped to 1..32, rendered back to MIDI velocity ``4*v - 1``;
* note length -> 64th-note multiples 1..32 relative to the containing
  beat, sub-64th notes dropped, longer than a half note clipped;
* onset -> grid position ``round(p_beat + 16 * (t_note - t_beat) / d_beat)``
  where beats sit at positions 0/16/32/48 of the 64-subunit bar;
* beat duration -> one of 5 tempo classes over the bpm boundaries
  (50, 80, 110, 140, 180, 320) and one of 12 even steps inside the class.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, Sequence

from .chords import NUM_CHORD_TYPES, ChordSymbol, parse_chord
from .corpus import DEFAULT_MLU_LABELS, Beat, FormPart, Note, Solo, beat_index

# Token categories.
BAR = "Bar"
POSITION = "Position"
TEMPO_CLASS = "TempoClass"
TEMPO = "Tempo"
NOTE_VELOCITY = "NoteVelocity"
NOTE_ON = "NoteOn"
NOTE_DURATION = "NoteDuration"
CHORD_TONE = "ChordTone"
CHORD_TYPE = "ChordType"
CHORD_SLASH = "ChordSlash"
PHRASE = "Phrase"
MLU = "MLU"
PART_START = "PartStart"
PART_END = "PartEnd"
REP_START = "RepStart"
REP_END = "RepEnd"

POSITIONS_PER_BAR = 64
POSITIONS_PER_BEAT = 16
BEAT_POSITIONS = (0, 16, 32, 48)

TEMPO_CLASS_BOUNDS_BPM = (50.0, 80.0, 110.0, 140.0, 180.0, 320.0)
TEMPO_STEPS_PER_CLASS = 12
NUM_TEMPO_CLASSES = len(TEMPO_CLASS_BOUNDS_BPM) - 1

MIN_VELOCITY_BIN, MAX_VELOCITY_BIN = 1, 32
MIN_DURATION_UNITS, MAX_DURATION_UNITS = 1, 32

# Tempo of a decoded stream until its first Tempo token.
DEFAULT_BPM = 120.0


class QuantizationError(ValueError):
    """Invalid input to one of the quantization formulas."""


class TokenizationError(ValueError):
    """A solo cannot be encoded; the message names the offending item."""


class TokenGrammarError(ValueError):
    """A token stream violates the event grammar."""

    def __init__(self, index: int, message: str, expected: Sequence[str] = ()):
        super().__init__(f"token {index}: {message}"
                         + (f" (expected one of {list(expected)})" if expected else ""))
        self.index = index
        self.expected = tuple(expected)


class EventToken(NamedTuple):
    category: str
    value: int = 0

    def __str__(self) -> str:
        return f"{self.category}({self.value})"


_TOKEN_RE = re.compile(r"^([A-Za-z]+)\((-?\d+)\)$")


def parse_token(text: str) -> EventToken:
    m = _TOKEN_RE.match(text.strip())
    if m is None:
        raise ValueError(f"malformed token text {text!r}")
    return EventToken(m.group(1), int(m.group(2)))


# --- quantization formulas ----------------------------------------------


def _floor_into(x: float, lo: int, hi: int) -> int:
    """``floor(x)`` clamped to ``lo..hi``: ``x`` is clamped first, so a huge
    or infinite ``x`` gives a bound and never overflows ``math.floor``."""
    return lo if x < lo else hi if x > hi else math.floor(x)


def quantize_velocity(loudness_db: float) -> int:
    """Map loudness in dB to a velocity bin in 1..32."""
    if not math.isfinite(loudness_db):
        raise QuantizationError(f"loudness must be finite, got {loudness_db}")
    return _floor_into((80.0 + 3.0 * (loudness_db - 65.0)) / 4.0,
                       MIN_VELOCITY_BIN, MAX_VELOCITY_BIN)


def velocity_to_midi(velocity_bin: int) -> int:
    """MIDI velocity for a bin: 1->3, 2->7, ..., 32->127."""
    if not MIN_VELOCITY_BIN <= velocity_bin <= MAX_VELOCITY_BIN:
        raise QuantizationError(f"velocity bin {velocity_bin} outside 1..32")
    return 4 * velocity_bin - 1


def quantize_duration(note_duration_sec: float, beat_duration_sec: float) -> int | None:
    """Note length in 64th-note units (1..32), or None for sub-64th notes.

    Durations longer than a half note (32 units) are clipped to 32.
    """
    if note_duration_sec <= 0 or beat_duration_sec <= 0:
        raise QuantizationError("durations must be positive")
    units = _floor_into(POSITIONS_PER_BEAT * note_duration_sec / beat_duration_sec + 0.5,
                        MIN_DURATION_UNITS - 1, MAX_DURATION_UNITS)
    return units if units >= MIN_DURATION_UNITS else None


def justify_position(
    beat_position: int, beat_onset_sec: float, beat_duration_sec: float, note_onset_sec: float
) -> int:
    """Grid position of a note onset, justified against its containing beat."""
    if beat_position not in BEAT_POSITIONS:
        raise QuantizationError(f"beat position {beat_position} not one of {BEAT_POSITIONS}")
    if beat_duration_sec <= 0:
        raise QuantizationError("beat duration must be positive")
    if not beat_onset_sec <= note_onset_sec < beat_onset_sec + beat_duration_sec:
        raise QuantizationError(
            f"note onset {note_onset_sec} outside beat "
            f"[{beat_onset_sec}, {beat_onset_sec + beat_duration_sec})"
        )
    p = beat_position + POSITIONS_PER_BEAT * (note_onset_sec - beat_onset_sec) / beat_duration_sec
    return _floor_into(p + 0.5, 0, POSITIONS_PER_BAR - 1)


def derive_tempo_events(beat_duration_sec: float) -> tuple[int, int]:
    """Tempo class (1..5) and global tempo step (0..59) for a beat duration.

    Out-of-range bpm values are clamped into [50, 320).
    """
    if beat_duration_sec <= 0:
        raise QuantizationError("beat duration must be positive")
    bpm = 60.0 / beat_duration_sec
    bounds = TEMPO_CLASS_BOUNDS_BPM
    cls = bisect_right(bounds, bpm) - 1
    cls = min(max(cls, 0), NUM_TEMPO_CLASSES - 1)
    lo, hi = bounds[cls], bounds[cls + 1]
    step = _floor_into(TEMPO_STEPS_PER_CLASS * (bpm - lo) / (hi - lo),
                       0, TEMPO_STEPS_PER_CLASS - 1)
    return cls + 1, TEMPO_STEPS_PER_CLASS * cls + step


def tempo_value_to_bpm(tempo_value: int) -> float:
    """Lower-edge bpm of a global tempo step (inverse of the quantizer)."""
    if not 0 <= tempo_value < TEMPO_STEPS_PER_CLASS * NUM_TEMPO_CLASSES:
        raise QuantizationError(f"tempo value {tempo_value} outside 0..59")
    cls, step = divmod(tempo_value, TEMPO_STEPS_PER_CLASS)
    lo, hi = TEMPO_CLASS_BOUNDS_BPM[cls], TEMPO_CLASS_BOUNDS_BPM[cls + 1]
    return lo + step * (hi - lo) / TEMPO_STEPS_PER_CLASS


# --- vocabulary -----------------------------------------------------------


DEFAULT_PART_LETTERS = ("A", "B", "C", "D", "E", "F", "G", "H")
DEFAULT_MAX_REPETITION = 12


class Vocabulary:
    """Dense bijection between the 443 event tokens and integer ids.

    The token set is fixed: the MLU labels, form-part letters and
    repetition ceiling of the WJazzD annotations plus the codec's own
    value ranges.
    """

    def __init__(self):
        self._ranges: dict[str, range] = {
            BAR: range(0, 1),
            POSITION: range(0, POSITIONS_PER_BAR),
            TEMPO_CLASS: range(1, NUM_TEMPO_CLASSES + 1),
            TEMPO: range(0, TEMPO_STEPS_PER_CLASS * NUM_TEMPO_CLASSES),
            NOTE_VELOCITY: range(MIN_VELOCITY_BIN, MAX_VELOCITY_BIN + 1),
            NOTE_ON: range(0, 128),
            NOTE_DURATION: range(MIN_DURATION_UNITS, MAX_DURATION_UNITS + 1),
            CHORD_TONE: range(0, 12),
            CHORD_TYPE: range(0, NUM_CHORD_TYPES),
            CHORD_SLASH: range(0, 12),
            PHRASE: range(0, 1),
            MLU: range(0, len(DEFAULT_MLU_LABELS)),
            PART_START: range(0, len(DEFAULT_PART_LETTERS)),
            PART_END: range(0, len(DEFAULT_PART_LETTERS)),
            REP_START: range(1, DEFAULT_MAX_REPETITION + 1),
            REP_END: range(1, DEFAULT_MAX_REPETITION + 1),
        }
        self._tokens: list[EventToken] = []
        for category, values in self._ranges.items():
            self._tokens.extend(EventToken(category, v) for v in values)
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        self._texts = {tok: str(tok) for tok in self._tokens}
        self._mlu_index = {label: i for i, label in enumerate(DEFAULT_MLU_LABELS)}
        self._part_index = {letter: i for i, letter in enumerate(DEFAULT_PART_LETTERS)}

    @property
    def size(self) -> int:
        return len(self._tokens)

    @property
    def chord_token_count(self) -> int:
        return (
            len(self._ranges[CHORD_TONE])
            + len(self._ranges[CHORD_TYPE])
            + len(self._ranges[CHORD_SLASH])
        )

    def value_range(self, category: str) -> range:
        return self._ranges[category]

    def is_valid(self, token: EventToken) -> bool:
        return token in self._ids

    def token_id(self, token: EventToken) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise KeyError(f"token {token} not in vocabulary") from None

    def token(self, token_id: int) -> EventToken:
        return self._tokens[token_id]

    def tokens_to_ids(self, tokens: Iterable[EventToken]) -> list[int]:
        try:
            return list(map(self._ids.__getitem__, tokens))
        except KeyError as exc:
            raise KeyError(f"token {exc.args[0]} not in vocabulary") from None

    def ids_to_tokens(self, ids: Iterable[int]) -> list[EventToken]:
        return [self._tokens[i] for i in ids]

    def texts(self, tokens: Iterable[EventToken]) -> Iterator[str]:
        """Each token's text as ``str`` gives it, from a table built once;
        every token must be in the vocabulary."""
        return map(self._texts.__getitem__, tokens)

    def mlu_index(self, label: str) -> int:
        try:
            return self._mlu_index[label]
        except KeyError:
            raise TokenizationError(
                f"MLU label {label!r} not in the vocabulary allow-list {DEFAULT_MLU_LABELS}"
            ) from None

    def part_index(self, letter: str) -> int:
        try:
            return self._part_index[letter]
        except KeyError:
            raise TokenizationError(
                f"part letter {letter!r} not in the vocabulary set {DEFAULT_PART_LETTERS}"
            ) from None

    @property
    def bar_token_id(self) -> int:
        return self._ids[EventToken(BAR, 0)]

    def save(self, path: str | Path) -> None:
        """Write the token ->  id sidecar (tab-separated, one token per line)."""
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(f"# vocabulary size {self.size}\n")
            fh.write(f"# MLU labels: {','.join(DEFAULT_MLU_LABELS)}\n")
            fh.write(f"# part letters: {','.join(DEFAULT_PART_LETTERS)}\n")
            fh.write(f"# max repetition: {DEFAULT_MAX_REPETITION}\n")
            for i, tok in enumerate(self._tokens):
                fh.write(f"{tok}\t{i}\n")


DEFAULT_VOCABULARY = Vocabulary()

# The vocabulary's own tokens by category and value.  encode_solo appends
# these rather than building a token per event; a value outside the
# vocabulary has no entry.
_TOKENS: dict[str, dict[int, EventToken]] = {}
for _tok in DEFAULT_VOCABULARY.ids_to_tokens(range(DEFAULT_VOCABULARY.size)):
    _TOKENS.setdefault(_tok.category, {})[_tok.value] = _tok


# --- token file I/O -------------------------------------------------------


def write_tokens(tokens: Iterable[EventToken], path: str | Path,
                 header: Iterable[str] = ()) -> None:
    """Write the ``header`` lines, then each token's text, one per line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(map("{}\n".format, chain(header, DEFAULT_VOCABULARY.texts(tokens))))


def read_tokens(path: str | Path) -> list[EventToken]:
    path = Path(path)
    tokens = []
    # read as bytes, so that a line that is not UTF-8 is named like any other
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path} line {lineno}"
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise ValueError(f"{where}: not UTF-8 text ({exc})") from None
            if not line or line.startswith("#"):
                continue
            try:
                tok = parse_token(line)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            if not DEFAULT_VOCABULARY.is_valid(tok):
                raise ValueError(f"{where}: token {tok} not in vocabulary")
            tokens.append(tok)
    return tokens


# --- encoding -------------------------------------------------------------


def beat_for_onset(beats: Sequence[Beat], onsets: Sequence[float], onset: float) -> Beat:
    """The beat whose [onset, onset+duration) interval contains ``onset``."""
    idx = beat_index(beats, onsets, onset)
    if idx < 0:
        raise TokenizationError(f"onset {onset} is in no beat's span [onset, onset + duration)")
    return beats[idx]


def _grid_position(beat: Beat, onset: float) -> int:
    return justify_position(POSITIONS_PER_BEAT * beat.position_in_bar, beat.onset_sec,
                            beat.duration_sec, onset)


def note_grid_position(note: Note, beats: Sequence[Beat], onsets: Sequence[float]) -> int:
    return _grid_position(beat_for_onset(beats, onsets, note.onset_sec), note.onset_sec)


def place_notes(solo: Solo) -> Iterator[tuple[Note, Beat, int]]:
    """Each note with its beat and grid position, in note order; a note that
    no beat holds raises :class:`TokenizationError` naming solo and note."""
    beats = solo.beats
    onsets = [b.onset_sec for b in beats]
    for i, note in enumerate(solo.notes):
        try:
            beat = beat_for_onset(beats, onsets, note.onset_sec)
            pos = _grid_position(beat, note.onset_sec)
        except (TokenizationError, QuantizationError) as exc:
            raise TokenizationError(f"solo {solo.id!r} note {i}: {exc}") from None
        yield note, beat, pos


def _part_markers(solo: Solo, part: FormPart) -> tuple[list[EventToken], list[EventToken]]:
    """The tokens that open a form part and those that close it."""
    where = f"solo {solo.id!r} part {part.letter}{part.repetition}"
    try:
        letter = _TOKENS[PART_START][DEFAULT_VOCABULARY.part_index(part.letter)]
    except TokenizationError as exc:
        raise TokenizationError(f"{where}: {exc}") from None
    if part.repetition not in _TOKENS[REP_START]:
        raise TokenizationError(
            f"{where}: repetition {part.repetition} outside the vocabulary's range "
            f"1-{DEFAULT_MAX_REPETITION}"
        )
    return (
        [letter, _TOKENS[REP_START][part.repetition]],
        [_TOKENS[REP_END][part.repetition], _TOKENS[PART_END][letter.value]],
    )


def encode_solo(solo: Solo, include_structure: bool = True) -> list[EventToken]:
    """Encode a solo into its event-token sequence.

    Notes shorter than a 64th note are silently dropped.  With
    ``include_structure=False`` the Phrase/MLU/Part/Rep markers are
    omitted and only notes, meter, tempo, and chords remain.  Every token
    returned is in the vocabulary: a value outside it raises
    :class:`TokenizationError` naming the solo.
    """
    by_bar: dict[int, list[Beat]] = {}
    for b in solo.beats:
        by_bar.setdefault(b.bar_index, []).append(b)

    # Each kept note's grid position and event group, by bar.
    note_groups: dict[int, list[tuple[int, list[EventToken]]]] = {}
    phrase, mlus = _TOKENS[PHRASE][0], _TOKENS[MLU]
    velocities, pitches = _TOKENS[NOTE_VELOCITY], _TOKENS[NOTE_ON]
    durations = _TOKENS[NOTE_DURATION]
    for i, (note, beat, pos) in enumerate(place_notes(solo)):
        try:
            units = quantize_duration(note.duration_sec, beat.duration_sec)
            vbin = quantize_velocity(note.loudness_db)
        except QuantizationError as exc:
            raise TokenizationError(
                f"solo {solo.id!r} note at onset {note.onset_sec}: {exc}"
            ) from None
        if units is None:
            continue  # sub-64th note
        if note.pitch not in pitches:
            raise TokenizationError(f"solo {solo.id!r} note {i}: pitch {note.pitch} outside 0-127")
        group = []
        if include_structure:
            if note.phrase_start:
                group.append(phrase)
            if note.mlu_label is not None:
                try:
                    group.append(mlus[DEFAULT_VOCABULARY.mlu_index(note.mlu_label)])
                except TokenizationError as exc:
                    raise TokenizationError(f"solo {solo.id!r} note {i}: {exc}") from None
        group += (velocities[vbin], pitches[note.pitch], durations[units])
        note_groups.setdefault(beat.bar_index, []).append((pos, group))

    tokens: list[EventToken] = []
    bar_token, positions = _TOKENS[BAR][0], _TOKENS[POSITION]
    tempo_classes, tempos = _TOKENS[TEMPO_CLASS], _TOKENS[TEMPO]
    tones, types, slashes = _TOKENS[CHORD_TONE], _TOKENS[CHORD_TYPE], _TOKENS[CHORD_SLASH]
    current_chord: ChordSymbol | None = None
    chord_text: str | None = None  # the text current_chord was last parsed from
    for bar_index in sorted(by_bar):
        groups: dict[int, list[EventToken]] = {}
        for beat in by_bar[bar_index]:
            if not 0 <= beat.position_in_bar <= 3:
                raise TokenizationError(
                    f"solo {solo.id!r} beat at {beat.onset_sec}: "
                    f"position_in_bar {beat.position_in_bar} outside 0-3"
                )
            cls, step = derive_tempo_events(beat.duration_sec)
            group = groups[POSITIONS_PER_BEAT * beat.position_in_bar] = [
                tempo_classes[cls], tempos[step]
            ]
            if beat.chord is not None and beat.chord != chord_text:
                chord_text = beat.chord
                symbol = parse_chord(chord_text)
                if symbol != current_chord:
                    group += (tones[symbol.tone], types[symbol.type_index], slashes[symbol.slash])
                    current_chord = symbol
        for pos, note_group in note_groups.get(bar_index, ()):
            groups.setdefault(pos, []).extend(note_group)

        tokens.append(bar_token)
        if include_structure:
            for part in solo.parts:
                if part.start_bar == bar_index:
                    tokens += _part_markers(solo, part)[0]
        for pos in sorted(groups):
            tokens.append(positions[pos])
            tokens += groups[pos]
        if include_structure:
            for part in reversed(solo.parts):
                if part.end_bar == bar_index:
                    tokens += _part_markers(solo, part)[1]
    return tokens


# --- decoding -------------------------------------------------------------


@dataclass(frozen=True)
class DecodedNote:
    onset_sec: float
    duration_sec: float
    pitch: int
    velocity_bin: int
    velocity_midi: int
    duration_units: int
    bar: int
    position: int
    phrase_start: bool = False
    mlu_label: str | None = None


@dataclass(frozen=True)
class DecodedChord:
    onset_sec: float
    bar: int
    position: int
    symbol: ChordSymbol


@dataclass(frozen=True)
class TempoPoint:
    onset_sec: float
    bar: int
    position: int
    bpm: float


@dataclass(frozen=True)
class StructureMarker:
    bar: int
    category: str
    value: int


@dataclass
class DecodedTimeline:
    """Timeline reconstructed from a token stream.

    ``bar_times`` holds the start time of each bar plus the final end
    time, so it has ``bar_count + 1`` entries.
    """

    notes: list[DecodedNote]
    chords: list[DecodedChord]
    tempo_curve: list[TempoPoint]
    structure: list[StructureMarker]
    bar_times: list[float]

    @property
    def bar_count(self) -> int:
        return len(self.bar_times) - 1

    @property
    def end_sec(self) -> float:
        return self.bar_times[-1]

    def chord_intervals(self) -> list[tuple[float, float, ChordSymbol]]:
        """(start, end, chord) spans; each chord sounds until the next one."""
        out = []
        for i, c in enumerate(self.chords):
            end = self.chords[i + 1].onset_sec if i + 1 < len(self.chords) else self.end_sec
            out.append((c.onset_sec, end, c.symbol))
        return out


# --- the event grammar ---------------------------------------------------

# What may come next inside an event group, keyed by the category just
# read; an empty tuple closes the group.  The key None lists the
# categories that open a group, which needs an open Position.  Bar,
# Position and the form-part markers stand alone outside groups.
_GROUP_GRAMMAR: dict[str | None, tuple[str, ...]] = {
    None: (TEMPO_CLASS, CHORD_TONE, PHRASE, MLU, NOTE_VELOCITY),
    TEMPO_CLASS: (TEMPO,),
    TEMPO: (),
    CHORD_TONE: (CHORD_TYPE,),
    CHORD_TYPE: (CHORD_SLASH,),
    CHORD_SLASH: (),
    PHRASE: (MLU, NOTE_VELOCITY),
    MLU: (NOTE_VELOCITY,),
    NOTE_VELOCITY: (NOTE_ON,),
    NOTE_ON: (NOTE_DURATION,),
    NOTE_DURATION: (),
}


@lru_cache(maxsize=None)
def _group_head(category: str) -> str:
    """The category that opens the event group ``category`` belongs to."""
    if category in _GROUP_GRAMMAR[None]:
        return category
    return _group_head(next(k for k, nxt in _GROUP_GRAMMAR.items() if k and category in nxt))


# Each grammar mask :meth:`_GrammarWalker.allowed` has built, by the state that decides it.
_MASKS: dict[object, np.ndarray] = {}


class _GrammarWalker:
    """Walks a token stream through the event grammar, one token at a time.

    ``expected`` holds the categories the open event group may continue
    with, or None between groups.
    """

    def __init__(self):
        self.bar_open = False
        self.last_position: int | None = None
        self.expected: tuple[str, ...] | None = None

    def step(self, tok: EventToken) -> tuple[str, tuple[str, ...]] | None:
        """Accept a known token and return None, or leave the state unchanged
        and return (message template, expected categories).  Only
        :meth:`advance` formats the template, so repair never pays for it."""
        cat = tok.category
        if self.expected is not None:
            if cat not in self.expected:
                return "got {tok} inside an event group", self.expected
            self.expected = _GROUP_GRAMMAR[cat] or None
            return None
        opens_group = cat in _GROUP_GRAMMAR[None]
        if cat in _GROUP_GRAMMAR and not opens_group:
            return "{tok.category} not preceded by {expected[0]}", (_group_head(cat),)
        if cat == BAR:
            self.bar_open = True
            self.last_position = None
        elif not self.bar_open:
            return "{tok} before the first Bar", (BAR,)
        elif cat == POSITION:
            if self.last_position is not None and tok.value <= self.last_position:
                return "Position({tok.value}) does not increase past Position({last})", ()
            self.last_position = tok.value
        elif opens_group:
            if self.last_position is None:
                return "{tok} before the first Position of the bar", (POSITION,)
            self.expected = _GROUP_GRAMMAR[cat]
        return None

    def allowed(self) -> np.ndarray:
        """A read-only 0/1 weight per vocabulary id, 1 where :meth:`step` accepts it now (the
        state is put back after each id accepted), cached by what decides it: ``expected``
        in a group, else ``(bar_open, last_position)``."""
        key = self.expected or (self.bar_open, self.last_position)
        if key not in _MASKS:
            import numpy as np

            state, vocab = vars(self).copy(), DEFAULT_VOCABULARY
            mask = np.zeros(vocab.size)
            for i, tok in enumerate(vocab.ids_to_tokens(range(vocab.size))):
                if self.step(tok) is None:
                    mask[i] = 1.0
                    vars(self).update(state)
            mask.flags.writeable = False
            _MASKS[key] = mask
        return _MASKS[key]

    def advance(self, i: int, tok: EventToken) -> None:
        """Accept ``tok`` as token ``i``, or raise :class:`TokenGrammarError`
        and leave the state unchanged."""
        if not DEFAULT_VOCABULARY.is_valid(tok):
            raise TokenGrammarError(i, f"unknown token {tok}")
        rejection = self.step(tok)
        if rejection is not None:
            template, expected = rejection
            message = template.format(tok=tok, last=self.last_position, expected=expected)
            raise TokenGrammarError(i, message, expected)

    def finish(self, n: int) -> None:
        """Raise :class:`TokenGrammarError` unless a stream of ``n`` tokens may end here."""
        if self.expected is not None:
            raise TokenGrammarError(n, "stream ends inside an event group", self.expected)
        if not self.bar_open:
            raise TokenGrammarError(0, "stream contains no Bar token", (BAR,))


def decode_tokens(tokens: Sequence[EventToken]) -> DecodedTimeline:
    """Decode a grammar-valid token stream back into a timed timeline.

    Raises :class:`TokenGrammarError` with the token index on the first
    violation: unknown tokens, dangling triple members, content before the
    first bar or position, or non-increasing positions within a bar.
    """
    notes: list[DecodedNote] = []
    chords: list[DecodedChord] = []
    tempo_curve: list[TempoPoint] = []
    structure: list[StructureMarker] = []
    bar_times: list[float] = []

    bar = -1
    bar_start = 0.0
    beat_durs = [60.0 / DEFAULT_BPM] * 4
    position_time = 0.0
    current_beat = 0

    pending_phrase = False
    pending_mlu: int | None = None

    walker = _GrammarWalker()
    for i, tok in enumerate(tokens):
        walker.advance(i, tok)
        cat, val = tok.category, tok.value
        position = walker.last_position
        if cat == BAR:
            if bar >= 0:
                bar_start += sum(beat_durs)
            bar += 1
            bar_times.append(bar_start)
            beat_durs = [beat_durs[3]] * 4
            current_beat = 0
        elif cat == POSITION:
            current_beat = val // POSITIONS_PER_BEAT
            position_time = (
                bar_start
                + sum(beat_durs[:current_beat])
                + (val - POSITIONS_PER_BEAT * current_beat)
                / POSITIONS_PER_BEAT
                * beat_durs[current_beat]
            )
        elif cat in (PART_START, PART_END, REP_START, REP_END):
            structure.append(StructureMarker(bar, cat, val))
        elif cat == TEMPO:
            bpm = tempo_value_to_bpm(val)
            for b in range(current_beat, 4):
                beat_durs[b] = 60.0 / bpm
            tempo_curve.append(TempoPoint(position_time, bar, position, bpm))
        elif cat == CHORD_SLASH:  # the grammar puts its tone and type just before it
            symbol = ChordSymbol(tokens[i - 2].value, tokens[i - 1].value, val)
            chords.append(DecodedChord(position_time, bar, position, symbol))
        elif cat == PHRASE:
            pending_phrase = True
        elif cat == MLU:
            pending_mlu = val
        elif cat == NOTE_DURATION:  # the grammar puts its note's velocity and pitch just before it
            vbin = tokens[i - 2].value
            notes.append(
                DecodedNote(
                    onset_sec=position_time,
                    duration_sec=val / POSITIONS_PER_BEAT * beat_durs[current_beat],
                    pitch=tokens[i - 1].value,
                    velocity_bin=vbin,
                    velocity_midi=velocity_to_midi(vbin),
                    duration_units=val,
                    bar=bar,
                    position=position,
                    phrase_start=pending_phrase,
                    mlu_label=DEFAULT_MLU_LABELS[pending_mlu] if pending_mlu is not None else None,
                )
            )
            pending_phrase = False
            pending_mlu = None

    walker.finish(len(tokens))
    bar_times.append(bar_start + sum(beat_durs))
    return DecodedTimeline(notes, chords, tempo_curve, structure, bar_times)


def timeline_of_solo(solo: Solo) -> DecodedTimeline:
    """The timeline a solo's tokens decode to, without structure markers:
    the one view of a solo that every analysis reads, so that a corpus
    solo and its token file give the same numbers."""
    return decode_tokens(encode_solo(solo, include_structure=False))


def repair_token_stream(tokens: Sequence[EventToken]) -> tuple[list[EventToken], int]:
    """Drop tokens that violate the grammar; returns (repaired, drop count).

    For streams from elsewhere; sampled ones need none.  Unknown tokens are
    dropped on their own.  A token that breaks the open event group drops
    the whole group and is then retried between groups; any other token
    the grammar rejects (out-of-order positions, content outside a
    bar/position, orphan group members) is dropped.
    """
    out: list[EventToken] = []
    group: list[EventToken] = []
    walker = _GrammarWalker()
    dropped = 0
    for tok in tokens:
        if not DEFAULT_VOCABULARY.is_valid(tok):
            dropped += 1
            continue
        if group and tok.category not in walker.expected:
            dropped += len(group)
            group = []
            walker.expected = None
        if walker.step(tok) is not None:
            dropped += 1
            continue
        group.append(tok)
        if walker.expected is None:
            out.extend(group)
            group = []
    return out, dropped + len(group)
