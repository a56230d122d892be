"""Lead-sheet data model and corpus interchange format.

A solo is a melody track (notes with onset, duration, pitch, loudness,
phrase and midlevel-unit annotations) plus a beat track (beat onsets,
chords, form parts).  Corpora are stored as JSON Lines: one solo record
per line, a string ``id`` and the ``notes``, ``beats`` and ``parts`` rows,
each row the fields of a :class:`Note`, :class:`Beat` or :class:`FormPart`
in order; ``_ROW_KINDS`` states their JSON types.  Floats are written with
full precision, so save -> load is the identity on valid solos.

Only 4/4 material is accepted: every bar must contain exactly four beats
at positions 0..3, otherwise the 64-subunit position grid of the event
codec would be meaningless.  For the same reason every note's onset must
lie inside a beat, as :func:`beat_index` decides.

Adapting a source stored in some other container (e.g. a relational
database export) is the job of an external converter that emits this
schema; the README's corpus format section says what it must do.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from .chords import ChordError, parse_chord, transpose_chord_string

# Retained midlevel-unit types of the WJazzD annotations.
DEFAULT_MLU_LABELS: tuple[str, ...] = (
    "line",
    "lick",
    "melody",
    "rhythm",
    "theme",
    "quote",
    "fragment",
    "expressive",
    "void",
)


class CorpusError(ValueError):
    """A corpus file violates the interchange schema or a solo invariant."""


class EmptyCorpusError(CorpusError):
    """The corpus file contains no solo records."""


class TranspositionError(ValueError):
    """Transposition would move a note outside the MIDI range."""


@dataclass(frozen=True)
class Note:
    onset_sec: float
    duration_sec: float
    pitch: int
    loudness_db: float
    phrase_start: bool = False
    mlu_label: str | None = None


@dataclass(frozen=True)
class Beat:
    onset_sec: float
    duration_sec: float
    bar_index: int
    position_in_bar: int
    chord: str | None = None


@dataclass(frozen=True)
class FormPart:
    letter: str
    repetition: int
    start_bar: int
    end_bar: int


@dataclass(frozen=True)
class Solo:
    id: str
    notes: tuple[Note, ...]
    beats: tuple[Beat, ...]
    parts: tuple[FormPart, ...] = ()


def beat_index(beats: Sequence[Beat], onsets: Sequence[float], onset: float) -> int:
    """Index of the beat whose ``[onset, onset + duration)`` holds ``onset``,
    or -1 if none does: the one rule that places a note on the bar grid.
    ``onsets`` are the beats' onsets, strictly increasing, so the only
    candidate is the latest beat to start at or before ``onset``."""
    i = bisect_right(onsets, onset) - 1
    return i if i >= 0 and onset < beats[i].onset_sec + beats[i].duration_sec else -1


def _note_violations(i: int, n: Note) -> list[str]:
    """Every violation of note ``i`` taken alone."""
    where = f"note {i} (onset {n.onset_sec})"
    out = []
    if not math.isfinite(n.onset_sec) or n.onset_sec < 0:
        out.append(f"{where}: onset_sec must be finite and >= 0")
    if not math.isfinite(n.duration_sec) or n.duration_sec <= 0:
        out.append(f"{where}: duration_sec must be > 0")
    if not 0 <= n.pitch <= 127:
        out.append(f"{where}: pitch {n.pitch} outside 0-127")
    if not math.isfinite(n.loudness_db):
        out.append(f"{where}: loudness_db must be finite")
    if n.mlu_label is not None and n.mlu_label not in DEFAULT_MLU_LABELS:
        out.append(f"{where}: mlu_label {n.mlu_label!r} not in allow-list")
    return out


_MLU_LABEL_OR_NONE = frozenset((None, *DEFAULT_MLU_LABELS))


def validate_solo(solo: Solo) -> list[str]:
    """Return every invariant violation of a solo (empty list if valid).

    Violations are data, not exceptions: callers decide whether to reject.
    Midlevel-unit labels must be in ``DEFAULT_MLU_LABELS``.
    """
    out: list[str] = []
    inf = math.inf
    for i, n in enumerate(solo.notes):
        # NaN fails every comparison, so this is the whole of _note_violations
        if not (0.0 <= n.onset_sec < inf and 0.0 < n.duration_sec < inf
                and 0 <= n.pitch <= 127 and -inf < n.loudness_db < inf
                and n.mlu_label in _MLU_LABEL_OR_NONE):
            out += _note_violations(i, n)
    onsets = [n.onset_sec for n in solo.notes]
    if any(map(operator.gt, onsets, onsets[1:])):
        out.append("notes not sorted by onset")

    if not solo.beats:
        out.append("beat track is empty")
    else:
        by_bar: dict[int, list[Beat]] = {}
        for b in solo.beats:
            if b.duration_sec <= 0 or not math.isfinite(b.duration_sec):
                out.append(f"beat at {b.onset_sec}: duration_sec must be > 0")
            if math.isinf(b.onset_sec):  # a NaN onset breaks the increase below
                out.append(f"beat at {b.onset_sec}: onset_sec must be finite")
            if b.bar_index < 0:
                out.append(f"beat at {b.onset_sec}: bar_index must be >= 0")
            by_bar.setdefault(b.bar_index, []).append(b)
        bars = sorted(by_bar)
        if bars != list(range(bars[0], bars[0] + len(bars))):
            out.append("bar indices are not contiguous")
        for bar, beats in sorted(by_bar.items()):
            if [b.position_in_bar for b in beats] != [0, 1, 2, 3]:
                out.append(
                    f"bar {bar}: expected exactly 4 beats at positions 0-3 (4/4 only), "
                    f"got positions {[b.position_in_bar for b in beats]}"
                )
        beat_onsets = [b.onset_sec for b in solo.beats]
        # NaN fails <, so a NaN onset breaks the increase too
        if not all(map(operator.lt, beat_onsets, beat_onsets[1:])):
            out.append("beat track onsets not strictly increasing")
        else:
            for i, onset in enumerate(onsets):
                if beat_index(solo.beats, beat_onsets, onset) < 0:
                    out.append(f"note {i} (onset {onset}) is in no beat's span "
                               "[onset, onset + duration)")
        for b in solo.beats:
            if b.chord is not None:
                try:
                    parse_chord(b.chord)
                except ChordError as exc:
                    out.append(f"beat at {b.onset_sec}: {exc}")

    prev: FormPart | None = None
    for p in solo.parts:
        if p.start_bar > p.end_bar:
            out.append(f"part {p.letter}{p.repetition}: start_bar > end_bar")
        if p.repetition < 1:
            out.append(f"part {p.letter}{p.repetition}: repetition must be >= 1")
        if prev is not None and p.start_bar <= prev.end_bar:
            out.append(
                f"parts {prev.letter}{prev.repetition} and {p.letter}{p.repetition} overlap"
            )
        prev = p
    return out


# --- interchange format -------------------------------------------------

_NULL, _LIST = type(None), {list}


class _RowKind:
    """One row kind of the interchange format, stated once: the record key
    that holds its rows, the name an error gives a row, the dataclass, and
    in column order each field's name and the JSON types it may hold.

    An int is read as a float where a float may stand, a bool is never an
    int, a last field that may be null may also be left out, and a row
    with more fields than the kind's is refused.  Rows that
    all hold exactly the types ``save_corpus`` writes go straight into the
    dataclass; other rows are read, or refused, field by field.
    """

    def __init__(self, key: str, name: str, cls: type, *fields: tuple):
        self.key, self.name, self.cls, self.fields = key, name, cls, fields
        self.to_row = operator.attrgetter(*(field[0] for field in fields))
        self.column_types = [frozenset(types) for _, *types in fields]

    def read(self, record: dict, where: str) -> tuple:
        """The dataclasses of the record's rows of this kind."""
        rows = record.get(self.key, [])
        if type(rows) is not list:
            raise CorpusError(f"{where}: {self.key!r} is not a list ({rows!r})")
        # a column at a time, half the cost of row by row, when every row is whole
        columns = (list(zip(*rows)) if set(map(type, rows)) == _LIST
                   and set(map(len, rows)) == {len(self.fields)} else ())
        if columns and all(
                set(map(type, c)) <= t for c, t in zip(columns, self.column_types)):
            return tuple(map(self.cls, *columns))
        return tuple(self._read_fields(row, f"{where} {self.name} {i}")
                     for i, row in enumerate(rows))

    def _read_fields(self, row, where: str):
        if type(row) is not list:
            raise CorpusError(f"{where}: row is not a list ({row!r})")
        if len(row) > len(self.fields):
            raise CorpusError(f"{where}: {len(row)} fields, more than the "
                              f"{len(self.fields)} of a {self.name}")
        if len(row) == len(self.fields) - 1 and _NULL in self.fields[-1]:
            row = [*row, None]  # the last field, left out
        values = []
        for (name, *types), value in zip(self.fields, row):
            if type(value) is int and float in types and abs(value) <= sys.float_info.max:
                value = float(value)  # an int past the float range is refused below
            elif type(value) not in types:
                raise CorpusError(f"{where}: field {name!r} has wrong type ({value!r})")
            values.append(value)
        if len(values) < len(self.fields):
            raise CorpusError(f"{where}: missing field {self.fields[len(values)][0]!r}")
        return self.cls(*values)


_ROW_KINDS = (
    _RowKind("notes", "note", Note, ("onset_sec", float), ("duration_sec", float),
             ("pitch", int), ("loudness_db", float), ("phrase_start", bool),
             ("mlu_label", str, _NULL)),
    _RowKind("beats", "beat", Beat, ("onset_sec", float), ("duration_sec", float),
             ("bar_index", int), ("position_in_bar", int), ("chord", str, _NULL)),
    _RowKind("parts", "part", FormPart, ("letter", str), ("repetition", int),
             ("start_bar", int), ("end_bar", int)),
)


def solo_to_record(solo: Solo) -> dict:
    """A solo as its JSON record; each row is a tuple, which JSON writes as
    an array."""
    return {"id": solo.id, **{kind.key: list(map(kind.to_row, getattr(solo, kind.key)))
                              for kind in _ROW_KINDS}}


def solo_from_record(record: dict, where: str = "record") -> Solo:
    """The solo of a JSON record; a record that does not follow the schema
    raises :class:`CorpusError` naming ``where``, or the solo and the row."""
    if not isinstance(record, dict) or "id" not in record:
        raise CorpusError(f"{where}: record must be an object with an 'id' field")
    solo_id = record["id"]
    if type(solo_id) is not str:
        raise CorpusError(f"{where}: solo id {solo_id!r} is not a string")
    return Solo(solo_id, *(kind.read(record, f"solo {solo_id!r}") for kind in _ROW_KINDS))


def save_corpus(solos: Iterable[Solo], path: str | Path) -> None:
    """Write solos to a JSON Lines corpus file."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for solo in solos:
            fh.write(json.dumps(solo_to_record(solo), separators=(",", ":")))
            fh.write("\n")


def load_corpus(path: str | Path) -> list[Solo]:
    """Load and validate a JSON Lines corpus file.

    Raises :class:`CorpusError` naming the offending solo and row or field
    on any schema or invariant violation, or the line of a record that is
    not UTF-8 text or not JSON or of a solo whose id is not a string,
    repeats an earlier one or cannot be a file name, and
    :class:`EmptyCorpusError` when the file holds no records.
    """
    path = Path(path)
    solos: list[Solo] = []
    ids: set[str] = set()
    # read as bytes, so that a line that is not UTF-8 is named like any other
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            where = f"{path} line {lineno}"
            try:
                line = raw.decode("utf-8").strip()
                if not line:
                    continue
                record = json.loads(line)
            except UnicodeDecodeError as exc:
                raise CorpusError(f"{where}: not UTF-8 text ({exc})") from None
            except (ValueError, RecursionError) as exc:  # or nesting, ints past Python's limits
                raise CorpusError(f"{where}: invalid JSON ({exc})") from None
            solo = solo_from_record(record, where=where)
            # each id names its solo's output files (<id>.tokens, <id>.pgm) and table rows
            if solo.id.splitlines() != [solo.id] or any(c in solo.id for c in "/\t\0"):
                raise CorpusError(f"{where}: solo id {solo.id!r} is not a file name: "
                                  "it must be one non-empty line, without '/', tab or NUL")
            if solo.id in ids:
                raise CorpusError(f"{where}: solo id {solo.id!r} repeats an earlier solo's")
            ids.add(solo.id)
            violations = validate_solo(solo)
            if violations:
                raise CorpusError(
                    f"solo {solo.id!r}: " + "; ".join(violations)
                )
            solos.append(solo)
    if not solos:
        raise EmptyCorpusError(f"{path}: corpus contains no solos")
    return solos


def transpose_solo(solo: Solo, semitones: int) -> Solo:
    """Transpose every pitch and chord by ``semitones`` (range -3..+3).

    Timing, durations, loudness and structure are untouched; chord tone
    and slash shift by the same amount modulo 12 while the quality stays.
    """
    if not -3 <= semitones <= 3:
        raise ValueError(f"transposition {semitones} outside the -3..+3 range")
    if semitones == 0:
        return solo
    notes = []
    for i, n in enumerate(solo.notes):
        pitch = n.pitch + semitones
        if not 0 <= pitch <= 127:
            raise TranspositionError(
                f"solo {solo.id!r} note {i} (onset {n.onset_sec}): "
                f"pitch {n.pitch}{semitones:+d} leaves the MIDI range"
            )
        notes.append(replace(n, pitch=pitch))
    beats = tuple(
        replace(b, chord=transpose_chord_string(b.chord, semitones))
        if b.chord is not None
        else b
        for b in solo.beats
    )
    return Solo(id=solo.id, notes=tuple(notes), beats=beats, parts=solo.parts)
