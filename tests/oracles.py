"""Independent brute-force oracles for the path-family fitness and the
n-gram counts, and reference copies of the corpus ingest.

The fitness oracle enumerates every admissible path over a segment
explicitly, then picks the best-scoring family by weighted interval
scheduling over the paths' row spans.  Exponential in the segment width;
only usable for small matrices, which is the point: it shares no code with
the production DP.  The corpus oracle's reference keeps a trie of nested
dicts, one per prefix of a piece, where the model binary-searches one
sorted id array.  The n-gram oracle counts with one dict per order, a
token at a time, where the model sorts numpy arrays, and computes each
probability from those counts a step at a time, where the model reads
terms it computed once.  The grammar mask oracle asks a fresh copy of
the walker about each vocabulary id, where the walker asks every id
itself and puts its state back after each one it accepts.  The
ingest references read, check and encode a solo one field and one token at
a time, and split it into bars with two lookups a note.  The grooving
reference averages the Hamming distance of every pair of bars, from one
float matrix product, where the metric counts each slot's onsets once.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from swingbench.challenge import ORACLE_EPSILON
from swingbench.chords import ChordError, ChordSymbol, parse_chord
from swingbench.corpus import DEFAULT_MLU_LABELS, Beat, CorpusError, FormPart, Note, Solo
from swingbench.metrics import BarContent, grooving_pattern
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
    POSITIONS_PER_BAR,
    POSITIONS_PER_BEAT,
    REP_END,
    REP_START,
    TEMPO,
    TEMPO_CLASS,
    EventToken,
    _GrammarWalker,
    QuantizationError,
    TokenizationError,
    beat_for_onset,
    derive_tempo_events,
    note_grid_position,
    quantize_duration,
    quantize_velocity,
)


@dataclass(frozen=True)
class PathStats:
    first_row: int
    last_row: int
    score: float
    cells: int


def enumerate_paths(seg) -> list[PathStats]:
    """All paths over the segment submatrix ``seg`` (rows x width).

    A path starts in column 0 at any row, advances by steps (1,1), (2,1)
    or (1,2), and must finish in the last column.
    """
    n_rows, width = seg.shape
    paths: list[PathStats] = []

    def walk(row: int, col: int, first: int, score: float, cells: int) -> None:
        if col == width - 1:
            paths.append(PathStats(first, row, score, cells))
            return
        for dr, dc in ((1, 1), (2, 1), (1, 2)):
            r, c = row + dr, col + dc
            if r < n_rows and c <= width - 1:
                walk(r, c, first, score + seg[r, c], cells + 1)

    for start_row in range(n_rows):
        walk(start_row, 0, start_row, seg[start_row, 0], 1)
    return paths


def best_family(paths: list[PathStats]) -> list[PathStats]:
    """Max-total-score subset of paths with pairwise disjoint row spans.

    Classic weighted interval scheduling; the empty family (score 0) is
    allowed.
    """
    paths = sorted(paths, key=lambda p: p.last_row)
    ends = [p.last_row for p in paths]
    best_score = [0.0] * (len(paths) + 1)
    takes: list[tuple[int, int] | None] = [None] * (len(paths) + 1)
    for i, path in enumerate(paths, start=1):
        prev = bisect_right(ends, path.first_row - 1, 0, i - 1)
        with_score = path.score + best_score[prev]
        if with_score > best_score[i - 1]:
            best_score[i] = with_score
            takes[i] = (i - 1, prev)
        else:
            best_score[i] = best_score[i - 1]
            takes[i] = None
    chosen = []
    i = len(paths)
    while i > 0:
        if takes[i] is None:
            i -= 1
        else:
            path_idx, prev = takes[i]
            chosen.append(paths[path_idx])
            i = prev
    return chosen


def fitness_oracle(ssm, start: int, end: int) -> float:
    """Fitness of segment [start, end] by exhaustive path enumeration."""
    n = ssm.shape[0]
    width = end - start + 1
    family = best_family(enumerate_paths(ssm[:, start : end + 1]))
    sigma = sum(p.score for p in family)
    cells = sum(p.cells for p in family)
    coverage = sum(p.last_row - p.first_row + 1 for p in family)
    if cells == 0:
        return 0.0
    score_norm = (sigma - width) / cells
    cov_norm = (coverage - width) / n
    if score_norm <= 0 or cov_norm <= 0:
        return 0.0
    return 2.0 * score_norm * cov_norm / (score_norm + cov_norm)


class TrieOracle:
    """The corpus oracle on a trie of nested dicts, a node per prefix of a
    piece: next to the history's node its children get ``1 - epsilon``
    shared equally and every id ``epsilon / V``; off the trie or at a leaf
    the distribution is uniform."""

    def __init__(self, pieces, vocab_size: int):
        self.vocab_size = vocab_size
        self.trie: dict = {}
        for piece in pieces:
            node = self.trie
            for token in piece:
                node = node.setdefault(token, {})

    def _node(self, history) -> dict | None:
        node = self.trie
        for token in history:
            node = node.get(token)
            if node is None:
                break
        return node

    def next_token_distribution(self, history) -> np.ndarray:
        node = self._node(history)
        if not node:
            return np.full(self.vocab_size, 1.0 / self.vocab_size)
        p = np.full(self.vocab_size, ORACLE_EPSILON / self.vocab_size)
        p[sorted(node)] += (1.0 - ORACLE_EPSILON) / len(node)
        return p

    def score(self, context, continuation) -> np.ndarray:
        node = self._node(context)
        floor = ORACLE_EPSILON / self.vocab_size
        out = np.empty(len(continuation))
        for i, token in enumerate(continuation):
            if not node:  # off the corpus or past the end of a piece
                out[i] = 1.0 / self.vocab_size
            elif token in node:
                out[i] = floor + (1.0 - ORACLE_EPSILON) / len(node)
            else:
                out[i] = floor
            node = node.get(token) if node else None
        return out


def ngram_count_tables(sequences, order: int) -> list[dict[tuple[int, ...], dict[int, int]]]:
    """``tables[k-1]``: each context of ``k - 1`` tokens -> {next token: count},
    over every position whose context lies inside its own sequence."""
    tables: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(order)]
    for seq in sequences:
        for k in range(1, order + 1):
            table = tables[k - 1]
            for j in range(k - 1, len(seq)):
                nxt = table.setdefault(tuple(seq[j - k + 1 : j]), {})
                nxt[seq[j]] = nxt.get(seq[j], 0) + 1
    return tables


class NGramOracle:
    """The interpolated add-alpha n-gram computed a step at a time from the
    dict tables: order k's term ``weight * (alpha + count(context, x)) /
    (count(context) + alpha * V)`` over the last ``k - 1`` history tokens,
    a context never counted having count 0, summed from k = 1 up.  These
    are the float operations the model ran per step before it computed the
    terms of counted grams at index build, in the same order."""

    def __init__(self, sequences, order: int, vocab_size: int, alpha: float):
        self.tables = ngram_count_tables(sequences, order)
        weight = 1.0 / order
        self.weight = weight / float(sum([weight] * order))
        self.vocab_size, self.alpha = vocab_size, alpha

    def probability(self, history, token: int) -> float:
        p = 0.0
        for m, table in enumerate(self.tables):
            after = table.get(tuple(history[len(history) - m :]), {}) if m <= len(history) else {}
            p += (self.weight * (self.alpha + after.get(token, 0))
                  / (sum(after.values()) + self.alpha * self.vocab_size))
        return p

    def distribution(self, history) -> list[float]:
        return [self.probability(history, x) for x in range(self.vocab_size)]

    def score(self, context, continuation) -> list[float]:
        history = [*context, *continuation]
        return [self.probability(history[: len(context) + i], token)
                for i, token in enumerate(continuation)]


def allowed_mask_oracle(walker: _GrammarWalker) -> list[float]:
    """The walker's grammar mask, one vocabulary id at a time: 1.0 where
    ``step`` accepts the id from a copy of the walker's state."""
    tokens = DEFAULT_VOCABULARY.ids_to_tokens(range(DEFAULT_VOCABULARY.size))
    return [float(copy.copy(walker).step(tok) is None) for tok in tokens]


# --- corpus ingest ---------------------------------------------------------
# The record reader, validator and encoder as they were before they were
# rewritten for speed, kept as references: the production code must return
# equal solos, violations and tokens, and refuse bad records with the same
# exception and message.  The validator places notes on beats by a linear
# scan, where the production code bisects.

def validate_solo_oracle(solo: Solo) -> list[str]:
    """Return every invariant violation of a solo (empty list if valid).

    Violations are data, not exceptions: callers decide whether to reject.
    Midlevel-unit labels must be in ``DEFAULT_MLU_LABELS``.
    """
    out: list[str] = []
    for i, n in enumerate(solo.notes):
        where = f"note {i} (onset {n.onset_sec})"
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
    for a, b in zip(solo.notes, solo.notes[1:]):
        if b.onset_sec < a.onset_sec:
            out.append("notes not sorted by onset")
            break

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
        for a, b in zip(solo.beats, solo.beats[1:]):
            if not a.onset_sec < b.onset_sec:  # NaN is not an increase
                out.append("beat track onsets not strictly increasing")
                break
        else:
            for i, n in enumerate(solo.notes):
                # the latest beat to start at or before the onset must still hold it
                holder = None
                for b in solo.beats:
                    if b.onset_sec <= n.onset_sec:
                        holder = b
                if holder is None or not n.onset_sec < holder.onset_sec + holder.duration_sec:
                    out.append(
                        f"note {i} (onset {n.onset_sec}) is in no beat's span "
                        "[onset, onset + duration)"
                    )
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


def _field(row: list, idx: int, name: str, kind, where: str):
    try:
        value = row[idx]
    except IndexError:
        raise CorpusError(f"{where}: missing field {name!r}") from None
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an int too large for a float
            pass
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    raise CorpusError(f"{where}: field {name!r} has wrong type ({value!r})")


def _rows(record: dict, key: str, where: str, name: str, fields: int):
    """Each row of ``record[key]``, a list of at most ``fields`` fields, and
    the place an error names it by."""
    rows = record.get(key, [])
    if not isinstance(rows, list):
        raise CorpusError(f"{where}: {key!r} is not a list ({rows!r})")
    for i, row in enumerate(rows):
        w = f"{where} {name} {i}"
        if not isinstance(row, list):
            raise CorpusError(f"{w}: row is not a list ({row!r})")
        if len(row) > fields:
            raise CorpusError(f"{w}: {len(row)} fields, more than the {fields} of a {name}")
        yield row, w


def solo_from_record_oracle(record: dict, where: str = "record") -> Solo:
    if not isinstance(record, dict) or "id" not in record:
        raise CorpusError(f"{where}: record must be an object with an 'id' field")
    solo_id = record["id"]
    if not isinstance(solo_id, str):
        raise CorpusError(f"{where}: solo id {solo_id!r} is not a string")
    where = f"solo {solo_id!r}"
    notes = []
    for row, w in _rows(record, "notes", where, "note", 6):
        mlu = row[5] if len(row) > 5 else None
        if mlu is not None and not isinstance(mlu, str):
            raise CorpusError(f"{w}: field 'mlu_label' has wrong type ({mlu!r})")
        notes.append(
            Note(
                onset_sec=_field(row, 0, "onset_sec", float, w),
                duration_sec=_field(row, 1, "duration_sec", float, w),
                pitch=_field(row, 2, "pitch", int, w),
                loudness_db=_field(row, 3, "loudness_db", float, w),
                phrase_start=_field(row, 4, "phrase_start", bool, w),
                mlu_label=mlu,
            )
        )
    beats = []
    for row, w in _rows(record, "beats", where, "beat", 5):
        chord = row[4] if len(row) > 4 else None
        if chord is not None and not isinstance(chord, str):
            raise CorpusError(f"{w}: field 'chord' has wrong type ({chord!r})")
        beats.append(
            Beat(
                onset_sec=_field(row, 0, "onset_sec", float, w),
                duration_sec=_field(row, 1, "duration_sec", float, w),
                bar_index=_field(row, 2, "bar_index", int, w),
                position_in_bar=_field(row, 3, "position_in_bar", int, w),
                chord=chord,
            )
        )
    parts = []
    for row, w in _rows(record, "parts", where, "part", 4):
        parts.append(
            FormPart(
                letter=_field(row, 0, "letter", str, w),
                repetition=_field(row, 1, "repetition", int, w),
                start_bar=_field(row, 2, "start_bar", int, w),
                end_bar=_field(row, 3, "end_bar", int, w),
            )
        )
    return Solo(id=solo_id, notes=tuple(notes), beats=tuple(beats), parts=tuple(parts))


@dataclass
class _PositionEntry:
    tempo: tuple[int, int] | None = None
    chord: ChordSymbol | None = None
    notes: list[tuple[Note, int, int]] = field(default_factory=list)  # (note, vbin, units)


def encode_solo_oracle(solo: Solo, include_structure: bool = True) -> list[EventToken]:
    """Encode a solo into its event-token sequence.

    Notes shorter than a 64th note are silently dropped.  With
    ``include_structure=False`` the Phrase/MLU/Part/Rep markers are
    omitted and only notes, meter, tempo, and chords remain.
    """
    vocab = DEFAULT_VOCABULARY
    tokens: list[EventToken] = []
    beats = solo.beats
    onsets = [b.onset_sec for b in beats]
    by_bar: dict[int, list[Beat]] = {}
    for b in beats:
        by_bar.setdefault(b.bar_index, []).append(b)

    notes_by_bar: dict[int, list[Note]] = {}
    for i, note in enumerate(solo.notes):
        try:
            beat = beat_for_onset(beats, onsets, note.onset_sec)
        except TokenizationError as exc:
            raise TokenizationError(f"solo {solo.id!r} note {i}: {exc}") from None
        notes_by_bar.setdefault(beat.bar_index, []).append(note)

    current_chord: ChordSymbol | None = None
    for bar_index in sorted(by_bar):
        entries: dict[int, _PositionEntry] = {}

        def entry(pos: int) -> _PositionEntry:
            return entries.setdefault(pos, _PositionEntry())

        for beat in by_bar[bar_index]:
            pos = POSITIONS_PER_BEAT * beat.position_in_bar
            e = entry(pos)
            e.tempo = derive_tempo_events(beat.duration_sec)
            if beat.chord is not None:
                symbol = parse_chord(beat.chord)
                if symbol != current_chord:
                    e.chord = symbol
                    current_chord = symbol

        for i, note in enumerate(notes_by_bar.get(bar_index, [])):
            try:
                pos = note_grid_position(note, beats, onsets)
                units = quantize_duration(note.duration_sec, beat_for_onset(beats, onsets, note.onset_sec).duration_sec)
                vbin = quantize_velocity(note.loudness_db)
            except QuantizationError as exc:
                raise TokenizationError(
                    f"solo {solo.id!r} note at onset {note.onset_sec}: {exc}"
                ) from None
            if units is None:
                continue  # sub-64th note
            entry(pos).notes.append((note, vbin, units))

        tokens.append(EventToken(BAR, 0))
        if include_structure:
            for part in solo.parts:
                if part.start_bar == bar_index:
                    tokens.append(EventToken(PART_START, vocab.part_index(part.letter)))
                    tokens.append(EventToken(REP_START, part.repetition))
        for pos in sorted(entries):
            e = entries[pos]
            tokens.append(EventToken(POSITION, pos))
            if e.tempo is not None:
                cls, step = e.tempo
                tokens.append(EventToken(TEMPO_CLASS, cls))
                tokens.append(EventToken(TEMPO, step))
            if e.chord is not None:
                tokens.append(EventToken(CHORD_TONE, e.chord.tone))
                tokens.append(EventToken(CHORD_TYPE, e.chord.type_index))
                tokens.append(EventToken(CHORD_SLASH, e.chord.slash))
            for note, vbin, units in e.notes:
                if include_structure:
                    if note.phrase_start:
                        tokens.append(EventToken(PHRASE, 0))
                    if note.mlu_label is not None:
                        tokens.append(EventToken(MLU, vocab.mlu_index(note.mlu_label)))
                tokens.append(EventToken(NOTE_VELOCITY, vbin))
                tokens.append(EventToken(NOTE_ON, note.pitch))
                tokens.append(EventToken(NOTE_DURATION, units))
        if include_structure:
            for part in reversed(solo.parts):
                if part.end_bar == bar_index:
                    tokens.append(EventToken(REP_END, part.repetition))
                    tokens.append(EventToken(PART_END, vocab.part_index(part.letter)))
    return tokens


def bars_from_solo_oracle(solo: Solo) -> list[BarContent]:
    """Bar contents of a solo, each note placed by two lookups: its grid
    position, then its beat for the bar."""
    onsets = [b.onset_sec for b in solo.beats]
    first_bar = solo.first_bar
    bars: list[tuple[list[int], list[int]]] = [([], []) for _ in range(solo.bar_count)]
    for note in solo.notes:
        pos = note_grid_position(note, solo.beats, onsets)
        bar = beat_for_onset(solo.beats, onsets, note.onset_sec).bar_index - first_bar
        bars[bar][0].append(note.pitch)
        bars[bar][1].append(pos)
    return [BarContent(tuple(p), tuple(o)) for p, o in bars]


def piece_grooving_oracle(bars: list[BarContent]) -> float:
    """Mean grooving similarity over every unordered pair of bars: each
    pair's differing slots are ``|a| + |b| - 2 a.b``, exact for 0/1
    patterns, with ``a.b`` from one float matrix product."""
    patterns = np.stack([grooving_pattern(b.onset_positions) for b in bars]).astype(float)
    onsets = patterns.sum(axis=1)
    differing = onsets[:, None] + onsets[None, :] - 2.0 * (patterns @ patterns.T)
    hamming = differing[np.triu_indices(len(bars), 1)] / POSITIONS_PER_BAR
    return float(1.0 - hamming.mean())
