"""Distributional evaluation metrics: pitch-class entropy, grooving
pattern similarity, and chord progression irregularity.

All three read the 64-subunit bar grid, not wall-clock seconds, so they
are invariant to tempo.  They read a piece as its tokens decode: a solo
through ``tokenizer.timeline_of_solo``, so a note the codec drops, shorter
than a 64th, is in no bar.  Piece-level aggregation conventions: empty bars
are skipped when averaging entropy but contribute all-zero grooving
patterns to the pairwise similarity; consecutive duplicate chords are
collapsed by :func:`chord_changes` before trigram counting.

Every command imports this module; numpy is imported by the functions
that compute with it, so that ``tokenize`` and ``detokenize`` never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence

from .chords import ChordSymbol
from .corpus import Solo
from .tokenizer import POSITIONS_PER_BAR, DecodedTimeline, timeline_of_solo

PITCH_CLASSES = 12


class MetricError(ValueError):
    """The metric is undefined for the given input."""


@dataclass(frozen=True)
class BarContent:
    """One bar reduced to what the metrics need: pitches and onset slots."""

    pitches: tuple[int, ...]
    onset_positions: tuple[int, ...]


def bars_from_solo(solo: Solo) -> list[BarContent]:
    return bars_from_timeline(timeline_of_solo(solo))


def bars_from_timeline(timeline: DecodedTimeline) -> list[BarContent]:
    bars: list[tuple[list[int], list[int]]] = [([], []) for _ in range(timeline.bar_count)]
    for n in timeline.notes:
        bars[n.bar][0].append(n.pitch)
        bars[n.bar][1].append(n.position)
    return [BarContent(tuple(p), tuple(o)) for p, o in bars]


# --- pitch class histogram entropy ---------------------------------------


def pitch_class_histogram(pitches: Sequence[int]) -> np.ndarray | None:
    """Normalized 12-bin pitch class histogram, or None for an empty window."""
    if len(pitches) == 0:
        return None
    import numpy as np

    h = np.bincount(np.asarray(pitches, dtype=np.int64) % PITCH_CLASSES, minlength=PITCH_CLASSES)
    return h / h.sum()


def histogram_entropy(histogram: np.ndarray) -> float:
    """Entropy of a normalized histogram in bits, with 0*log(0) = 0."""
    import numpy as np

    h = np.asarray(histogram, dtype=float)
    if h.shape != (PITCH_CLASSES,) or np.any(h < 0) or not math.isclose(h.sum(), 1.0, abs_tol=1e-9):
        raise MetricError("histogram must be 12 non-negative values summing to 1")
    nz = h[h > 0]
    return float(-(nz * np.log2(nz)).sum())


def piece_entropy(bars: Sequence[BarContent], window_bars: int = 1) -> float:
    """Mean pitch-class entropy over sliding windows of ``window_bars`` bars.

    Windows hop by one bar; a piece shorter than the window yields a single
    window.  Windows without notes are skipped; if every window is empty
    the metric is undefined and :class:`MetricError` is raised.
    """
    if window_bars < 1:
        raise MetricError("window must span at least one bar")
    if not bars:
        raise MetricError("piece has no bars")
    values = []
    for start in range(max(1, len(bars) - window_bars + 1)):
        pitches: list[int] = []
        for bar in bars[start : start + window_bars]:
            pitches.extend(bar.pitches)
        h = pitch_class_histogram(pitches)
        if h is not None:
            values.append(histogram_entropy(h))
    if not values:
        raise MetricError("all windows are empty")
    import numpy as np

    return float(np.mean(values))


# --- grooving pattern similarity ------------------------------------------


def grooving_pattern(onset_positions: Sequence[int]) -> np.ndarray:
    """64-dimensional binary onset-presence vector of a bar."""
    import numpy as np

    g = np.zeros(POSITIONS_PER_BAR, dtype=np.uint8)
    for p in onset_positions:
        if not 0 <= p < POSITIONS_PER_BAR:
            raise MetricError(f"onset position {p} outside the 64-slot grid")
        g[p] = 1
    return g


def grooving_similarity(ga: np.ndarray, gb: np.ndarray) -> float:
    """1 minus the normalized Hamming distance of two binary patterns."""
    import numpy as np

    ga = np.asarray(ga)
    gb = np.asarray(gb)
    if ga.shape != gb.shape:
        raise MetricError(f"pattern dimensions differ: {ga.shape} vs {gb.shape}")
    return float(1.0 - np.not_equal(ga, gb).mean())


def piece_grooving(bars: Sequence[BarContent]) -> float:
    """Mean grooving similarity over all unordered pairs of bars."""
    n = len(bars)
    if n < 2:
        raise MetricError("grooving similarity needs at least two bars")
    import numpy as np

    # a slot with an onset in k of the n bars differs in k * (n - k) pairs: the
    # distance sum is an exact integer, and its mean one correctly rounded division
    counts = np.stack([grooving_pattern(b.onset_positions) for b in bars]).sum(0, dtype=np.int64)
    differing = int((counts * (n - counts)).sum())
    return 1.0 - differing / (POSITIONS_PER_BAR * n * (n - 1) // 2)


# --- chord progression irregularity ---------------------------------------


def chord_progression_irregularity(chords: Sequence[Hashable]) -> float:
    """Percentage of unique trigrams among the consecutive chord trigrams.

    Two trigrams differ if any element differs.  Undefined for fewer than
    three chords.
    """
    n = len(chords)
    if n < 3:
        raise MetricError("chord progression irregularity needs at least 3 chords")
    trigrams = [tuple(chords[i : i + 3]) for i in range(n - 2)]
    return 100.0 * len(set(trigrams)) / len(trigrams)


def chord_changes(intervals: Iterable[tuple[float, float, ChordSymbol]]) -> list[ChordSymbol]:
    """Chord sequence of ``chord_intervals()`` spans (of a solo or a decoded
    timeline), consecutive duplicates collapsed."""
    out: list[ChordSymbol] = []
    for _, _, symbol in intervals:
        if not out or symbol != out[-1]:
            out.append(symbol)
    return out


# --- per-piece report row ---------------------------------------------------


@dataclass(frozen=True)
class MetricRow:
    """Table row of the distributional metrics; None marks undefined cells."""

    entropy_1bar: float | None
    entropy_4bar: float | None
    grooving: float | None
    chord_irregularity: float | None


def metric_row(bars: Sequence[BarContent], chords: Sequence[Hashable]) -> MetricRow:
    def guarded(fn, *args):
        try:
            return fn(*args)
        except MetricError:
            return None

    return MetricRow(
        entropy_1bar=guarded(piece_entropy, bars, 1),
        entropy_4bar=guarded(piece_entropy, bars, 4),
        grooving=guarded(piece_grooving, bars),
        chord_irregularity=guarded(chord_progression_irregularity, chords),
    )
