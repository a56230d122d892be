from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import piece_grooving_oracle
from swingbench.chords import parse_chord
from swingbench.metrics import (
    BarContent,
    MetricError,
    bars_from_solo,
    bars_from_timeline,
    chord_changes,
    chord_progression_irregularity,
    grooving_pattern,
    grooving_similarity,
    histogram_entropy,
    metric_row,
    piece_entropy,
    piece_grooving,
    pitch_class_histogram,
)
from swingbench.synthetic import sectional_solo
from swingbench.tokenizer import decode_tokens, encode_solo, timeline_of_solo


def bar(pitches=(), onsets=()):
    return BarContent(tuple(pitches), tuple(onsets))


# --- histograms and entropy -----------------------------------------------


def test_histogram_counts_and_normalizes():
    h = pitch_class_histogram([60, 72, 67, 67])  # C4 C5 G4 G4
    assert h[0] == pytest.approx(0.5)
    assert h[7] == pytest.approx(0.5)
    assert h.sum() == pytest.approx(1.0)


def test_histogram_single_note_one_hot():
    h = pitch_class_histogram([61])
    assert h[1] == 1.0 and h.sum() == 1.0


def test_histogram_empty_window_flagged():
    assert pitch_class_histogram([]) is None


def test_entropy_one_hot_is_zero():
    h = np.zeros(12)
    h[4] = 1.0
    assert histogram_entropy(h) == 0.0


def test_entropy_uniform_is_log2_12():
    assert histogram_entropy(np.full(12, 1 / 12)) == pytest.approx(math.log2(12), abs=1e-9)


def test_entropy_two_even_classes_is_one_bit():
    h = np.zeros(12)
    h[0] = h[7] = 0.5
    assert histogram_entropy(h) == pytest.approx(1.0)


def test_entropy_rejects_unnormalized():
    with pytest.raises(MetricError):
        histogram_entropy(np.full(12, 0.5))


def test_entropy_range_property():
    rng = np.random.default_rng(5)
    for _ in range(200):
        h = rng.random(12)
        h /= h.sum()
        assert 0.0 <= histogram_entropy(h) <= math.log2(12) + 1e-12


def test_piece_entropy_single_pitch_is_zero():
    bars = [bar([60], [0])] * 6
    assert piece_entropy(bars, 1) == 0.0
    assert piece_entropy(bars, 4) == 0.0


def test_piece_entropy_chromatic_is_max():
    bars = [bar(range(48, 60), range(0, 60, 5))] * 4
    assert piece_entropy(bars, 1) == pytest.approx(math.log2(12))


def test_piece_entropy_windows():
    bars = [bar([60], [0]), bar([67], [0])]
    assert piece_entropy(bars, 1) == 0.0
    assert piece_entropy(bars, 4) == pytest.approx(1.0)  # one pooled window


def test_piece_entropy_skips_empty_bars():
    bars = [bar([60], [0]), bar(), bar([60, 67], [0, 16])]
    assert piece_entropy(bars, 1) == pytest.approx(0.5)


def test_piece_entropy_all_empty_is_undefined():
    with pytest.raises(MetricError):
        piece_entropy([bar(), bar()], 1)


# --- grooving -----------------------------------------------------------------


def test_grooving_pattern_beats_example():
    g = grooving_pattern([0, 16])
    assert g[0] == 1 and g[16] == 1 and g.sum() == 2


def test_grooving_pattern_empty_bar():
    assert grooving_pattern([]).sum() == 0


def test_grooving_pattern_idempotent_onsets():
    assert grooving_pattern([5, 5]).sum() == 1


def test_grooving_similarity_identical():
    g = grooving_pattern([0, 8, 24])
    assert grooving_similarity(g, g) == 1.0


def test_grooving_similarity_complement_is_zero():
    g = grooving_pattern(range(0, 32))
    assert grooving_similarity(g, 1 - g) == 0.0


def test_grooving_similarity_hamming_16():
    ga = np.zeros(64, dtype=np.uint8)
    gb = ga.copy()
    gb[:16] = 1
    assert grooving_similarity(ga, gb) == 0.75


def test_grooving_similarity_symmetry_property():
    rng = np.random.default_rng(9)
    for _ in range(100):
        ga = rng.integers(0, 2, 64)
        gb = rng.integers(0, 2, 64)
        assert grooving_similarity(ga, gb) == grooving_similarity(gb, ga)
        assert grooving_similarity(ga, ga) == 1.0


def test_grooving_dimension_mismatch():
    with pytest.raises(MetricError):
        grooving_similarity(np.zeros(64), np.zeros(32))


def test_piece_grooving_identical_bars():
    bars = [bar([60], [0, 16, 32])] * 5
    assert piece_grooving(bars) == 1.0


def test_piece_grooving_two_bars_half_distance():
    bars = [bar([60], range(0, 32)), bar([60], range(16, 48))]
    assert piece_grooving(bars) == 0.5


def test_piece_grooving_three_bar_mean():
    # patterns: a == b, each differs from c by 16 of 64 slots
    a = bar([60], [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15])
    c = bar([60], [])
    assert piece_grooving([a, a, c]) == pytest.approx((1.0 + 0.75 + 0.75) / 3)


def test_piece_grooving_matches_scipy_hamming_bitwise():
    from scipy.spatial.distance import pdist

    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(2, 40))
        patterns = (rng.random((n, 64)) < rng.random()).astype(np.uint8)
        bars = [BarContent((), tuple(np.flatnonzero(p).tolist())) for p in patterns]
        expected = float(1.0 - pdist(patterns, metric="hamming").mean())
        assert piece_grooving(bars) == expected


# a bar's onsets: none, every slot, a position repeated, or a few anywhere
_bar_onsets = st.one_of(
    st.just(()),
    st.just(tuple(range(64))),
    st.lists(st.integers(0, 63), min_size=1, max_size=6).map(lambda p: (*p, p[0])),
    st.lists(st.integers(0, 63), max_size=6).map(tuple),
)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 150).flatmap(lambda n: st.lists(_bar_onsets, min_size=n, max_size=n)))
def test_piece_grooving_is_the_pairwise_reference_bit_for_bit(onsets):
    bars = [bar((), o) for o in onsets]
    assert piece_grooving(bars) == piece_grooving_oracle(bars)


@settings(max_examples=50, deadline=None)
@given(st.lists(_bar_onsets, min_size=2, max_size=20),
       st.one_of(st.integers(max_value=-1), st.integers(min_value=64)), st.data())
def test_piece_grooving_and_its_reference_refuse_a_position_off_the_grid(onsets, pos, data):
    at = data.draw(st.integers(0, len(onsets) - 1))
    onsets[at] = (*onsets[at], pos)
    bars = [bar((), o) for o in onsets]
    for grooving in (piece_grooving, piece_grooving_oracle):
        with pytest.raises(MetricError, match="outside the 64-slot grid"):
            grooving(bars)


def test_piece_grooving_needs_two_bars():
    with pytest.raises(MetricError):
        piece_grooving([bar([60], [0])])


# --- chord progression irregularity ---------------------------------------------


def test_cpi_worked_example():
    assert chord_progression_irregularity(["C7", "F7", "C7", "C7", "F7", "C7"]) == 75.0


def test_cpi_identical_chords():
    assert chord_progression_irregularity(["X"] * 5) == pytest.approx(33.33, abs=0.01)


def test_cpi_all_distinct():
    assert chord_progression_irregularity(list("ABCDEFG")) == 100.0


def test_cpi_needs_three():
    with pytest.raises(MetricError):
        chord_progression_irregularity(["C7", "F7"])


def test_cpi_transposition_invariant():
    from swingbench.corpus import transpose_solo

    solo = sectional_solo("t", form="AABA", repetitions=2)
    base = chord_progression_irregularity(chord_changes(timeline_of_solo(solo).chord_intervals()))
    up = chord_progression_irregularity(
        chord_changes(timeline_of_solo(transpose_solo(solo, 3)).chord_intervals()))
    assert base == up


def test_chord_changes_collapse_duplicates(simple_solo):
    # C7 annotated once, held: a single change
    assert len(chord_changes(timeline_of_solo(simple_solo).chord_intervals())) == 1


# --- bar extraction consistency ----------------------------------------------------


def test_solo_and_timeline_bars_agree(small_corpus):
    for solo in small_corpus:
        timeline = decode_tokens(encode_solo(solo))
        # a solo's bars are those of its tokens, which structure markers do not move
        assert bars_from_solo(solo) == bars_from_timeline(timeline)


def test_chord_changes_agree_for_solo_and_timeline(small_corpus, aaba_solo):
    for solo in [*small_corpus, aaba_solo]:
        timeline = decode_tokens(encode_solo(solo))
        # the beat track's own chord annotations; chord_changes reads no times
        from_solo = chord_changes((b.onset_sec, b.onset_sec + b.duration_sec, parse_chord(b.chord))
                                  for b in solo.beats if b.chord is not None)
        assert len(from_solo) >= 2
        assert chord_changes(timeline.chord_intervals()) == from_solo


def test_metrics_tempo_invariance():
    slow = sectional_solo("slow", form="AB", repetitions=2, bpm=60.0)
    fast = sectional_solo("fast", form="AB", repetitions=2, bpm=200.0)
    sb, fb = bars_from_solo(slow), bars_from_solo(fast)
    assert piece_entropy(sb, 1) == piece_entropy(fb, 1)
    assert piece_grooving(sb) == piece_grooving(fb)


def test_metric_row_handles_undefined():
    row = metric_row([bar([60], [0])], [])
    assert row.entropy_1bar == 0.0
    assert row.grooving is None
    assert row.chord_irregularity is None
