"""Synthetic lead-sheet corpora for tests, demos, and calibration runs.

Two families: fully random solos (uniform pitches, scattered rhythm,
chords drawn at random), and sectional solos whose lettered sections
repeat exactly, giving known structure for the scape-plot metrics to
find.  All generators are deterministic given their RNG or id.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import DEFAULT_MLU_LABELS, Beat, FormPart, Note, Solo

# Sharp-spelled roots keep format(parse(x)) == x, so transposition
# round-trips exactly at the string level.
_RANDOM_CHORDS = (
    "Cmaj7", "Dm7", "G7", "C6", "Fmaj7", "A#7", "Em7", "A7", "Dm7b5", "G7b9",
    "Am7", "D7", "Gmaj7", "C7", "F6", "Bm7b5", "E7#9", "Am6", "D#dim7", "G#7#11",
)


def four_four_beats(
    n_bars: int,
    bpm: float = 120.0,
    chords: Sequence[str | None] | None = None,
    beat_durations: Sequence[float] | None = None,
) -> list[Beat]:
    """Evenly spaced 4/4 beat track from 0 s; ``chords`` holds one entry per beat.

    With a constant tempo the onsets are computed multiplicatively, so
    they line up exactly with note onsets derived the same way.
    """
    beats = []
    onset = 0.0
    for i in range(4 * n_bars):
        if beat_durations is not None:
            dur = beat_durations[i]
        else:
            dur = 60.0 / bpm
            onset = i * dur
        chord = chords[i] if chords is not None else None
        beats.append(
            Beat(
                onset_sec=onset,
                duration_sec=dur,
                bar_index=i // 4,
                position_in_bar=i % 4,
                chord=chord,
            )
        )
        onset += dur
    return beats


def random_solo(
    rng: np.random.Generator,
    solo_id: str,
    n_bars: int = 16,
    sub64_fraction: float = 0.0,
    with_structure: bool = True,
    bpm_range: tuple[float, float] = (90.0, 240.0),
) -> Solo:
    """A solo with random notes (2 to 8 a bar, pitches 36 to 95), chords,
    tempo drift, and annotations.

    ``sub64_fraction`` controls how many notes are shorter than a 64th
    note (and therefore dropped by the codec); durations otherwise range
    up to past a half note so clipping paths get exercised too.
    """
    bpm = float(rng.uniform(*bpm_range))
    beat_durations = [
        60.0 / bpm * float(rng.uniform(0.95, 1.05)) for _ in range(4 * n_bars)
    ]
    chords: list[str | None] = []
    current: str | None = None
    for i in range(4 * n_bars):
        if i % 2 == 0 and rng.random() < 0.6:
            current = str(rng.choice(_RANDOM_CHORDS))
        chords.append(current if rng.random() < 0.9 else None)
    beats = four_four_beats(n_bars, chords=chords, beat_durations=beat_durations)

    notes = []
    for bar in range(n_bars):
        bar_beats = beats[4 * bar : 4 * bar + 4]
        count = int(rng.integers(2, 9))
        offsets = np.sort(rng.uniform(0.0, 0.999, size=count))
        for off in offsets:
            beat = bar_beats[min(int(off * 4), 3)]
            within = (off * 4) % 1.0
            onset = beat.onset_sec + within * beat.duration_sec * 0.999
            if rng.random() < sub64_fraction:
                duration = beat.duration_sec / 64.0  # rounds to zero units
            else:
                duration = float(rng.uniform(0.05, 2.5)) * beat.duration_sec
            notes.append(
                Note(
                    onset_sec=onset,
                    duration_sec=duration,
                    pitch=int(rng.integers(36, 96)),
                    loudness_db=float(rng.uniform(35.0, 95.0)),
                    phrase_start=bool(with_structure and rng.random() < 0.1),
                    mlu_label=str(rng.choice(DEFAULT_MLU_LABELS))
                    if with_structure and rng.random() < 0.15
                    else None,
                )
            )
    notes.sort(key=lambda n: n.onset_sec)

    parts = ()
    if with_structure and n_bars >= 8:
        half = n_bars // 2
        parts = (
            FormPart("A", 1, 0, half - 1),
            FormPart("B", 1, half, n_bars - 1),
        )
    return Solo(id=solo_id, notes=tuple(notes), beats=tuple(beats), parts=parts)


# Disjoint pitch material and harmony per section letter keeps sections
# acoustically distinct, so only true repeats look similar.
_SECTION_PITCHES = {
    "A": (60, 64, 67, 72, 67, 64),
    "B": (61, 66, 70, 73, 70, 66),
    "C": (62, 65, 69, 74, 69, 65),
    "D": (59, 63, 68, 71, 68, 63),
}
_SECTION_CHORDS = {
    "A": ("Cmaj7", "Am7", "Dm7", "G7"),
    "B": ("C#m7", "F#7", "Bmaj7", "F#m7"),
    "C": ("D7", "Gm7", "C7", "F6"),
    "D": ("D#m7", "G#7", "C#maj7", "A#7b9"),
}


def sectional_solo(
    solo_id: str,
    form: str = "AABA",
    repetitions: int = 2,
    section_bars: int = 4,
    bpm: float = 120.0,
) -> Solo:
    """A solo whose lettered sections repeat exactly (e.g. AABA AABA).

    Every instance of a letter has identical notes and chords, so the
    rendered chroma repeats exactly wherever the form says it should.
    """
    letters = list(form) * repetitions
    n_bars = section_bars * len(letters)
    chords: list[str | None] = []
    for letter in letters:
        palette = _SECTION_CHORDS[letter]
        for bar in range(section_bars):
            chords.extend([palette[bar % len(palette)]] + [None] * 3)
    beats = four_four_beats(n_bars, bpm=bpm, chords=chords)

    beat_dur = 60.0 / bpm
    notes = []
    parts = []
    seen: dict[str, int] = {}
    for s, letter in enumerate(letters):
        seen[letter] = seen.get(letter, 0) + 1
        first_bar = s * section_bars
        parts.append(
            FormPart(letter, seen[letter], first_bar, first_bar + section_bars - 1)
        )
        pitches = _SECTION_PITCHES[letter]
        for bar in range(section_bars):
            for k in range(6):
                # one multiplication keeps note onsets >= their beat onsets
                onset = ((first_bar + bar) * 4 + k * 0.5) * beat_dur
                notes.append(
                    Note(
                        onset_sec=onset,
                        # exactly 8 sixty-fourths, so decoding is lossless
                        duration_sec=0.5 * beat_dur,
                        pitch=pitches[(bar + k) % len(pitches)],
                        loudness_db=68.0,
                        phrase_start=(bar == 0 and k == 0),
                        mlu_label="line" if (bar == 0 and k == 0) else None,
                    )
                )
    return Solo(id=solo_id, notes=tuple(notes), beats=tuple(beats), parts=tuple(parts))


def random_corpus(
    seed: int, size: int, prefix: str = "rand", **kwargs
) -> list[Solo]:
    rng = np.random.default_rng(seed)
    return [random_solo(rng, f"{prefix}-{i:03d}", **kwargs) for i in range(size)]


def sectional_corpus(
    size: int, prefix: str = "form", forms: Sequence[str] = ("AABA",), **kwargs
) -> list[Solo]:
    return [
        sectional_solo(f"{prefix}-{i:03d}", form=forms[i % len(forms)], **kwargs)
        for i in range(size)
    ]


def motif_solo(index: int, solo_id: str, n_bars: int = 20) -> Solo:
    """A tune with its own characteristic tempo and repeating lick.

    Piece ``index`` fixes a distinct tempo step and a distinct 8-note
    chromatic run looped in every bar.  Tunes share rhythm, loudness and
    durations, so local statistics are symmetric across pieces and the
    (tempo, lick) pairing is the only piece identity a model can learn.
    """
    from .tokenizer import TEMPO_CLASS_BOUNDS_BPM, TEMPO_STEPS_PER_CLASS, tempo_value_to_bpm

    if not 0 <= index <= 9:
        raise ValueError("motif corpus supports piece indices 0..9")
    tempo_value = 2 + 6 * index  # distinct step, sweeping all five classes
    cls = tempo_value // TEMPO_STEPS_PER_CLASS
    width = (TEMPO_CLASS_BOUNDS_BPM[cls + 1] - TEMPO_CLASS_BOUNDS_BPM[cls]) / TEMPO_STEPS_PER_CLASS
    bpm = tempo_value_to_bpm(tempo_value) + 0.3 * width  # safely inside the step
    beat_dur = 60.0 / bpm
    base_pitch = 24 + 9 * index

    chords: list[str | None] = [None] * (4 * n_bars)
    chords[0] = "Cmaj7"
    beats = four_four_beats(n_bars, bpm=bpm, chords=chords)
    # the bar-final note's length is piece-specific too, so identity
    # crosses every bar line inside a short model context
    tail_units = 4 + 2 * index
    notes = []
    for bar in range(n_bars):
        for k in range(8):
            duration = (tail_units / 16.0 if k == 7 else 0.4) * beat_dur
            notes.append(
                Note(
                    onset_sec=(bar * 4 + k * 0.5) * beat_dur,
                    duration_sec=duration,
                    # distinct per-slot velocity keeps every short context
                    # unambiguous, so argmax decoding walks the lick exactly
                    loudness_db=50.0 + 3.0 * k,
                    pitch=base_pitch + k,
                    phrase_start=(k == 0),
                )
            )
    return Solo(id=solo_id, notes=tuple(notes), beats=tuple(beats), parts=())


def motif_corpus(size: int, prefix: str = "motif", **kwargs) -> list[Solo]:
    return [motif_solo(i, f"{prefix}-{i:03d}", **kwargs) for i in range(size)]


def random_token_piece(
    rng: np.random.Generator,
    n_bars: int = 32,
    chord_probability: float = 0.0,
):
    """A grammar-valid stream of uniformly random note events.

    The control corpus for structureness comparisons: bar count and tempo
    (step 28, in class 3) are fixed, everything else (1 to 5 notes a bar,
    positions, pitches, velocities, durations, optional chord triples) is
    drawn uniformly, so the stream has no repetition structure at any
    timescale.  Returns EventTokens.

    With the fixed absolute similarity threshold, any sustained
    harmony reads as frame similarity regardless of repetition, so the
    control omits chords unless ``chord_probability`` is raised.
    """
    from .tokenizer import (
        BAR,
        CHORD_SLASH,
        CHORD_TONE,
        CHORD_TYPE,
        NOTE_DURATION,
        NOTE_ON,
        NOTE_VELOCITY,
        POSITION,
        TEMPO,
        TEMPO_CLASS,
        EventToken,
    )
    from .chords import NUM_CHORD_TYPES

    tokens = []
    for _ in range(n_bars):
        tokens.append(EventToken(BAR, 0))
        count = int(rng.integers(1, 6))
        positions = np.sort(rng.choice(64, size=count, replace=False))
        carry_tempo = True
        for pos in positions:
            tokens.append(EventToken(POSITION, int(pos)))
            if carry_tempo:
                tokens.append(EventToken(TEMPO_CLASS, 3))
                tokens.append(EventToken(TEMPO, 28))
                carry_tempo = False
            if rng.random() < chord_probability:
                tokens.append(EventToken(CHORD_TONE, int(rng.integers(0, 12))))
                tokens.append(EventToken(CHORD_TYPE, int(rng.integers(0, NUM_CHORD_TYPES))))
                tokens.append(EventToken(CHORD_SLASH, int(rng.integers(0, 12))))
            tokens.append(EventToken(NOTE_VELOCITY, int(rng.integers(1, 33))))
            tokens.append(EventToken(NOTE_ON, int(rng.integers(0, 128))))
            tokens.append(EventToken(NOTE_DURATION, int(rng.integers(1, 33))))
    return tokens
