from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from swingbench.corpus import Note, Solo
from swingbench.synthetic import four_four_beats, random_corpus, sectional_solo

# The properties draw new examples on every run, so a falsified one prints
# the blob that replays it with ``@reproduce_failure``.
settings.register_profile("swingbench", print_blob=True)
settings.load_profile("swingbench")


@pytest.fixture(scope="session")
def small_corpus():
    return random_corpus(seed=7, size=5, n_bars=12)


@pytest.fixture(scope="session")
def aaba_solo():
    return sectional_solo("aaba-fixture", form="AABA", repetitions=2)


@pytest.fixture()
def simple_solo():
    """Two bars at 120 bpm, one note per beat on a C major arpeggio, C7 chord."""
    chords = ["C7"] + [None] * 7
    beats = four_four_beats(2, bpm=120.0, chords=chords)
    pitches = (60, 64, 67, 72, 60, 64, 67, 72)
    notes = tuple(
        Note(
            onset_sec=b.onset_sec,
            duration_sec=b.duration_sec * 0.9,
            pitch=pitches[i],
            loudness_db=65.0,
            phrase_start=(i == 0),
        )
        for i, b in enumerate(beats)
    )
    return Solo(id="simple", notes=notes, beats=tuple(beats), parts=())


def random_ssm(rng: np.random.Generator, n: int, signed: bool = True) -> np.ndarray:
    a = rng.uniform(-1.0, 1.0, (n, n)) if signed else rng.random((n, n))
    m = (a + a.T) / 2
    np.fill_diagonal(m, 1.0)
    return m
