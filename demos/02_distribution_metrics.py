"""Walkthrough: pitch-class entropy, grooving similarity, chord irregularity.

Compares a strongly sectional corpus against unconstrained random solos.
Structured material shows lower entropy (stable tonality), higher
grooving similarity (steady rhythm), and lower chord-progression
irregularity (recycled harmonic templates).

Run from the repository root:  python3 demos/02_distribution_metrics.py
"""

import numpy as np

from swingbench.metrics import (
    bars_from_solo,
    chord_changes,
    chord_progression_irregularity,
    piece_entropy,
    piece_grooving,
)
from swingbench.synthetic import random_corpus, sectional_corpus


def describe(name, solos):
    h1, h4, gs, cpi = [], [], [], []
    for solo in solos:
        bars = bars_from_solo(solo)
        h1.append(piece_entropy(bars, 1))
        h4.append(piece_entropy(bars, 4))
        gs.append(piece_grooving(bars))
        chords = chord_changes(solo.chord_intervals())
        if len(chords) >= 3:
            cpi.append(chord_progression_irregularity(chords))
    print(f"{name:<12} H1 {np.mean(h1):5.3f}   H4 {np.mean(h4):5.3f}   "
          f"GS {np.mean(gs):5.3f}   CPI {np.mean(cpi):6.2f}")


structured = sectional_corpus(6, forms=("AABA", "ABAB"), repetitions=2)
random_solos = random_corpus(seed=21, size=6, n_bars=32)

print("corpus        1-bar entropy  4-bar entropy  grooving  chord irregularity")
describe("sectional", structured)
describe("random", random_solos)

print("""
Reading the table: the sectional corpus keeps its pitch material inside
lettered sections (low entropy), repeats one rhythmic figure everywhere
(grooving similarity 1.0), and cycles few chord trigrams.  The random
corpus scatters pitches, rhythms, and harmonies, so every number moves
the other way.""")
