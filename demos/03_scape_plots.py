"""Walkthrough: self-similarity, fitness scape plots, structureness.

Renders chroma for an exactly repeating AABA piece and for a random
token stream of the same length, computes their scape plots, and prints
the three structureness indicators (short 3-8 s, medium 8-15 s, long
15+ s).  The repeating piece lights up the medium band; the random
stream does not.  Both plots are exported as grayscale PGM images.

Run from the repository root:  python3 demos/03_scape_plots.py
"""

import tempfile
from pathlib import Path

import numpy as np

from swingbench.structure import (
    band_indicators,
    chroma_from_solo,
    chroma_from_timeline,
    compute_ssm,
    scape_plot,
    write_scape_pgm,
)
from swingbench.synthetic import random_token_piece, sectional_solo
from swingbench.tokenizer import decode_tokens

scratch = tempfile.TemporaryDirectory(prefix="scape-demo-")
work = Path(scratch.name)

# an AABA AABA tune: 4-bar sections at 120 bpm = 8-second sections
tune = sectional_solo("aaba", form="AABA", repetitions=2)
chroma = chroma_from_solo(tune)
ssm = compute_ssm(chroma)
print(f"sectional tune: {len(chroma)} chroma frames at 1 Hz")
print(f"SSM: {ssm.shape[0]}x{ssm.shape[0]}, "
      f"{(ssm > 0).mean():.0%} of cells above the similarity threshold")

plot = scape_plot(ssm)
si = band_indicators(plot)
print(f"structureness  SI_3_8 {si[0]:.3f}   SI_8_15 {si[1]:.3f}   SI_15 {si[2]:.3f}")
section_band = plot[7:, :]  # segments of 8 seconds and longer
duration = 8 + int(np.unravel_index(section_band.argmax(), section_band.shape)[0])
print(f"strongest section-scale repeat: {section_band.max():.3f} "
      f"at a duration of {duration} seconds (the 8-second A section)")
write_scape_pgm(plot, work / "sectional.pgm")

# a length-matched random token stream for contrast
rng = np.random.default_rng(33)
timeline = decode_tokens(random_token_piece(rng, n_bars=32))
rplot = scape_plot(compute_ssm(chroma_from_timeline(timeline)))
rsi = band_indicators(rplot)
print(f"\nrandom stream  SI_3_8 {rsi[0]:.3f}   SI_8_15 {rsi[1]:.3f}   SI_15 {rsi[2]:.3f}")
write_scape_pgm(rplot, work / "random.pgm")

print(f"\nscape images written to {work} (row = segment duration, column = center);"
      " the directory is removed as the demo ends")
scratch.cleanup()
