"""Walkthrough: the lead-sheet event codec.

Builds a small synthetic corpus, saves and reloads it, encodes one solo
into event tokens, decodes the tokens back, and checks that every
surviving note keeps its quantized (position, duration, velocity, pitch).
Finally renders the decoded timeline to a standard MIDI file.  All files
go to a temporary directory that is removed as the demo ends.

Run from the repository root:  python3 demos/01_codec_roundtrip.py
"""

import tempfile
from pathlib import Path

from swingbench.corpus import load_corpus, save_corpus, transpose_solo
from swingbench.midi import write_midi
from swingbench.synthetic import random_corpus
from swingbench.tokenizer import decode_tokens, encode_solo

scratch = tempfile.TemporaryDirectory(prefix="codec-demo-")
work = Path(scratch.name)

# 1. a synthetic corpus on disk and back
corpus = random_corpus(seed=11, size=3, n_bars=12, sub64_fraction=0.05)
corpus_path = work / "corpus.jsonl"
save_corpus(corpus, corpus_path)
reloaded = load_corpus(corpus_path)
assert reloaded == corpus
print(f"saved and reloaded {len(corpus)} solos -> {corpus_path}")

solo = corpus[0]
print(f"\nsolo {solo.id!r}: {len(solo.notes)} notes over {len(solo.beats) // 4} bars")

# 2. encode: every bar opens with Bar, beats carry tempo pairs, notes are
# (velocity, pitch, duration) triples at their grid positions
tokens = encode_solo(solo)
print(f"encoded into {len(tokens)} events; the first bar starts like this:")
for tok in tokens[:12]:
    print(f"   {tok}")

# 3. decode and compare the quantized note quadruples
timeline = decode_tokens(tokens)
print(f"\ndecoded {len(timeline.notes)} notes "
      f"({len(solo.notes) - len(timeline.notes)} sub-64th notes dropped), "
      f"{len(timeline.chords)} chord changes, {timeline.bar_count} bars")
first = timeline.notes[0]
print(f"first note: bar {first.bar} position {first.position} "
      f"pitch {first.pitch} velocity bin {first.velocity_bin} -> MIDI {first.velocity_midi}")

# 4. transposition commutes with the codec
up = transpose_solo(solo, 2)
moved = decode_tokens(encode_solo(up))
assert [n.pitch - 2 for n in moved.notes] == [n.pitch for n in timeline.notes]
print("\ntransposing by +2 semitones shifts every decoded pitch by exactly 2")

# 5. standard MIDI output (format 0, 480 ticks per quarter)
midi_path = work / f"{solo.id}.mid"
write_midi(timeline, midi_path)
print(f"wrote {midi_path} ({midi_path.stat().st_size} bytes)")
scratch.cleanup()
