"""Walkthrough: the continuation prediction challenge.

Each question shows a model the first 8 bars of a tune plus four 8-bar
continuations (one true, three drawn from other tunes); the model picks
the candidate with the highest mean token probability.  Three models sit
the same exam: a corpus-memorizing oracle (ceiling), a uniform guesser
(floor), and the order-5 n-gram baseline.  The n-gram then writes a few
bars of its own.

Run from the repository root:  python3 demos/04_continuation_challenge.py
"""

from swingbench.challenge import (
    CorpusOracleModel,
    UniformModel,
    build_questions,
    generate_tokens,
    run_challenge,
    train_ngram,
)
from swingbench.synthetic import motif_corpus
from swingbench.tokenizer import DEFAULT_VOCABULARY as VOCAB
from swingbench.tokenizer import decode_tokens, encode_solo

# ten tunes, each with its own tempo and signature lick
corpus = motif_corpus(10, n_bars=20)
sequences = [VOCAB.tokens_to_ids(encode_solo(solo)) for solo in corpus]
questions = build_questions(sequences, count=50, seed=99, bar_token_id=VOCAB.bar_token_id)
print(f"{len(questions)} questions from {len(corpus)} tunes "
      f"(vocabulary: {VOCAB.size} tokens)")

for name, model in [
    ("oracle", CorpusOracleModel(sequences, VOCAB.size)),
    ("uniform", UniformModel(VOCAB.size)),
    ("n-gram (n=5)", train_ngram(sequences, order=5, vocab_size=VOCAB.size)),
]:
    result = run_challenge(model, questions)
    print(f"  {name:<13} accuracy {result.accuracy:.2f}")

row = run_challenge(train_ngram(sequences, order=5, vocab_size=VOCAB.size), questions[:1]).rows[0]
print(f"\none question in detail: P = {[round(p, 4) for p in row['scores']]}, "
      f"chose {row['chosen']}, truth {row['true']}")

# sample a few bars from the baseline: it draws only what the grammar
# allows, so the ids decode as they are
model = train_ngram(sequences, order=5, vocab_size=VOCAB.size)
ids = generate_tokens(model, [VOCAB.bar_token_id], target_bars=8, temperature=0.7, seed=1)
timeline = decode_tokens(VOCAB.ids_to_tokens(ids))
print(f"\ngenerated {timeline.bar_count} bars: {len(timeline.notes)} notes, "
      f"{len(timeline.chords)} chords")
