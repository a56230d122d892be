from __future__ import annotations

import bisect
import hashlib
import json
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import NGramOracle, TrieOracle, allowed_mask_oracle, ngram_count_tables
from scipy import stats

from swingbench import challenge, tokenizer
from swingbench.challenge import (
    DISTRIBUTION_TOLERANCE,
    MAX_ORDER,
    STDERR_TAIL_BYTES,
    ChallengeError,
    ChallengeQuestion,
    CorpusOracleModel,
    GenerationError,
    LineProtocolModel,
    ModelProtocolError,
    NGramModel,
    SequenceModel,
    SubprocessModel,
    UniformModel,
    answer_question,
    build_questions,
    checked_distribution,
    generate_tokens,
    run_challenge,
    score_continuation,
    train_ngram,
)
from swingbench.synthetic import motif_corpus, random_corpus
from swingbench.tokenizer import DEFAULT_VOCABULARY as V
from swingbench.tokenizer import (
    _GROUP_GRAMMAR,
    EventToken,
    TokenGrammarError,
    _GrammarWalker,
    decode_tokens,
    encode_solo,
    repair_token_stream,
)

BAR_ID = V.bar_token_id


@pytest.fixture(scope="module")
def motif_sequences():
    return [V.tokens_to_ids(encode_solo(s)) for s in motif_corpus(8, n_bars=20)]


@pytest.fixture(scope="module")
def questions(motif_sequences):
    return build_questions(motif_sequences, count=20, seed=1, bar_token_id=BAR_ID)


# --- models -----------------------------------------------------------------


def test_uniform_model_distribution():
    model = UniformModel(10)
    p = checked_distribution(model, [1, 2, 3])
    assert p == pytest.approx(np.full(10, 0.1))
    per_step = SequenceModel.score(model, [1, 2], [3, 4, 5])
    assert np.array_equal(model.score([1, 2], [3, 4, 5]), per_step)


def test_distribution_contract_enforced():
    class Broken(UniformModel):
        def next_token_distribution(self, history):
            p = np.full(self.vocab_size, 1.0 / self.vocab_size)
            p[0] += 0.5
            return p

    with pytest.raises(ChallengeError, match="sums to"):
        checked_distribution(Broken(10), [])


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_distribution_contract_rejects_nan_and_inf(bad):
    class NonFinite(UniformModel):
        def next_token_distribution(self, history):
            return np.array([0.5, 0.5, bad, 0.0])

    with pytest.raises(ChallengeError,
                       match=r"^model returned probabilities outside \[0, 1\] or NaN$"):
        checked_distribution(NonFinite(4), [])


def test_oracle_model_predicts_next():
    pieces = [[1, 2, 3, 4], [5, 6, 7, 8]]
    model = CorpusOracleModel(pieces, vocab_size=10)
    assert model.score([1, 2], [3])[0] > 0.99
    assert model.score([9, 9], [0])[0] == pytest.approx(0.1)


def _oracle_reference(pieces, vocab_size, history, epsilon=1e-6):
    """The oracle's definition, read straight off the pieces."""
    h = len(history)
    predicted = {p[h] for p in pieces if len(p) > h and list(p[:h]) == list(history)}
    if not predicted:
        return np.full(vocab_size, 1.0 / vocab_size)
    p = np.full(vocab_size, epsilon / vocab_size)
    p[sorted(predicted)] += (1.0 - epsilon) / len(predicted)
    return p


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.lists(st.integers(0, 3), max_size=6), max_size=5),
    st.lists(st.integers(0, 3), max_size=7),
)
def test_oracle_matches_its_prefix_definition(pieces, history):
    model = CorpusOracleModel(pieces, vocab_size=4)
    # every prefix of every piece, and a drawn history that may leave them all
    for probe in [p[:j] for p in pieces for j in range(len(p) + 1)] + [history]:
        # each id after the probe, and each of the probe's own ids after its prefix
        assert np.array_equal([model.score(probe, [token])[0] for token in range(4)],
                              _oracle_reference(pieces, 4, probe))
        assert np.array_equal(model.score([], probe),
                              [_oracle_reference(pieces, 4, probe[:i])[token]
                               for i, token in enumerate(probe)])


def _assert_score_is_the_dense_entry(model, context, continuation, dense=None):
    """Each entry of the model's ``score`` has the bits of the matching entry
    of ``dense``'s distribution, the model's own unless given."""
    got = model.score(context, continuation)
    assert got.shape == (len(continuation),)
    for i, token in enumerate(continuation):
        p = (dense or model).next_token_distribution([*context, *continuation[:i]])
        assert got[i] == p[token]  # the same bits, not merely close


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), max_size=6), min_size=1, max_size=5), st.data())
def test_oracle_score_is_the_dense_entry(pieces, data):
    model, trie = CorpusOracleModel(pieces, vocab_size=4), TrieOracle(pieces, 4)
    piece = data.draw(st.sampled_from(pieces))
    cut = data.draw(st.integers(0, len(piece)))
    tail = data.draw(st.lists(st.integers(0, 3), max_size=4))
    drawn = data.draw(st.lists(st.integers(0, 3), max_size=7))
    # along a piece and on past its end, from the end of a piece, and from
    # a drawn history that may leave the corpus
    for context, continuation in [(piece[:cut], piece[cut:] + tail), (piece, tail), (drawn, tail)]:
        _assert_score_is_the_dense_entry(model, context, continuation, dense=trie)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.data())
def test_oracle_has_the_bits_of_the_trie(vocab, data):
    pieces = data.draw(st.lists(st.lists(st.integers(0, vocab - 1), max_size=8), max_size=5))
    # prefixes of other pieces, repeated pieces and empty pieces
    for piece in data.draw(st.lists(st.sampled_from(pieces), max_size=3)) if pieces else []:
        pieces.append(piece[: data.draw(st.integers(0, len(piece)))])
    pieces = data.draw(st.permutations(pieces))
    # a history along a piece that may run past its end or leave it, with
    # ids outside the vocabulary
    along = data.draw(st.sampled_from(pieces)) if pieces else []
    history = [*along[: data.draw(st.integers(0, len(along)))],
               *data.draw(st.lists(st.integers(-2, vocab + 1), max_size=6))]
    model, trie = CorpusOracleModel(pieces, vocab), TrieOracle(pieces, vocab)
    for cut in range(len(history) + 1):
        head, tail = history[:cut], history[cut:]
        every_id = [model.score(head, [token])[0] for token in range(vocab)]
        assert np.array(every_id).tobytes() == trie.next_token_distribution(head).tobytes()
        assert model.score(head, tail).tobytes() == trie.score(head, tail).tobytes()


def test_oracle_scores_the_challenge_as_the_trie(motif_sequences, questions):
    model, trie = CorpusOracleModel(motif_sequences, V.size), TrieOracle(motif_sequences, V.size)
    for question in questions:
        for candidate in question.candidates:
            got = model.score(question.prompt, candidate)
            assert got.tobytes() == trie.score(question.prompt, candidate).tobytes()


@pytest.mark.parametrize("bad", [-1, 4, 2**70])
@pytest.mark.parametrize(
    "build",
    [CorpusOracleModel, lambda pieces, vocab_size: NGramModel(2, vocab_size, sequences=pieces)],
    ids=["oracle", "ngram"],
)
def test_memorising_models_refuse_ids_outside_the_vocabulary(build, bad):
    # an oracle that kept -1 put the mass of the next id on id 3 in its
    # dense distribution (numpy wraps the index) while score gave 3 the floor
    with pytest.raises(ChallengeError, match=r"token id outside \[0, 4\)"):
        build([[1, bad, 2], [0, 1]], vocab_size=4)


def test_oracle_memory_grows_linearly():
    # ~33.6k tokens, one piece of 80 bars per motif: a map keyed on every
    # prefix of every piece holds ~460 MB here, and a trie of nested dicts
    # 223 bytes a token; one sorted array of int16 ids keeps 2.
    pieces = [V.tokens_to_ids(encode_solo(s)) for s in motif_corpus(10, n_bars=80)]
    tokens = sum(map(len, pieces))
    assert tokens > 33_000
    tracemalloc.start()
    try:
        model = CorpusOracleModel(pieces, V.size)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 16 * tokens and peak <= 16 * tokens  # measured 2.0 and 8.1 bytes a token
    assert model.score(pieces[3][:100], pieces[3][100:]).min() > 0.99


# --- n-gram -----------------------------------------------------------------


def test_bigram_counts_hand_example():
    # "ABAB": A and B occur twice each out of four tokens, and the A->B
    # transition twice out of two A contexts; both orders weigh 1/2
    model = train_ngram([[0, 1, 0, 1]], order=2, vocab_size=2, alpha=0.01)
    p = model.next_token_distribution([0])
    alpha, vocab = 0.01, 2
    unigram = (2 + alpha) / (4 + alpha * vocab)
    assert p[1] == pytest.approx((unigram + (2 + alpha) / (2 + alpha * vocab)) / 2)
    assert p[0] == pytest.approx((unigram + alpha / (2 + alpha * vocab)) / 2)


def test_unigram_relative_frequencies():
    model = train_ngram([[0, 0, 0, 1]], order=1, vocab_size=3, alpha=0.01)
    p = model.next_token_distribution([])
    assert p[0] > p[1] > p[2]
    assert p.sum() == pytest.approx(1.0)


def test_ngram_never_assigns_zero(motif_sequences):
    model = train_ngram(motif_sequences, order=3, vocab_size=V.size)
    p = checked_distribution(model, motif_sequences[0][:50])
    assert p.min() > 0.0


def test_ngram_order_validation():
    for order in (0, MAX_ORDER + 1, 100_000):
        message = rf"order must be in 1\.\.{MAX_ORDER}, got {order}"
        with pytest.raises(ChallengeError, match=message):
            NGramModel(order=order, vocab_size=5)
    deepest = NGramModel(order=MAX_ORDER, vocab_size=5, sequences=[[0, 1]])
    assert len(deepest.index.levels) == MAX_ORDER


def test_train_rejects_empty_corpus():
    with pytest.raises(ChallengeError):
        train_ngram([], order=2, vocab_size=5)


def test_higher_order_reduces_heldout_perplexity(motif_sequences):
    train, held = motif_sequences[:-2], motif_sequences[-2:]

    def perplexity(model):
        return np.exp(-np.mean(np.log(np.concatenate([model.score((), seq) for seq in held]))))

    uni = train_ngram(train, order=1, vocab_size=V.size)
    tri = train_ngram(train, order=3, vocab_size=V.size)
    assert perplexity(tri) <= perplexity(uni)


@st.composite
def _ngram_cases(draw):
    order = draw(st.integers(1, 9))
    vocab = draw(st.integers(1, 5))
    ids = st.lists(st.integers(0, vocab - 1), max_size=12)
    # an int alpha is what a model file written by hand may hold
    model = NGramModel(order, vocab, alpha=draw(st.sampled_from([0.01, 0.5, 2])),
                       sequences=draw(st.lists(ids, max_size=4)))
    return model, draw(ids), draw(ids)


def _with_sequence(model, seq):
    """The model's settings and sequences, and ``seq`` counted too."""
    return NGramModel(model.order, model.vocab_size, model.alpha, [*model.sequences, seq])


@settings(max_examples=200, deadline=None)
@given(_ngram_cases())
def test_ngram_score_is_the_dense_entry(case):
    # empty contexts and contexts shorter than order - 1 are drawn too
    model, context, continuation = case
    _assert_score_is_the_dense_entry(model, context, continuation)
    # and where every context of the continuation was counted
    counted = _with_sequence(model, [*context, *continuation])
    _assert_score_is_the_dense_entry(counted, context, continuation)


@settings(max_examples=200, deadline=None)
@given(_ngram_cases())
def test_ngram_distribution_sums_to_one(case):
    # Nothing renormalises: each add-alpha component sums to 1 and so do the weights.
    model, context, continuation = case
    history = [*context, *continuation]
    for m in (model, _with_sequence(model, history)):  # without and with the history counted
        for cut in range(len(history) + 1):
            p = m.next_token_distribution(history[:cut])
            assert abs(p.sum() - 1.0) <= DISTRIBUTION_TOLERANCE


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6), st.sampled_from([0.01, 0.5, 2, 1e-9]), st.data())
def test_ngram_readers_have_the_bits_of_the_per_step_formula(order, vocab, alpha, data):
    # empty and short sequences; a history that follows a counted sequence
    # and may leave it, with ids outside the vocabulary in it and as targets
    seqs = data.draw(st.lists(st.lists(st.integers(0, vocab - 1), max_size=12), max_size=4))
    along = data.draw(st.sampled_from(seqs)) if seqs else []
    history = [*along[: data.draw(st.integers(0, len(along)))],
               *data.draw(st.lists(st.integers(-2, vocab + 1), max_size=6))]
    model, oracle = NGramModel(order, vocab, alpha, seqs), NGramOracle(seqs, order, vocab, alpha)
    for end in range(len(history) + 1):
        expected = np.array(oracle.distribution(history[:end]))
        assert model.next_token_distribution(history[:end]).tobytes() == expected.tobytes()
    cut = data.draw(st.integers(0, len(history)))
    expected = np.array(oracle.score(history[:cut], history[cut:]), dtype=float)
    assert model.score(history[:cut], history[cut:]).tobytes() == expected.tobytes()


def _assert_index_holds_the_tables(model, tables):
    """The model's count index read back against the oracle's dict tables.
    Each level's ranges follow one another over the shared order; each
    context's total is its range's length less the piece ends in it; and
    each gram's count is the number of its next token in the range, and
    also the length of the range of the context one token longer (at the
    deepest level, of the gram's run of codes), as the readers take it.
    A context that only piece ends follow has a total of 0 and is the tail
    of a piece; contexts with the token ``V`` in them are not read.  Every
    held component has the bits of ``_add_alpha`` on the oracle's counts
    (the terms are positive, so equal floats have equal bits)."""
    index, vocab = model.index, model.vocab_size
    radix, deepest = vocab + 1, len(index.levels) - 1
    assert len(index.levels) == len(tables)
    grams = index.grams.tolist()
    assert grams == sorted(grams)
    assert index.ends.tolist() == [i for i, code in enumerate(grams) if code % radix == vocab]
    assert len(grams) == sum(map(len, model.sequences)) + len(model.sequences)
    tails = {tuple(seq[len(seq) - m :]) for seq in model.sequences for m in range(len(seq) + 1)}
    contexts = [()]  # contexts[c]: the tuple of context id c one level up, None if it holds V
    for m, (level, table) in enumerate(zip(index.levels, tables)):
        if m:
            parents = contexts
            contexts = [None if parents[code // radix] is None or code % radix == vocab
                        else (code % radix, *parents[code // radix])
                        for code in level.contexts.tolist()]
        else:
            contexts = [()] * len(level.contexts)
        starts = level.starts.tolist()
        assert starts[0] == 0 and starts[-1] == len(grams) and len(starts) == len(contexts) + 1
        counted = {}
        for c, ctx in enumerate(contexts):
            lo, hi = starts[c], starts[c + 1]
            assert lo < hi  # every context holds an entry
            total = hi - lo - int(np.searchsorted(index.ends, hi) - np.searchsorted(index.ends, lo))
            counts = {}
            for code in grams[lo:hi]:
                counts[code % radix] = counts.get(code % radix, 0) + 1
            assert counts.pop(vocab, 0) == hi - lo - total
            if ctx is None:
                continue
            if not total:
                assert ctx in tails and ctx not in table  # seen only at a piece's end
                continue
            counted[ctx] = counts
            for token, count in counts.items():
                if m < deepest:
                    longer = model._context_ids([*ctx, token])
                    deeper = index.levels[m + 1].starts
                    assert deeper[longer[m + 1] + 1] - deeper[longer[m + 1]] == count
                else:
                    run = bisect.bisect_right(grams, c * radix + token)
                    assert run - bisect.bisect_left(grams, c * radix + token) == count
            if c in level.held:
                expected = [challenge._add_alpha(model.weight, model.alpha, counts.get(x, 0),
                                                 total, vocab) for x in range(vocab)]
                assert level.held[c].tolist() == expected
        assert counted == table


def _assert_same_index(a, b):
    x, y = a.index, b.index
    assert len(x.levels) == len(y.levels)
    pairs = [(x.grams, y.grams), (x.ends, y.ends)]
    for u, v in zip(x.levels, y.levels):
        pairs += [(u.contexts, v.contexts), (u.starts, v.starts)]
        assert sorted(u.held) == sorted(v.held)
        pairs += [(u.held[c], v.held[c]) for c in u.held]
    for u, v in pairs:
        assert u.dtype == v.dtype and u.tobytes() == v.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 4),
    st.data(),
    st.sampled_from(["score", "next_token_distribution"]),
)
def test_count_index_matches_the_dict_oracle(order, vocab, data, query):
    # empty sequences and sequences shorter than the order are drawn too
    seqs = data.draw(st.lists(st.lists(st.integers(0, vocab - 1), max_size=12), max_size=8))
    probe = data.draw(st.lists(st.integers(0, vocab - 1), max_size=10))
    model = NGramModel(order, vocab, sequences=seqs)
    # either query builds the index on first use
    if query == "score":
        model.score(probe[:3], probe[3:])
    else:
        model.next_token_distribution(probe)
    _assert_index_holds_the_tables(model, ngram_count_tables(seqs, order))
    _assert_score_is_the_dense_entry(model, probe[:3], probe[3:])


def test_count_index_memory_is_bounded():
    # the codec-generate benchmark corpus, ~119k tokens: per-order dict
    # tables keyed by context tuples peak at ~50 MB on it, int64 arrays at
    # ~18 MB, the narrow arrays with per-gram terms and int64 codes at
    # ~13.7 MB, with narrow codes and a flat token store at ~10.3 MB, and
    # as ranges of one sorted order at ~3.9 MB.
    sequences = [V.tokens_to_ids(encode_solo(s))
                 for s in random_corpus(1, 100, prefix="codec", n_bars=32)]
    assert sum(map(len, sequences)) > 100_000
    tracemalloc.start()
    try:
        model = train_ngram(sequences, order=5, vocab_size=V.size)
        model.next_token_distribution(sequences[0][:10])  # builds the index
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2**20


@pytest.mark.parametrize(
    ("vocab", "sequences", "code"),
    [(5, [[0, 1, 2, 3, 4] * 4, []], np.int16), (V.size, None, np.int32),
     (2**20, [list(range(0, 2**20, 349))], np.int64)],
    ids=["int16", "int32", "int64"],
)
def test_count_index_codes_are_the_narrowest_that_hold_n_times_v(motif_sequences, vocab,
                                                                 sequences, code):
    # the entries are the tokens and one end a piece, coded with V + 1 ids
    sequences = motif_sequences if sequences is None else sequences
    entries = sum(map(len, sequences)) + len(sequences)
    assert challenge._int_type(entries * (vocab + 1)) is code
    model = train_ngram(sequences, order=4, vocab_size=vocab)
    assert model.index.grams.dtype == code
    assert model.index.ends.dtype == challenge._int_type(entries)
    for level in model.index.levels:
        assert level.contexts.dtype == code
        assert level.starts.dtype == challenge._int_type(entries)
    _assert_index_holds_the_tables(model, ngram_count_tables(sequences, 4))
    _assert_score_is_the_dense_entry(model, sequences[0][:3], sequences[0][3:9])


@pytest.mark.parametrize(
    ("order", "sequences", "probes"),
    [
        # (2) and (1, 2) are followed only by the piece's end
        (3, [[0, 1, 2], [0, 1, 0, 1]], [[1, 2], [2], [0, 1, 2], [3]]),
        # empty pieces around and between counted ones
        (3, [[], [0, 1], [], [], [1, 1, 0], []], [[], [0], [1, 1], [0, 1]]),
        # every piece shorter than the order
        (5, [[0], [1, 2], [2, 0, 1]], [[0], [2, 0], [2, 0, 1], [1, 2, 0, 1]]),
        # the deepest model there is, over pieces longer and shorter than it
        (MAX_ORDER, [[0, 1, 2, 3] * 10, [1, 2, 3, 0] * 9, [3, 2]],
         [[0, 1, 2, 3] * 9, [1, 2, 3, 0] * 9 + [1], [3, 2], [2, 3, 0, 1]]),
    ],
    ids=["context-seen-at-a-piece-end", "empty-pieces", "pieces-shorter-than-the-order",
         "max-order"],
)
def test_count_index_edge_cases_hold_the_tables(order, sequences, probes):
    model = NGramModel(order, 4, sequences=sequences)
    oracle = NGramOracle(sequences, order, 4, model.alpha)
    _assert_index_holds_the_tables(model, ngram_count_tables(sequences, order))
    for history in probes:
        expected = np.array(oracle.distribution(history))
        assert model.next_token_distribution(history).tobytes() == expected.tobytes()
        _assert_score_is_the_dense_entry(model, history[:2], history[2:])


def test_every_way_of_forming_a_component_has_the_bits_of_the_per_step_formula():
    # 1,200 tokens of 4 ids in a vocabulary of 64: the index holds 18
    # components whole and counts the others when they are read
    sequence = np.random.default_rng(7).integers(0, 4, 1200).tolist()
    model, oracle = NGramModel(4, 64, sequences=[sequence]), NGramOracle([sequence], 4, 64, 0.01)
    assert sum(map(len, (level.held for level in model.index.levels))) == 18
    seen = set()
    for end in range(3, 400):
        history = sequence[end - 3 : end]
        for m, c in enumerate(model._context_ids(history)):
            seen.add("held" if c in model.index.levels[m].held else "counted")
        expected = np.array(oracle.distribution(history))
        assert model.next_token_distribution(history).tobytes() == expected.tobytes()
    assert seen == {"held", "counted"}


def test_context_seen_only_at_a_piece_end_gives_the_unseen_floor():
    # (2) and (1, 2) end the only piece that holds them: they hold entries
    # of the index, and count no token, as no context at all
    model = NGramModel(3, 4, sequences=[[0, 1, 2], [0, 1, 0]])
    assert len(model._context_ids([1, 2])) == 3
    unseen = model.next_token_distribution([3])  # (3) was never seen
    assert model.next_token_distribution([1, 2]).tobytes() == unseen.tobytes()
    assert [model.score([1, 2], [x])[0] for x in range(4)] == unseen.tolist()


def test_saved_model_loads_to_the_same_index_and_file(tmp_path, motif_sequences):
    sequences = [[], motif_sequences[0], [], [7], motif_sequences[1][:50]]
    model = train_ngram(sequences, order=5, vocab_size=V.size)
    saved, again = tmp_path / "model.json", tmp_path / "again.json"
    model.save(saved)
    loaded = NGramModel.load(saved)
    loaded.save(again)
    assert again.read_bytes() == saved.read_bytes()
    assert json.loads(saved.read_text(encoding="utf-8"))["sequences"] == sequences
    assert loaded.sequences == model.sequences == sequences
    _assert_same_index(loaded, model)


@pytest.mark.parametrize("bad", [-1, 4, 6, 9])
def test_ngram_ids_outside_the_vocabulary_were_never_counted(bad):
    # Contexts and grams are coded as id * V + token, so an id outside
    # [0, V) would alias a counted one: 4 after the context (0) codes as
    # 0 after (1), and (4, 0) as (0, 1).  Token 3 is never counted.
    model = train_ngram([[0, 1, 0, 1, 2]], order=3, vocab_size=4)
    unseen = model.next_token_distribution([3, 0])
    assert np.array_equal(model.next_token_distribution([bad, 0]), unseen)
    assert np.array_equal(model.score([bad, 0], [1]), [unseen[1]])
    assert np.array_equal(model.score([0], [bad]), [model.next_token_distribution([0])[3]])


def test_ngram_challenge_scores_match_the_per_step_path(motif_sequences, questions):
    model = train_ngram(motif_sequences, order=5, vocab_size=V.size)
    per_step = SequenceModel()  # the per-step SequenceModel.score
    per_step.vocab_size = V.size
    per_step.next_token_distribution = model.next_token_distribution
    assert run_challenge(model, questions[:8]).rows == run_challenge(per_step, questions[:8]).rows


def test_ngram_save_load_roundtrip(tmp_path, motif_sequences):
    model = train_ngram(motif_sequences[:2], order=2, vocab_size=V.size)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NGramModel.load(path)
    history = motif_sequences[0][:20]
    assert loaded.next_token_distribution(history) == pytest.approx(
        model.next_token_distribution(history)
    )
    _assert_same_index(loaded, model)


def test_ngram_model_file_is_settings_and_sequences(tmp_path, motif_sequences):
    model = train_ngram(motif_sequences, order=5, vocab_size=V.size)
    path = tmp_path / "model.json"
    model.save(path)
    data = json.loads(path.read_text(encoding="utf-8"))
    assert sorted(data) == ["alpha", "order", "sequences", "vocab_size"]
    assert data["sequences"] == [list(seq) for seq in motif_sequences]
    loaded = NGramModel.load(path)
    _assert_same_index(loaded, model)
    for cut in (0, 1, 3, 40, 200):
        history = motif_sequences[1][:cut]
        assert np.array_equal(
            loaded.next_token_distribution(history), model.next_token_distribution(history)
        )


@pytest.mark.parametrize("order", range(1, 10))
def test_reloaded_model_keeps_weights_and_distribution_bits(tmp_path, motif_sequences, order):
    model = train_ngram(motif_sequences[:3], order=order, vocab_size=V.size)
    path = tmp_path / "model.json"
    model.save(path)
    loaded = NGramModel.load(path)
    assert loaded.weight == model.weight
    for cut in (0, 1, 7, 40, 200):
        history = motif_sequences[3][:cut]
        assert np.array_equal(
            loaded.next_token_distribution(history), model.next_token_distribution(history)
        )


# SHA-256 of dense distributions and teacher-forced scores, recorded while
# models took their weights as a setting: at these orders 1/order normalised
# by its float sum is an ulp off a bare 1/order, and the bits show it.
PINNED_DISTRIBUTION_BITS = {
    6: "ada0490db4a9fbebb9f3da96e4f722d010cf87127b6f7d61aa99daaea6da2860",
    7: "98e92f391f8634eb9a2deb51ad46c8433dc51e1e3e68af528dcec74ba8d232f0",
    9: "6380341a1743787f0c701be36a39f7c36ca3451333097d717337bf6039a685e1",
}


@pytest.mark.parametrize("order", sorted(PINNED_DISTRIBUTION_BITS))
def test_equal_weights_keep_the_pinned_distribution_bits(motif_sequences, order):
    model = train_ngram(motif_sequences[:3], order=order, vocab_size=V.size)
    digest = hashlib.sha256()
    for cut in (0, 1, 7, 40, 200):
        digest.update(model.next_token_distribution(motif_sequences[3][:cut]).tobytes())
    digest.update(model.score(motif_sequences[3][:5], motif_sequences[3][5:300]).tobytes())
    assert digest.hexdigest() == PINNED_DISTRIBUTION_BITS[order]


@pytest.mark.parametrize("weights", [None, [0.14285714285714288] * 7], ids=["plain", "weights"])
def test_model_file_samples_what_the_trained_model_samples(tmp_path, motif_sequences, weights):
    # A model rebuilt from its file, with or without the weights field that
    # files held while models stored their weights (1/7 normalised at order
    # 7), gives every draw of the model it was trained as.
    trained = train_ngram(motif_sequences, order=7, vocab_size=V.size)
    data = trained.to_dict() if weights is None else {**trained.to_dict(), "weights": weights}
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    for temperature in (1.0, 0.7):
        drawn = [generate_tokens(model, [BAR_ID], target_bars=8, temperature=temperature,
                                 seed=5, max_tokens=600)
                 for model in (trained, NGramModel.load(path))]
        assert drawn[0] == drawn[1]


# SHA-256 of the ids an order-5 model samples, by temperature, recorded
# when the sampler came to draw only what the grammar allows.
PINNED_SAMPLE_DIGESTS = {
    1.0: "0b5ab2d157fffa24b21806df9ab3a1a307d974afccbeeb67971c12a2258ca442",
    0.7: "15175be0da899826d5efb72d1f3234aab1b1038b56a2e649fa95486c880e5920",
}


@pytest.mark.parametrize("temperature", sorted(PINNED_SAMPLE_DIGESTS, reverse=True))
def test_reloaded_model_samples_pinned_tokens(tmp_path, motif_sequences, temperature):
    # a change to the sampler or to the model shows here
    path = tmp_path / "model.json"
    train_ngram(motif_sequences, order=5, vocab_size=V.size).save(path)
    ids = generate_tokens(NGramModel.load(path), [BAR_ID], target_bars=8,
                          temperature=temperature, seed=5, max_tokens=600)
    digest = hashlib.sha256(json.dumps(ids).encode()).hexdigest()
    assert digest == PINNED_SAMPLE_DIGESTS[temperature]


def _model_file(**changes):
    data = {"order": 2, "vocab_size": 5, "alpha": 0.01, "sequences": [[0, 1, 0, 1], [2, 3, 4]]}
    data.update(changes)
    return {k: v for k, v in data.items() if v is not None}


@pytest.mark.parametrize(
    "data,message",
    [
        (_model_file(sequences=None), "'sequences' is missing"),
        (_model_file(order=None), "'order' is missing"),
        (_model_file(order="2"), "'order' is missing or of the wrong type"),
        (_model_file(vocab_size=True), "'vocab_size' is missing or of the wrong type"),
        (_model_file(alpha="0.01"), "'alpha' is missing or of the wrong type"),
        (_model_file(weights=[0.5, None]), "'weights' must be absent or hold the equal weights"),
        (_model_file(sequences=[[0, 1.5]]), "'sequences' is missing or of the wrong type"),
        (_model_file(sequences=[["0", "1"]]), "'sequences' is missing or of the wrong type"),
        (_model_file(sequences={"0": [1]}), "'sequences' is missing or of the wrong type"),
        (_model_file(sequences=[[0, 9999]]), "outside"),
        (_model_file(sequences=[[-1, 0]]), "outside"),
        (_model_file(alpha=float("nan")), "alpha"),
        ([1, 2], "re-run train-model"),
        # the count-table format written before models stored their sequences
        ({"order": 2, "vocab_size": 5, "alpha": 0.01, "weights": [0.5, 0.5],
          "counts": [{"": {"0": 2, "1": 2}}, {"0": {"1": 2}, "1": {"0": 1}}]},
         "re-run train-model"),
        # weights that sum to 1 but are not the equal ones every model uses
        (_model_file(weights=[0, 1]), "'weights' must be absent or hold the equal weights"),
        # alpha * vocab_size overflows to inf: every probability would be 0
        (_model_file(alpha=1e308), r"alpha \* vocab_size finite"),
        # a bare 1/7 is an ulp below the normalised weight every order-7 model uses
        (_model_file(order=7, weights=[1 / 7] * 7), "equal weights of order 7"),
        # no id would fit the index's integer types, and no index divides by 0
        (_model_file(vocab_size=2**64), "vocabulary size must be in"),
        (_model_file(vocab_size=0, sequences=[]), "vocabulary size must be in"),
    ],
)
def test_bad_model_file_raises_named_error(tmp_path, data, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    with pytest.raises(ChallengeError, match=message):
        NGramModel.load(path)


# Raw JSON that may stand in place of any one value of a model file, or of
# the whole file: wrong types, extreme and non-finite numbers, empty
# containers, long strings and numerals, and a byte that is not UTF-8.
_HOSTILE_JSON = [
    b'"x"', b"null", b"true", b"false", b"0", b"-1", b"0.5", b"1e308", b"-1e308", b"1e400",
    b"Infinity", b"-Infinity", b"NaN", b"1e-320", b"9223372036854775808",
    b"-9223372036854775809", b"18446744073709551616", b"[]", b"{}", b"[[]]", b'""',
    b'"' + b"x" * 100_000 + b'"', b"9" * 5000, b"\xff",
]


def hostile_model_file(draw, model: NGramModel) -> bytes:
    """The bytes of ``model``'s file with one hostile value in place of the
    whole file, of a field, of a sequence or of a token."""
    doc = model.to_dict()
    slot = "\0hostile\0"  # stands for the hostile value until the file is written
    where = draw(st.sampled_from(["file", "field", "sequence", "token"]))
    if where == "file":
        doc = slot
    elif where == "field":
        doc[draw(st.sampled_from([*doc, "weights"]))] = slot
    else:
        seq = draw(st.sampled_from(doc["sequences"]))
        if where == "sequence":
            doc["sequences"][doc["sequences"].index(seq)] = slot
        else:
            seq[draw(st.integers(0, len(seq) - 1))] = slot
    return json.dumps(doc).encode().replace(json.dumps(slot).encode(),
                                            draw(st.sampled_from(_HOSTILE_JSON)))


@settings(max_examples=200, deadline=None)
@given(sequences=st.lists(st.lists(st.integers(0, V.size - 1), min_size=1, max_size=12),
                          min_size=1, max_size=3),
       order=st.integers(1, 4), data=st.data())
def test_model_file_with_one_hostile_value_loads_or_raises_challenge_error(
        sequences, order, data):
    text = hostile_model_file(data.draw, train_ngram(sequences, order=order, vocab_size=V.size))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.json"
        path.write_bytes(text)
        try:
            NGramModel.load(path)
        except ChallengeError:
            pass


def test_ngram_rejects_ids_outside_the_vocabulary():
    with pytest.raises(ChallengeError, match="outside"):
        train_ngram([[0, 1, 5]], order=2, vocab_size=5)


# --- questions ----------------------------------------------------------------


def test_build_questions_deterministic(motif_sequences):
    a = build_questions(motif_sequences, count=10, seed=3, bar_token_id=BAR_ID)
    b = build_questions(motif_sequences, count=10, seed=3, bar_token_id=BAR_ID)
    assert a == b


def test_build_questions_needs_four_pieces(motif_sequences):
    with pytest.raises(ChallengeError, match="4 pieces"):
        build_questions(motif_sequences[:3], count=1, seed=0, bar_token_id=BAR_ID)


def test_questions_prompt_and_truth_contiguous(motif_sequences, questions):
    for q in questions:
        source = tuple(motif_sequences[q.source_piece])
        joined = q.prompt + q.candidates[q.true_index]
        assert source[: len(joined)] == joined


def test_questions_count_bars(questions):
    for q in questions:
        assert sum(1 for t in q.prompt if t == BAR_ID) == 8
        for c in q.candidates:
            assert sum(1 for t in c if t == BAR_ID) == 8


def test_question_candidates_distinct(questions):
    for q in questions:
        assert len(set(q.candidates)) == 4


def test_true_index_uniform_chi_square(motif_sequences):
    counts = np.zeros(4)
    for seed in range(60):
        for q in build_questions(motif_sequences, count=5, seed=seed, bar_token_id=BAR_ID):
            counts[q.true_index] += 1
    assert stats.chisquare(counts).pvalue > 0.01


def test_question_validation():
    with pytest.raises(ChallengeError, match="distinct"):
        ChallengeQuestion(prompt=(1,), candidates=((1,), (1,), (2,), (3,)), true_index=0)


# --- scoring ---------------------------------------------------------------------


def test_uniform_model_scores_one_over_v(questions):
    model = UniformModel(V.size)
    q = questions[0]
    for c in q.candidates:
        assert score_continuation(model, q.prompt, c) == pytest.approx(1.0 / V.size)


def test_score_truncates_to_length(questions):
    model = UniformModel(V.size)
    q = questions[0]
    full = score_continuation(model, q.prompt, q.candidates[0], length=5)
    longer = score_continuation(model, q.prompt, q.candidates[0][:5])
    assert full == pytest.approx(longer)


@pytest.mark.parametrize(
    "scores",
    [[np.nan] * 3, [0.5, 1.5, 0.5], [0.5, np.inf, 0.5], [-0.25, 0.5, 0.5], [0.5, 0.5], [[0.5] * 3]],
    ids=["nan", "above-one", "inf", "negative", "short", "two-dim"],
)
def test_score_contract_enforced(scores):
    class BadScore(UniformModel):
        def score(self, context, continuation):
            return np.array(scores)

    with pytest.raises(ChallengeError, match=r"^model scored (shape \(.*\), expected \(3,\)"
                                             r"|probabilities outside \[0, 1\] or NaN)$"):
        score_continuation(BadScore(4), [0], [1, 2, 3])


def test_candidate_ids_outside_the_vocabulary_are_refused():
    for candidate in ([1, 4], [-1, 2]):
        with pytest.raises(ChallengeError, match="outside"):
            score_continuation(UniformModel(4), [0], candidate)


def test_bigram_chain_hand_computed():
    # corpus 010101: each token 3 of 6, so the unigram term is (3+a)/(6+2a) = 1/2;
    # bigram p(1|0) = (3+a)/(3+2a), p(0|1) = (2+a)/(2+2a); both orders weigh 1/2
    model = train_ngram([[0, 1, 0, 1, 0, 1]], order=2, vocab_size=2, alpha=0.5)
    a = 0.5
    p10 = (0.5 + (3 + a) / (3 + 2 * a)) / 2
    p01 = (0.5 + (2 + a) / (2 + 2 * a)) / 2
    got = score_continuation(model, [0], [1, 0, 1])
    assert got == pytest.approx((p10 + p01 + p10) / 3)


def test_answer_argmax_and_tie_break():
    class Fixed(SequenceModel):
        def __init__(self, table):
            self.vocab_size = 4
            self.table = table

        def next_token_distribution(self, history):
            p = np.zeros(4)
            nxt = self.table.get(tuple(history), None)
            if nxt is None:
                return np.full(4, 0.25)
            p[nxt] = 1.0
            return p

    q = ChallengeQuestion(prompt=(0,), candidates=((1,), (2,), (3,), (0,)), true_index=1)
    model = Fixed({(0,): 2})
    chosen, correct, scores = answer_question(model, q)
    assert chosen == 1 and correct
    assert scores == [0.0, 1.0, 0.0, 0.0]

    tie_model = UniformModel(4)
    chosen, _, scores = answer_question(tie_model, q)
    assert chosen == 0  # exact tie -> lowest index
    assert len(set(scores)) == 1


def test_answer_invariant_under_monotone_transform(questions, motif_sequences):
    model = train_ngram(motif_sequences, order=2, vocab_size=V.size)
    q = questions[0]
    _, _, scores = answer_question(model, q)
    transformed = [s**3 * 10 for s in scores]  # strictly monotone on [0, inf)
    assert int(np.argmax(scores)) == int(np.argmax(transformed))


def test_oracle_model_answers_every_question(motif_sequences, questions):
    model = CorpusOracleModel(motif_sequences, V.size)
    result = run_challenge(model, questions)
    assert result.accuracy == 1.0


def test_uniform_accuracy_matches_true_index_zero_rate(questions):
    result = run_challenge(UniformModel(V.size), questions)
    expected = sum(q.true_index == 0 for q in questions) / len(questions)
    assert result.accuracy == pytest.approx(expected)


def test_run_challenge_log_shape(questions, motif_sequences):
    model = train_ngram(motif_sequences, order=2, vocab_size=V.size)
    result = run_challenge(model, questions[:5])
    assert len(result.rows) == 5
    assert all(len(r["scores"]) == 4 for r in result.rows)


# --- generation -------------------------------------------------------------------


def test_generation_deterministic(motif_sequences):
    model = train_ngram(motif_sequences, order=3, vocab_size=V.size)
    a = generate_tokens(model, [BAR_ID], target_bars=4, seed=9)
    b = generate_tokens(model, [BAR_ID], target_bars=4, seed=9)
    assert a == b
    assert sum(1 for t in a if t == BAR_ID) == 4


def test_generated_stream_decodes_as_is(motif_sequences):
    model = train_ngram(motif_sequences, order=4, vocab_size=V.size)
    ids = generate_tokens(model, [BAR_ID], target_bars=8, seed=2)
    timeline = decode_tokens(V.ids_to_tokens(ids))  # must not raise
    assert timeline.bar_count == 8
    assert repair_token_stream(V.ids_to_tokens(ids)) == (V.ids_to_tokens(ids), 0)


def test_low_temperature_reproduces_training_chain(motif_sequences):
    model = train_ngram(motif_sequences[:1], order=4, vocab_size=V.size)
    out = generate_tokens(
        model, list(motif_sequences[0][:10]), target_bars=3, temperature=1e-4, seed=0,
    )
    assert out[: len(motif_sequences[0][:60])] == motif_sequences[0][:60][: len(out)]


@pytest.mark.parametrize("temperature", [float("nan"), float("inf"), 0.0, -1.0])
def test_generate_rejects_a_bad_temperature(temperature):
    with pytest.raises(ChallengeError, match="temperature"):
        generate_tokens(UniformModel(V.size), [BAR_ID], target_bars=1,
                        temperature=temperature)


def test_generation_cap_error():
    class NeverBar(UniformModel):
        def next_token_distribution(self, history):
            p = np.zeros(self.vocab_size)
            p[BAR_ID + 1] = 1.0
            return p

    with pytest.raises(GenerationError):
        generate_tokens(NeverBar(V.size), [], target_bars=1, max_tokens=50)


class _TableModel(SequenceModel):
    """One fixed distribution per last id of the history (row V for none)."""

    def __init__(self, table: np.ndarray):
        self.vocab_size = V.size
        self.table = table

    def next_token_distribution(self, history):
        return self.table[history[-1] if history else V.size]


def _table_model(seed: int, zero_share: float, tiny_share: float) -> _TableModel:
    """Random rows over the vocabulary: a share of the entries exactly 0 and
    a share scaled below the smallest normal float, and each row one
    entry of at least 1 before it is normalised."""
    rng = np.random.default_rng(seed)
    rows = rng.random((V.size + 1, V.size))
    rows[rng.random(rows.shape) < zero_share] = 0.0
    rows[rng.random(rows.shape) < tiny_share] *= 1e-320
    rows[np.arange(V.size + 1), rng.integers(0, V.size, V.size + 1)] += 1.0
    return _TableModel(rows / rows.sum(axis=1, keepdims=True))


_ENCODED = [V.tokens_to_ids(encode_solo(s)) for s in random_corpus(seed=4, size=3, n_bars=2)]
_PRIMERS = st.tuples(st.integers(0, len(_ENCODED) - 1), st.integers(0, 80)).map(
    lambda t: _ENCODED[t[0]][: t[1]]
)
_TEMPERATURES = st.one_of(
    st.sampled_from([1e-310, 1e-3, 0.7, 1.0, 3.0, 1e308]),
    st.floats(min_value=0.0, max_value=1e308, exclude_min=True),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]),
       st.sampled_from([0.0, 0.5, 1.0]), _TEMPERATURES, st.integers(1, 60), _PRIMERS,
       st.integers(1, 4))
def test_property_generated_streams_decode_as_they_are(
    seed, zero_share, tiny_share, temperature, cap, primer, bars
):
    model = _table_model(seed, zero_share, tiny_share)
    try:
        ids = generate_tokens(model, primer, target_bars=bars, temperature=temperature,
                              seed=seed, max_tokens=cap)
    except GenerationError as exc:
        assert "no id the grammar allows has probability" in str(exc)
        return
    timeline = decode_tokens(V.ids_to_tokens(ids))  # must not raise
    assert 1 <= timeline.bar_count <= max(bars, primer.count(BAR_ID))
    assert len(ids) <= max(cap, len(primer))
    # the output extends the primer, less any group the cap left open in it
    assert ids[: len(primer)] == primer[: len(ids)]


def test_cap_cuts_a_sampled_group_that_is_still_open():
    cut = 0
    for cap in range(1, 41):
        ids = generate_tokens(UniformModel(V.size), [BAR_ID], target_bars=99, seed=cap,
                              max_tokens=cap)
        decode_tokens(V.ids_to_tokens(ids))  # must not raise
        assert len(ids) <= cap
        cut += len(ids) < cap
    assert cut  # some cap fell inside a group


def test_cap_cuts_an_open_group_of_the_primer_too(motif_sequences):
    seq = motif_sequences[0]
    tempo_class = next(i for i, t in enumerate(V.ids_to_tokens(seq)) if t.category == "TempoClass")
    primer = seq[: tempo_class + 1]  # ends inside the TempoClass, Tempo group
    model = train_ngram(motif_sequences, order=3, vocab_size=V.size)
    # no room to close the group: it is cut off, primer tokens and all
    assert generate_tokens(model, primer, target_bars=99, max_tokens=len(primer)) == primer[:-1]
    # room for one more token: the grammar allows only a Tempo, which closes it
    ids = generate_tokens(model, primer, target_bars=99, max_tokens=len(primer) + 1)
    assert ids[:-1] == primer and V.token(ids[-1]).category == "Tempo"


def test_allowed_mask_of_every_walker_state_is_what_step_accepts():
    groups = [None, *{nxt for nxt in _GROUP_GRAMMAR.values() if nxt}]
    states = [(False, None, None)] + [
        (True, position, expected)
        for position in [None, *range(64)]
        for expected in groups
        if position is not None or expected is None
    ]
    for bar_open, last_position, expected in states:
        walker = _GrammarWalker()
        walker.bar_open, walker.last_position, walker.expected = bar_open, last_position, expected
        mask = walker.allowed()
        assert mask.tolist() == allowed_mask_oracle(walker), (bar_open, last_position, expected)
        assert not mask.flags.writeable
        # asking changes no state
        assert (walker.bar_open, walker.last_position, walker.expected) == (
            bar_open, last_position, expected)
    # one mask per deciding state: each group's expected categories, and
    # (bar_open, last_position) between groups
    assert len(tokenizer._MASKS) == len(groups) - 1 + 66


def test_allowed_mask_of_every_state_reached_is_the_per_id_reference(monkeypatch):
    # masks built afresh, along encoded solos and along streams sampled from
    # an n-gram trained on them, hot enough to wander
    monkeypatch.setattr(tokenizer, "_MASKS", {})
    streams = [V.tokens_to_ids(encode_solo(s))
               for s in [*motif_corpus(3, n_bars=6), *random_corpus(3, 3, n_bars=6)]]
    model = train_ngram(streams, order=2, vocab_size=V.size)
    streams += [generate_tokens(model, [V.bar_token_id], target_bars=8, temperature=t, seed=seed)
                for seed in range(4) for t in (1.0, 4.0)]
    references: dict[tuple, list[float]] = {}  # the oracle's mask of each state seen
    for ids in streams:
        walker = _GrammarWalker()
        for i, token in enumerate(ids):
            state = tuple(vars(walker).items())
            if state not in references:
                references[state] = allowed_mask_oracle(walker)
            assert walker.allowed().tolist() == references[state], (i, state)
            walker.advance(i, V.token(token))
    assert len(references) > 50


def test_allowed_mask_follows_any_rule_step_applies(monkeypatch):
    # a rule the grammar does not have: no Tempo(7) inside a tempo group
    step = _GrammarWalker.step

    def refuse_tempo_7(walker, tok):
        if walker.expected == ("Tempo",) and tok == EventToken("Tempo", 7):
            return "{tok} refused", ()
        return step(walker, tok)

    monkeypatch.setattr(_GrammarWalker, "step", refuse_tempo_7)
    monkeypatch.setattr(tokenizer, "_MASKS", {})
    walker = _GrammarWalker()
    walker.bar_open, walker.last_position, walker.expected = True, 0, ("Tempo",)
    mask = walker.allowed()
    assert mask[V.token_id(EventToken("Tempo", 7))] == 0.0
    assert mask[V.token_id(EventToken("Tempo", 8))] == 1.0


def test_zero_mass_on_the_allowed_ids_names_the_step():
    position_0 = V.token_id(EventToken("Position", 0))

    class OnlyPosition0(UniformModel):
        def next_token_distribution(self, history):
            p = np.zeros(self.vocab_size)
            p[position_0] = 1.0
            return p

    # Position(0) follows the Bar, but cannot follow itself
    with pytest.raises(GenerationError, match="^step 2: no id the grammar allows has probability"):
        generate_tokens(OnlyPosition0(V.size), [BAR_ID], target_bars=1)


@pytest.mark.parametrize("temperature", [1e-310, 1e308])
def test_extreme_temperatures_still_sample(motif_sequences, temperature):
    model = train_ngram(motif_sequences, order=3, vocab_size=V.size)
    ids = generate_tokens(model, [BAR_ID], target_bars=2, temperature=temperature, seed=1,
                          max_tokens=300)
    decode_tokens(V.ids_to_tokens(ids))  # must not raise
    walker = _GrammarWalker()
    likeliest = []
    for k, token in enumerate(ids):
        if k:
            p = model.next_token_distribution(ids[:k]) * walker.allowed()
            likeliest.append(p[token] == p.max())
        walker.advance(k, V.token(token))
    # a tiny temperature is greedy; a huge one draws nearly uniformly
    assert all(likeliest) if temperature < 1 else not all(likeliest)


@pytest.mark.parametrize(
    "primer,index",
    [([V.token_id(EventToken("Position", 0))], 0), ([BAR_ID, V.size], 1), ([BAR_ID, -1], 1),
     ([BAR_ID, V.token_id(EventToken("Position", 0)), V.token_id(EventToken("NoteOn", 60))], 2)],
    ids=["position-before-bar", "id-past-the-vocabulary", "negative-id", "orphan-note-on"],
)
def test_primer_outside_the_grammar_is_a_token_grammar_error(primer, index):
    with pytest.raises(TokenGrammarError, match=f"^token {index}: "):
        generate_tokens(UniformModel(V.size), primer, target_bars=1)


# --- external protocol ---------------------------------------------------------------


class _PipeEnd:
    """In-memory bidirectional line channel driving a model function."""

    def __init__(self, fn, vocab_size):
        self.fn = fn
        self.vocab_size = vocab_size
        self.pending: list[str] = []
        self.requests: list[str] = []

    def write(self, text):
        self.requests.append(text)

    def flush(self):
        history = [int(x) for x in self.requests[-1].split()]
        self.pending.append(self.fn(history))

    def readline(self, limit=-1):
        line = self.pending.pop(0)
        if 0 <= limit < len(line):  # the rest stays for the next read, as in io
            line, rest = line[:limit], line[limit:]
            self.pending.insert(0, rest)
        return line


def test_line_protocol_dense():
    def fn(history):
        return " ".join(["0.25"] * 4) + "\n"

    pipe = _PipeEnd(fn, 4)
    model = LineProtocolModel(pipe, pipe, vocab_size=4)
    assert checked_distribution(model, [1, 2]) == pytest.approx(np.full(4, 0.25))


def test_line_protocol_sparse():
    def fn(history):
        return "* 1:0.7\n"

    pipe = _PipeEnd(fn, 4)
    model = LineProtocolModel(pipe, pipe, vocab_size=4)
    p = checked_distribution(model, [])
    assert p[1] == pytest.approx(0.7)
    assert p[0] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "line,expected",
    [
        ("*\n", [0.25, 0.25, 0.25, 0.25]),
        ("* 0:0.5 1:0.0\n", [0.5, 0.0, 0.25, 0.25]),
        ("* 0:0.4 1:0.2 2:0.2 3:0.2\n", [0.4, 0.2, 0.2, 0.2]),
    ],
)
def test_line_protocol_sparse_spreads_leftover_over_unlisted(line, expected):
    pipe = _PipeEnd(lambda history: line, 4)
    model = LineProtocolModel(pipe, pipe, vocab_size=4)
    assert checked_distribution(model, []) == pytest.approx(np.array(expected))


def test_line_protocol_model_answers_one_line_per_token():
    requests = []

    def respond(history):
        requests.append(history)
        return "0.25 0.25 0.25 0.25\n"

    pipe = _PipeEnd(respond, 4)
    score = score_continuation(LineProtocolModel(pipe, pipe, vocab_size=4), [0, 1], [2, 3, 0])
    assert requests == [[0, 1], [0, 1, 2], [0, 1, 2, 3]]
    assert score == 0.25


def test_line_protocol_sparse_rejects_duplicate_index():
    pipe = _PipeEnd(lambda history: "* 0:0.5 0:0.5\n", 4)
    model = LineProtocolModel(pipe, pipe, vocab_size=4)
    with pytest.raises(ModelProtocolError, match="twice"):
        model.next_token_distribution([])


# a sparse reply -> the entry it is refused for
HOSTILE_SPARSE_REPLIES = {
    "* 0:inf 1:-inf": "0:inf",
    "* 0:1e308 1:1e308": "0:1e308",
    "* 2:0.5 1:nan": "1:nan",
    "* 3:-0.25": "3:-0.25",
}


@pytest.mark.parametrize("reply", list(HOSTILE_SPARSE_REPLIES))
def test_line_protocol_refuses_a_sparse_probability_outside_0_1_as_it_is_parsed(reply):
    # before anything sums the listed mass, so numpy warns of no overflow or NaN
    pipe = _PipeEnd(lambda history: reply + "\n", 4)
    model = LineProtocolModel(pipe, pipe, vocab_size=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ModelProtocolError) as info:
            model.next_token_distribution([])
    entry = HOSTILE_SPARSE_REPLIES[reply]
    assert str(info.value) == f"sparse entry {entry!r}: probability outside [0, 1]"


def test_line_protocol_refuses_a_reply_line_over_its_limit():
    limit = challenge.REPLY_BYTES_PER_ID * 4
    # a reply of exactly the limit is read; one byte more, with no line break, is refused
    replies = iter(["*" + " " * (limit - 1) + "\n", "*" + " " * limit])
    pipe = _PipeEnd(lambda history: next(replies), 4)
    model = LineProtocolModel(pipe, pipe, vocab_size=4)
    assert model.next_token_distribution([0]) == pytest.approx(np.full(4, 0.25))
    with pytest.raises(ModelProtocolError, match=f"longer than {limit} bytes"):
        model.next_token_distribution([0, 1])


_PROBABILITY_TEXT = st.one_of(
    st.sampled_from(["0", "1", "0.25", "0.5", "1.0000000005", "-0.25", "nan", "inf", "-inf",
                     "1e-300", "1e400", "abc", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_SPARSE_ITEM = st.one_of(
    st.tuples(st.integers(-2, 6), _PROBABILITY_TEXT).map(lambda t: f"{t[0]}:{t[1]}"),
    st.sampled_from(["1", ":0.5", "1:", "x:0.5", "1:0.5:0.5", "1.5:0.5"]),
)
_RESPONSE_LINE = st.one_of(
    st.lists(_PROBABILITY_TEXT, max_size=6).map(" ".join),
    st.lists(_SPARSE_ITEM, max_size=6).map(lambda items: " ".join(["*", *items])),
)


@settings(max_examples=300, deadline=None)
@given(_RESPONSE_LINE, st.lists(st.integers(0, 3), max_size=4))
def test_line_protocol_yields_a_distribution_or_a_named_error(line, history):
    pipe = _PipeEnd(lambda _: line + "\n", 4)
    try:
        p = checked_distribution(LineProtocolModel(pipe, pipe, vocab_size=4), history)
    except (ModelProtocolError, ChallengeError):
        return
    assert p.shape == (4,)
    assert np.isfinite(p).all()
    assert ((p >= 0) & (p <= 1)).all()
    assert abs(p.sum() - 1.0) <= DISTRIBUTION_TOLERANCE


_IDS = st.lists(st.integers(0, 442), max_size=8)
_HISTORY_STEP = st.one_of(
    st.lists(st.integers(0, 442), max_size=3).map(lambda ids: ("extend", ids)),
    st.integers(0, 4).map(lambda n: ("truncate", n)),
    _IDS.map(lambda ids: ("replace", ids)),
    st.just(("replace", [])),
    st.tuples(st.integers(0, 20), st.integers(0, 442)).map(lambda t: ("set", t)),
    _IDS.map(lambda ids: ("tuple", ids)),
)


@settings(max_examples=300, deadline=None)
@given(_IDS, st.lists(_HISTORY_STEP, max_size=30))
def test_line_protocol_writes_each_history_whole(start, steps):
    # one list, extended, cut and changed in place between calls as
    # SequenceModel.score extends its own, or replaced by another
    pipe = _PipeEnd(lambda _: "*\n", V.size)
    model = LineProtocolModel(pipe, pipe, vocab_size=V.size)
    history, expected = list(start), []
    for op, arg in [("extend", []), *steps]:
        sent = history
        if op == "extend":
            history.extend(arg)
        elif op == "truncate":
            del history[max(0, len(history) - arg):]
        elif op == "replace":
            history = sent = list(arg)
        elif op == "set" and history:
            history[arg[0] % len(history)] = arg[1]
        elif op == "tuple":
            sent = tuple(history + arg)
        model.next_token_distribution(sent)
        expected.append(" ".join(map(str, sent)) + "\n")
    assert pipe.requests == expected


@pytest.mark.parametrize(
    "script,reads",
    [
        ("import sys; sys.stdin.readline(); sys.exit(3)", True),  # the read comes back empty
        ("import sys; sys.exit(3)", False),  # the write meets a broken pipe
    ],
)
def test_subprocess_model_names_the_exit_code_of_a_child_that_exited(script, reads):
    with SubprocessModel([sys.executable, "-c", script], 5) as model:
        if not reads:
            model._proc.wait()
        with pytest.raises(ModelProtocolError, match="closed the stream and exited with code 3"):
            model.next_token_distribution([0, 1])


def test_subprocess_model_reads_replies_however_the_child_writes_them():
    # two replies in one write, then a last one that ends the stream unterminated
    script = (
        "import sys\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('* 0:1\\n* 1:1\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write('* 2:1')\n"
    )
    with SubprocessModel([sys.executable, "-c", script], 3) as model:
        chosen = [int(np.argmax(model.next_token_distribution([i]))) for i in range(3)]
    assert chosen == [0, 1, 2]


def test_subprocess_model_refuses_a_reply_line_over_its_limit():
    limit = challenge.REPLY_BYTES_PER_ID * V.size
    # a reply of exactly the limit is read; one byte more, with no line break,
    # is refused at once, not after READ_TIMEOUT_S
    script = (
        "import sys\n"
        "sys.stdin.readline()\n"
        f"print('*' + ' ' * {limit - 1}, flush=True)\n"
        "sys.stdin.readline()\n"
        f"sys.stdout.write('*' + ' ' * {limit})\n"
        "sys.stdout.flush()\n"
        "sys.stdin.readline()\n"
    )
    with SubprocessModel([sys.executable, "-c", script], V.size) as model:
        assert model.next_token_distribution([0]) == pytest.approx(np.full(V.size, 1 / V.size))
        with pytest.raises(ModelProtocolError, match=f"longer than {limit} bytes"):
            model.next_token_distribution([0, 1])


_NOT_UTF8_REPLIES = {
    b"0.5 \xff": "unparseable probability line '0.5 \ufffd\\n'",
    b"* 0:\xff": "bad sparse entry '0:\ufffd'",
    b"\xc3( 1": "unparseable probability line '\ufffd( 1\\n'",
}


@pytest.mark.parametrize("reply", list(_NOT_UTF8_REPLIES))
def test_subprocess_model_refuses_a_reply_that_is_not_utf8(reply):
    # each byte that is not UTF-8 reads as U+FFFD, which no number or index parses
    script = f"import sys; sys.stdin.readline(); sys.stdout.buffer.write({reply!r} + b'\\n')"
    with SubprocessModel([sys.executable, "-c", script], 2) as model:
        with pytest.raises(ModelProtocolError) as info:
            model.next_token_distribution([0])
    assert str(info.value) == _NOT_UTF8_REPLIES[reply]


def test_subprocess_model_matches_builtin_uniform(questions):
    script = (
        "import sys\n"
        f"V = {V.size}\n"
        "for line in sys.stdin:\n"
        "    print(' '.join(['%.10g' % (1.0 / V)] * V), flush=True)\n"
    )
    with SubprocessModel([sys.executable, "-c", script], V.size) as model:
        result = run_challenge(model, questions[:3])
    builtin = run_challenge(UniformModel(V.size), questions[:3])
    for a, b in zip(result.rows, builtin.rows):
        assert a["scores"] == pytest.approx(b["scores"], abs=1e-9)


class _SumModel(SequenceModel):
    """Puts all mass on (sum of the history's ids) mod V."""

    def __init__(self, vocab_size):
        self.vocab_size = vocab_size

    def next_token_distribution(self, history):
        p = np.zeros(self.vocab_size)
        p[sum(history) % self.vocab_size] = 1.0
        return p


def test_subprocess_model_sends_every_id_of_every_history():
    # a dropped, doubled or stale id on the wire moves the child's answer
    vocab = 7
    rng = np.random.default_rng(5)
    questions = [
        ChallengeQuestion(
            prompt=tuple(int(x) for x in rng.integers(0, vocab, int(rng.integers(0, 30)))),
            candidates=tuple(tuple(int(x) for x in rng.integers(0, vocab, 12)) for _ in range(4)),
            true_index=int(rng.integers(0, 4)),
        )
        for _ in range(8)
    ]
    script = (
        "import sys\n"
        "for line in sys.stdin:\n"
        f"    print('* %d:1' % (sum(map(int, line.split())) % {vocab}), flush=True)\n"
    )
    with SubprocessModel([sys.executable, "-c", script], vocab) as model:
        result = run_challenge(model, questions)
    expected = run_challenge(_SumModel(vocab), questions)
    assert [row["scores"] for row in result.rows] == [row["scores"] for row in expected.rows]
    assert len({s for row in expected.rows for s in row["scores"]}) > 3  # the rule is not flat


def test_subprocess_model_error_ends_with_the_tail_of_its_stderr():
    script = "import sys; sys.stderr.write('x' * 5000 + 'boom'); sys.exit(3)"
    with SubprocessModel([sys.executable, "-c", script], 5) as model:
        model._proc.wait()
        with pytest.raises(ModelProtocolError) as info:
            model.next_token_distribution([0, 1])
    message = str(info.value)
    assert "exited with code 3" in message and message.endswith("boom")
    assert message.count("x") <= STDERR_TAIL_BYTES


def test_subprocess_model_read_timeout_ends_with_the_tail_of_its_stderr(monkeypatch):
    monkeypatch.setattr(challenge, "READ_TIMEOUT_S", 0.2)
    monkeypatch.setattr(challenge, "CLOSE_TIMEOUT_S", 0.2)
    script = "import sys, time; sys.stderr.write('loading weights'); sys.stderr.flush(); time.sleep(30)"
    with pytest.raises(ModelProtocolError, match="within 0.2 s; its stderr ends: loading weights"):
        with SubprocessModel([sys.executable, "-c", script], 5) as model:
            model.next_token_distribution([0])


def test_subprocess_model_copies_its_stderr_to_ours_on_close(capfd):
    # far more than a pipe holds, written before the first reply
    script = (
        "import sys\n"
        "sys.stderr.write('chatter\\n' * 50000 + 'model ready\\n')\n"
        "for line in sys.stdin:\n"
        "    print('*', flush=True)\n"
    )
    with SubprocessModel([sys.executable, "-c", script], 3) as model:
        assert model.next_token_distribution([1, 2]) == pytest.approx(np.full(3, 1 / 3))
    err = capfd.readouterr().err
    assert err.count("chatter\n") == 50000 and err.endswith("model ready\n")
