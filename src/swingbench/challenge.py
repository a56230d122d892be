"""Continuation-prediction challenge and the n-gram baseline model.

A question pairs an 8-bar prompt with four 8-bar candidate continuations,
exactly one of which truly follows the prompt in its source piece; the
wrong answers are windows drawn from three other pieces.  A model answers
by the mean probability it assigns to each candidate's tokens under
teacher forcing, truncated to the shortest candidate, and picks the
argmax (lowest index on ties).

Any sequence model can participate: the built-in interpolated add-alpha
n-gram, the uniform and corpus-memorizing reference models, or an
external process speaking the line protocol (history ids out, probability
vector back, one line per step).  Teacher-forced scoring asks a model's
``score`` once per candidate for the probability of each of its tokens;
the n-gram, the oracle and the uniform model compute just those
probabilities, and every other model falls back to one checked
distribution per step, so an external model still answers one line per
token.
"""

from __future__ import annotations

import json
import os
import select
import shlex
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .tokenizer import (
    DEFAULT_VOCABULARY as VOCAB,
    TokenGrammarError,
    _GrammarWalker,
)

DISTRIBUTION_TOLERANCE = 1e-9
# Probability mass the corpus oracle spreads over every token.
ORACLE_EPSILON = 1e-6
# Bars in a question's prompt and in each of its candidate continuations.
PROMPT_BARS = CONTINUATION_BARS = 8
# Seconds a child model may take to exit after its input is closed.
CLOSE_TIMEOUT_S = 10.0
# Seconds a child model may take to send a whole reply line.
READ_TIMEOUT_S = 60.0
# Bytes a reply line may hold for each id of the vocabulary: ample for a
# 17-digit probability and its index in either reply syntax.
REPLY_BYTES_PER_ID = 64
# Bytes of a child model's stderr quoted at the end of its error messages.
STDERR_TAIL_BYTES = 2048


class ChallengeError(ValueError):
    """Invalid challenge setup (corpus too small, malformed candidates...)."""


class ModelProtocolError(ValueError):
    """An external model broke the line protocol contract."""


class SequenceModel:
    """Interface: a conditional distribution over the next token id."""

    vocab_size: int

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        raise NotImplementedError

    def score(self, context: Sequence[int], continuation: Sequence[int]) -> np.ndarray:
        """Probability of each continuation token under teacher forcing:
        element ``i`` is ``next_token_distribution(context + continuation[:i])``
        at ``continuation[i]``.  This default asks for one checked
        distribution per token; models that can compute the entries
        directly override it."""
        history = list(context)
        out = np.empty(len(continuation))
        for i, token in enumerate(continuation):
            out[i] = checked_distribution(self, history)[token]
            history.append(token)
        return out


def _checked_probabilities(values, length: int, verb: str) -> np.ndarray:
    """``values`` as a float array, refused unless it holds ``length``
    probabilities in [0, 1]; ``verb`` says what the model did to give them."""
    p = np.asarray(values, dtype=float)
    if p.shape != (length,):
        raise ChallengeError(f"model {verb} shape {p.shape}, expected ({length},)")
    # Negated comparisons: NaN fails both checks, inf the range check.
    if not ((p >= 0) & (p <= 1)).all():
        raise ChallengeError(f"model {verb} probabilities outside [0, 1] or NaN")
    return p


def checked_distribution(model: SequenceModel, history: Sequence[int]) -> np.ndarray:
    """Query a model and enforce the probability contract at the boundary."""
    p = _checked_probabilities(model.next_token_distribution(history), model.vocab_size,
                               "returned")
    if not abs(float(p.sum()) - 1.0) <= DISTRIBUTION_TOLERANCE:
        raise ChallengeError(f"model distribution sums to {p.sum()!r}, not 1")
    return p


class UniformModel(SequenceModel):
    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        return np.full(self.vocab_size, 1.0 / self.vocab_size)

    def score(self, context: Sequence[int], continuation: Sequence[int]) -> np.ndarray:
        return np.full(len(continuation), 1.0 / self.vocab_size)


def _int_type(largest: int) -> type:
    """The narrowest of int16, int32 and int64 that holds ``largest``."""
    return next(t for t in (np.int16, np.int32, np.int64) if largest <= np.iinfo(t).max)


def _token_store(pieces: Sequence[Sequence[int]], vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    """How a model holds the token corpus it memorises: the pieces' ids in
    one flat array of the narrowest integer type that holds an id (2 bytes
    a token at the default vocabulary, where a list of Python ints takes 8
    or more), and the length of each piece.  An id outside
    ``[0, vocab_size)`` is refused."""
    lengths = np.fromiter(map(len, pieces), dtype=np.int64, count=len(pieces))
    try:
        ids = np.fromiter(chain.from_iterable(pieces), dtype=_int_type(vocab_size - 1),
                          count=int(lengths.sum()))
        inside = not len(ids) or (0 <= ids.min() and ids.max() < vocab_size)
    except OverflowError:  # wider than the type, so outside the vocabulary too
        inside = False
    if not inside:
        raise ChallengeError(f"token id outside [0, {vocab_size})")
    return ids, lengths


def _common_length(a: list[int], b: Sequence[int]) -> int:
    """The length of the longest common prefix of two sequences of one length."""
    if a == list(b):  # the common case, at the speed of a list comparison
        return len(a)
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


class CorpusOracleModel(SequenceModel):
    """Memorizes a corpus and predicts its continuation with certainty.

    When the history is a prefix of some memorized piece the next token
    of that piece gets probability ``1 - ORACLE_EPSILON``; otherwise the model
    falls back to uniform.  Useful as a calibration ceiling.

    The pieces are kept as one flat id array (``_token_store``) in
    lexicographic order, less each piece that is a prefix of another and
    so adds no prefix.  The pieces a history is a prefix of are then a
    range of that order, a node: each token narrows the range by a binary
    search on its column, and once one piece is left the rest of a
    history is compared with it in one slice.  The next tokens after a
    history are the distinct ids at its column in its range.
    """

    def __init__(self, pieces: Sequence[Sequence[int]], vocab_size: int):
        self.vocab_size = vocab_size
        ids, lengths = _token_store(pieces, vocab_size)
        # the ids as unsigned big-endian bytes sort as the pieces do, a prefix first
        raw = np.dtype(f">u{ids.itemsize}")
        keys = sorted(ids[start:start + length].astype(raw).tobytes()
                      for start, length in zip((np.cumsum(lengths) - lengths).tolist(),
                                               lengths.tolist()))
        # a piece that is a prefix of another is a prefix of the next one in this order
        keys = [key for key, after in zip(keys, keys[1:]) if not after.startswith(key)] + keys[-1:]
        self._lengths = np.array([len(key) // raw.itemsize for key in keys], dtype=np.int64)
        self._starts = np.cumsum(self._lengths) - self._lengths
        self._ids = np.frombuffer(b"".join(keys), dtype=raw).astype(ids.dtype)

    def _follow(self, node: tuple[int, int, int], tokens: Sequence[int],
                out: np.ndarray | None = None) -> tuple[int, int, int]:
        """The node that ``tokens`` lead to from ``node``: the range ``lo:hi``
        of the pieces that hold the history as a prefix, and the history's
        length; the range is empty once the history leaves the corpus.  With
        ``out``, each token's probability is written to it, except off the
        corpus or past the end of a piece."""
        lo, hi, depth = node
        floor = ORACLE_EPSILON / self.vocab_size
        for i, token in enumerate(tokens):
            if hi - lo == 1:  # one piece left: follow it with the rest of the tokens at once
                start = self._starts.item(lo) + depth
                end = self._starts.item(lo) + self._lengths.item(lo)
                rest = self._ids[start : min(end, start + len(tokens) - i)].tolist()
                same = _common_length(rest, tokens[i : i + len(rest)])
                if out is not None:
                    out[i : i + same] = floor + (1.0 - ORACLE_EPSILON)  # one next id
                    if same < len(rest):  # the piece goes on with another id
                        out[i + same] = floor
                return (lo, hi, depth + same) if i + same == len(tokens) else (lo, lo, depth)
            if lo == hi:
                break
            # each piece's id at ``depth``, ascending: every piece of a range of
            # two or more goes on past ``depth`` (none is a prefix of another)
            column = self._ids[self._starts[lo:hi] + depth]
            view = memoryview(column)  # bisected with Python ints, of any size
            first, last = bisect_left(view, token), bisect_right(view, token)
            if out is not None:
                distinct = len(np.unique(column))
                out[i] = floor + (1.0 - ORACLE_EPSILON) / distinct if first < last else floor
            lo, hi, depth = lo + first, lo + last, depth + 1
        return lo, hi, depth

    def score(self, context: Sequence[int], continuation: Sequence[int]) -> np.ndarray:
        """Follows the context once, then the continuation a token at a
        time.  This is the one way to query the model: it has no
        ``next_token_distribution``."""
        out = np.full(len(continuation), 1.0 / self.vocab_size)  # off the corpus or past a piece
        self._follow(self._follow((0, len(self._lengths), 0), context), continuation, out)
        return out


# The largest n-gram order a model may have: the index holds a level per
# order, and every step adds a term per order.
MAX_ORDER = 32


def _add_alpha(weight: float, alpha: float, count, total, vocab_size: int):
    """One order's weighted add-alpha term ``weight * (alpha + count) /
    (total + alpha * V)`` of a token counted ``count`` times after a
    context of ``total`` grams; with a count of 0, the floor of every token
    never seen after it (``total`` is 0 for a context never seen)."""
    alpha = float(alpha)  # an int alpha from a model file must not wrap in narrow arrays
    return weight * (alpha + count) / (total + alpha * vocab_size)


@dataclass
class _ContextLevel:
    """The contexts of one length ``m``: ``contexts``, their sorted codes;
    ``starts``, where each context's range begins in the index's shared
    order (with one more entry, where the last range ends); and ``held``,
    by context id, the components that the index keeps whole for the
    contexts of its longest ranges.

    A context of length ``m`` extends one of length ``m - 1`` by the token
    on its left, so its code is ``id(m - 1) * (V + 1) + token``, and its
    id is its rank in ``contexts``.  Where an entry has fewer than ``m``
    tokens of its own piece to its left, its context holds the token
    ``V`` of the end before it: such a context holds the entries near a
    piece's start, so that every range of one level follows the one
    before it, and no query can name it.
    """

    contexts: np.ndarray
    starts: np.ndarray
    held: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.context_view = memoryview(self.contexts)


class _CountIndex:
    """The n-gram counts of a token store, as ranges of one sorted order.

    Every position of the store, and one end after each piece, is an
    entry.  ``grams`` holds each entry's code, sorted: the id of its
    deepest context (``len(levels) - 1`` tokens, or as many as its piece
    gives it) times ``V + 1``, plus its next token, or ``V`` at a piece's
    end.  The contexts of each length are ordered as their entries are,
    so every context owns one range of ``grams``.  A context's total is
    its range's length less the piece ends in it (``ends`` holds their
    places in ``grams``).  The count of token ``x`` after context ``c`` is
    the length of the range of ``c`` followed by ``x``, a context one
    token longer: each ``x`` after ``c`` is followed by an entry, its
    piece's end if nothing else.  At the deepest level it is the length
    of the run of the code ``id(c) * (V + 1) + x``.

    No count is stored.  A context's component is computed from the next
    tokens in its range when it is read, except for the contexts with the
    longest ranges, as many as there are entries per ``V`` (8 bytes an
    entry at most), whose components are held whole.

    Codes take the narrowest integer type that holds the entry count
    times ``V + 1``, and starts and ends the narrowest that holds the
    entry count.  No binary search may give numpy a needle wider than the
    codes it searches, which would copy the whole array to the needle's
    type on every call: a step bisects memoryviews with Python ints, and
    the vectorised searches cast their needles.
    """

    def __init__(self, tokens: np.ndarray, lengths: np.ndarray, order: int, weight: float,
                 alpha: float, vocab_size: int):
        """Counts ``tokens``, the pieces of a ``_token_store`` back to back
        with their ``lengths``, after contexts of up to ``order - 1`` tokens
        that lie inside the entry's own piece; every component is weighted
        by ``weight``."""
        self.weight, self.alpha, self.vocab_size = weight, alpha, vocab_size
        radix, pieces = vocab_size + 1, len(lengths)
        n = len(tokens) + pieces
        position, code = _int_type(n), _int_type(max(n, 1) * radix)
        # each entry's next token, V after each piece
        nexts = np.insert(tokens.astype(_int_type(vocab_size)), np.cumsum(lengths), vocab_size)
        ids = np.zeros(n, dtype=code)  # every entry has the empty context, id 0
        contexts = [ids[:1].copy()]
        for m in range(1, order):
            # the token m to the left of each entry: the V of a piece's end
            # where that lies past its own piece's start, and before the first
            left = np.full(n, vocab_size, dtype=nexts.dtype)
            left[m:] = nexts[:-m]
            ids *= radix
            ids += left  # the codes
            del left
            # each code's rank, as np.unique's return_inverse gives it, without its int64 copies
            by_code = np.argsort(ids)
            sorted_codes = ids[by_code]
            first = np.empty(n, dtype=bool)  # where each distinct code begins in sorted_codes
            first[:1] = True
            np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=first[1:])
            contexts.append(sorted_codes[first])
            del sorted_codes
            ranks = np.cumsum(first, dtype=code)
            ranks -= 1
            ids[by_code] = ranks
            del by_code, first, ranks
        ids *= radix
        ids += nexts
        del nexts
        ids.sort()
        self.grams = ids
        self.ends = np.flatnonzero(ids % radix == vocab_size).astype(position)
        # the deepest level's ranges, then each level's from its first child's
        starts = np.searchsorted(ids, np.arange(len(contexts[-1]) + 1, dtype=code) * radix)
        self.levels = [_ContextLevel(contexts[-1], starts.astype(position))]
        for parents in reversed(contexts[:-1]):
            child = self.levels[0]
            first = np.searchsorted(child.contexts, np.arange(len(parents), dtype=code) * radix)
            starts = np.append(child.starts[first], n).astype(position)
            self.levels.insert(0, _ContextLevel(parents, starts))
        # the longest ranges keep their components whole, 8 bytes an entry in all at most
        sizes = np.sort(np.concatenate([np.diff(level.starts) for level in self.levels]))
        rows = n // vocab_size
        cut = int(sizes[-rows - 1]) if rows < len(sizes) else 0
        for m, level in enumerate(self.levels):
            for c in np.flatnonzero(np.diff(level.starts) > cut).tolist():
                level.held[c] = self.component(m, c)

    def component(self, m: int, c: int) -> np.ndarray:
        """Order ``m + 1``'s weighted add-alpha component after the context
        of ``m`` tokens with id ``c``."""
        level, vocab = self.levels[m], self.vocab_size
        if c in level.held:
            return level.held[c]
        lo, hi = level.starts.item(c), level.starts.item(c + 1)
        counts = np.bincount(self.grams[lo:hi] % (vocab + 1), minlength=vocab + 1)
        total = hi - lo - counts.item(vocab)  # less the piece ends, counted as the token V
        return _add_alpha(self.weight, self.alpha, counts[:vocab], total, vocab)


def _find(sorted_codes: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The index of each code in ``sorted_codes``, or -1 where it is absent."""
    if not len(sorted_codes):
        return np.full(len(codes), -1)
    needles = codes.astype(sorted_codes.dtype)  # every code here fits the type, -1 too
    at = np.minimum(np.searchsorted(sorted_codes, needles), len(sorted_codes) - 1)
    return np.where(sorted_codes[at] == codes, at, -1)


class NGramModel(SequenceModel):
    """Interpolated n-gram model with add-alpha smoothing.

    Each order k = 1 .. ``order`` has a component
    ``(count(context, x) + alpha) / (count(context) + alpha * V)`` over the
    last ``k - 1`` history tokens, and every component weighs the same:
    ``1 / order`` normalised by its float sum.  Each component sums to 1
    and so do the weights, so the weighted sum is the distribution itself,
    with no renormalising.  Every token keeps nonzero probability, so the
    model never assigns zero to a continuation.

    The model is fixed by the id sequences it is built from.  Their counts
    are ranges of one sorted order, ``index`` (a ``_CountIndex`` with a
    ``_ContextLevel`` per context length), built with numpy on the first
    query.  A history's contexts are found by binary search, one token
    further left per level, and each term is computed from a count and a
    total, both range lengths, when it is read; only the components after
    the contexts with the longest ranges are held whole.  The order is at
    most ``MAX_ORDER``.
    """

    def __init__(
        self,
        order: int,
        vocab_size: int,
        alpha: float = 0.01,
        sequences: Sequence[Sequence[int]] = (),
    ):
        if not 1 <= order <= MAX_ORDER:
            raise ChallengeError(f"n-gram order must be in 1..{MAX_ORDER}, got {order}")
        # ids fit int32, so the index's codes, below entries * (V + 1), fit int64
        if not 1 <= vocab_size < 2**31:
            raise ChallengeError(f"vocabulary size must be in 1..2**31 - 1, got {vocab_size}")
        # alpha * V is the floor of every component's denominator; past the
        # largest float it is inf, and every probability would be 0.
        if not (alpha > 0 and alpha * vocab_size <= sys.float_info.max):
            raise ChallengeError("smoothing alpha must be positive, with alpha * vocab_size finite")
        self.order = order
        self.vocab_size = vocab_size
        self.alpha = alpha
        # normalised, the weight is an ulp off 1/order at orders 6, 7 and 9-11;
        # every distribution and every model file written so far has these bits
        weight = 1.0 / order
        self.weight = weight / float(sum([weight] * order))
        self._tokens, self._lengths = _token_store(sequences, vocab_size)

    @property
    def sequences(self) -> list[list[int]]:
        """The sequences the model is built from, as lists: what ``to_dict`` saves."""
        starts = (np.cumsum(self._lengths) - self._lengths).tolist()
        return [self._tokens[s : s + n].tolist() for s, n in zip(starts, self._lengths.tolist())]

    @cached_property
    def index(self) -> _CountIndex:
        """The counts of every sequence: level ``m`` for contexts of ``m`` tokens."""
        return _CountIndex(self._tokens, self._lengths, self.order, self.weight, self.alpha,
                           self.vocab_size)

    def _context_ids(self, history: Sequence[int]) -> list[int]:
        """Ids of the history's last 0, 1, 2 ... tokens as contexts, up to
        ``order - 1`` tokens, stopping at the first one never seen."""
        ids: list[int] = []
        code = 0
        for m, level in enumerate(self.index.levels[: len(history) + 1]):
            if m:
                token = int(history[-m])
                if not 0 <= token < self.vocab_size:  # never counted; its code would alias
                    break
                code = ids[-1] * (self.vocab_size + 1) + token
            at = bisect_left(level.context_view, code)
            if at == len(level.contexts) or level.context_view[at] != code:
                break
            ids.append(at)
        return ids

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        """The sum of the per-order components, each after its context in
        the history, or the floor of an empty context where that context
        was never seen.  Each component is added whole, as the per-step
        formula adds it, so the bits do not depend on how it was formed."""
        ids = self._context_ids(history)
        p = np.zeros(self.vocab_size)
        for m in range(self.order):
            if m < len(ids):
                p += self.index.component(m, ids[m])
            else:
                p += _add_alpha(self.weight, self.alpha, 0, 0, self.vocab_size)
        return p

    def score(self, context: Sequence[int], continuation: Sequence[int]) -> np.ndarray:
        """Each token's probability from the per-order terms of
        ``next_token_distribution`` summed in the same order, so entry ``i``
        has the bits of the dense distribution's.  The context ids of every
        step, and of one step past the last, are looked up together, level
        by level; a token's count after a context is the range length of
        the next step's context one level deeper, and at the deepest level
        that of its gram's code."""
        index, vocab, radix = self.index, self.vocab_size, self.vocab_size + 1
        tail = list(context[max(0, len(context) - self.order + 1) :])
        history = np.array([*tail, *continuation], dtype=np.int64)
        target = history[len(tail) :]
        if not len(target):
            return np.zeros(0)
        # where each scored token sits in history, and where the history ends
        steps = np.arange(len(tail), len(history) + 1)
        # ids outside the vocabulary were never counted, and their codes would alias
        counted = (history >= 0) & (history < vocab)
        # ids[m, i]: the id of step i's m-token context, -1 when it was never seen
        ids = np.empty((self.order, len(steps)), dtype=np.int64)
        ids[0] = _find(index.levels[0].contexts, np.zeros(len(steps), dtype=np.int64))
        for m in range(1, self.order):
            left = np.maximum(steps - m, 0)  # the token that extends the context
            seen = (ids[m - 1] >= 0) & (steps >= m) & counted[left]
            codes = np.where(seen, ids[m - 1] * radix + history[left], -1)
            ids[m] = _find(index.levels[m].contexts, codes)
        p = np.zeros(len(target))
        for m in range(self.order):
            at, seen = ids[m, :-1], ids[m, :-1] >= 0
            starts = index.levels[m].starts
            lo, hi = starts[at[seen]], starts[at[seen] + 1]
            total = np.zeros(len(target), dtype=np.int64)
            total[seen] = hi - lo - (index.ends.searchsorted(hi) - index.ends.searchsorted(lo))
            count = np.zeros(len(target), dtype=np.int64)
            if m + 1 < self.order:  # the next step's context ends with the token
                deeper, longer = index.levels[m + 1].starts, ids[m + 1, 1:]
                found = longer >= 0
                count[found] = deeper[longer[found] + 1] - deeper[longer[found]]
            else:
                seen &= counted[len(tail) :]
                codes = (at[seen] * radix + target[seen]).astype(index.grams.dtype)
                count[seen] = (index.grams.searchsorted(codes, "right")
                               - index.grams.searchsorted(codes))
            p += _add_alpha(self.weight, self.alpha, count, total, vocab)
        return p

    # --- persistence ---

    def to_dict(self) -> dict:
        return {"order": self.order, "vocab_size": self.vocab_size, "alpha": self.alpha,
                "sequences": self.sequences}

    @classmethod
    def from_dict(cls, data: object) -> "NGramModel":
        """Rebuild a model from ``to_dict`` output by counting its sequences again."""
        for key, is_valid in _MODEL_FIELDS.items():
            if not (isinstance(data, dict) and is_valid(data.get(key))):
                raise ChallengeError(f"model file field {key!r} is missing or of the wrong type "
                                     "(older files hold count tables); re-run train-model")
        model = cls(data["order"], data["vocab_size"], data["alpha"], data["sequences"])
        # Files written while models stored their weights hold the equal ones.
        if "weights" in data and data["weights"] != [model.weight] * model.order:
            raise ChallengeError("model file field 'weights' must be absent or hold the equal "
                                 f"weights of order {model.order}; re-run train-model")
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        # not UTF-8, not JSON, nested past the stack or a numeral past int's digit limit
        except (ValueError, RecursionError) as exc:
            raise ChallengeError(f"{path} is not an n-gram model file ({exc})") from None
        return cls.from_dict(data)


# Model file field -> check of its JSON value (``type``, so true/false do not pass as ints).
_MODEL_FIELDS = {
    "order": lambda v: type(v) is int,
    "vocab_size": lambda v: type(v) is int,
    "alpha": lambda v: type(v) in (int, float),
    "sequences": lambda v: type(v) is list
    and all(type(seq) is list and all(type(t) is int for t in seq) for seq in v),
}


def train_ngram(
    sequences: Sequence[Sequence[int]], order: int, vocab_size: int, alpha: float = 0.01
) -> NGramModel:
    """Count n-grams of every order up to ``order`` over a corpus."""
    if not sequences:
        raise ChallengeError("cannot train on an empty corpus")
    return NGramModel(order, vocab_size, alpha, sequences)


# --- external model line protocol -------------------------------------------


class LineProtocolModel(SequenceModel):
    """Adapter speaking the external-model line protocol over text streams.

    Per step the harness writes one line of space-separated history token
    ids (an empty line for an empty history) and reads one line back:
    either ``vocab_size`` space-separated probabilities, or a sparse form
    ``* idx:prob idx:prob ...`` where unlisted tokens share the leftover
    mass uniformly.  A reply line longer than ``REPLY_BYTES_PER_ID`` bytes
    an id (characters, on a text stream), its line break aside, is refused
    before it is parsed.
    """

    def __init__(self, reader: IO[str], writer: IO[str], vocab_size: int):
        self.reader = reader
        self.writer = writer
        self.vocab_size = vocab_size
        self._sent: list[int] = []  # the last request's history, copied
        self._text = ""  # and its line, without the line break

    def _request(self, history: Sequence[int]) -> str:
        """The request line for ``history``.  Under teacher forcing each
        history extends the last one, so only its new ids are formatted."""
        known = len(self._sent)
        if history[:known] == self._sent:
            new = history[known:]
            self._text = " ".join([self._text, *map(str, new)] if known else map(str, new))
            self._sent += new
        else:
            self._text = " ".join(map(str, history))
            self._sent = list(history)
        return self._text + "\n"

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        try:
            self.writer.write(self._request(history))
            self.writer.flush()
        except BrokenPipeError:  # the model stopped reading
            line = ""
        else:
            line = self._read_line()
        if not line:
            raise ModelProtocolError(self._closed_message())
        fields = line.split()
        if fields and fields[0] == "*":
            p = np.zeros(self.vocab_size)
            is_listed = np.zeros(self.vocab_size, dtype=bool)
            for item in fields[1:]:
                idx_text, _, prob_text = item.partition(":")
                try:
                    idx, prob = int(idx_text), float(prob_text)
                except ValueError:
                    raise ModelProtocolError(f"bad sparse entry {item!r}") from None
                if not 0 <= prob <= 1:  # NaN fails too
                    raise ModelProtocolError(f"sparse entry {item!r}: probability outside [0, 1]")
                if not 0 <= idx < self.vocab_size:
                    raise ModelProtocolError(f"sparse index {idx} out of range")
                if is_listed[idx]:
                    raise ModelProtocolError(f"sparse index {idx} listed twice")
                p[idx] = prob
                is_listed[idx] = True
            rest = self.vocab_size - int(is_listed.sum())
            if rest > 0:
                p[~is_listed] = max(1.0 - float(p.sum()), 0.0) / rest
            return p
        try:
            p = np.array([float(x) for x in fields])
        except ValueError:
            raise ModelProtocolError(f"unparseable probability line {line!r}") from None
        if p.size != self.vocab_size:
            raise ModelProtocolError(
                f"expected {self.vocab_size} probabilities, got {p.size}"
            )
        return p

    @property
    def _line_limit(self) -> int:
        return REPLY_BYTES_PER_ID * self.vocab_size

    def _too_long(self) -> ModelProtocolError:
        return ModelProtocolError(
            f"external model sent a reply line longer than {self._line_limit} bytes "
            f"({REPLY_BYTES_PER_ID} an id)"
        )

    def _read_line(self) -> str:
        line = self.reader.readline(self._line_limit + 1)
        if len(line) > self._line_limit and not line.endswith("\n"):
            raise self._too_long()
        return line

    def _closed_message(self) -> str:
        return "external model closed the stream"


class SubprocessModel(LineProtocolModel):
    """Line-protocol model backed by a child process.

    The child's stderr goes to an unnamed temporary file, which no amount
    of output can fill the way it fills a pipe.  Its tail ends the error
    messages about the child, and the whole file is copied to our stderr
    when the model closes."""

    def __init__(self, command: Sequence[str], vocab_size: int):
        self._stderr = tempfile.TemporaryFile()
        try:
            self._proc = subprocess.Popen(
                list(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=self._stderr,
                text=True,
                bufsize=1,
            )
        except BaseException:
            self._stderr.close()
            raise
        super().__init__(self._proc.stdout, self._proc.stdin, vocab_size)
        self._unread = bytearray()  # bytes the child sent past the last reply line
        self._poll = select.poll()
        self._poll.register(self._proc.stdout, select.POLLIN)

    def _read_line(self) -> str:
        """The next reply line, read from the pipe itself so that the wait is
        bounded: the whole line must arrive within READ_TIMEOUT_S seconds, and
        it must not outgrow the line limit."""
        deadline = time.monotonic() + READ_TIMEOUT_S
        while b"\n" not in self._unread:
            if len(self._unread) > self._line_limit:
                raise self._too_long()
            if not self._poll.poll(max(0.0, 1000.0 * (deadline - time.monotonic()))):
                raise ModelProtocolError(
                    f"external model {shlex.join(self._proc.args)!r} sent no whole reply "
                    f"line within {READ_TIMEOUT_S:g} s{self._stderr_tail()}"
                )
            chunk = os.read(self._proc.stdout.fileno(), 1 << 16)
            if not chunk:  # end of stream: the last line may lack its line break
                break
            self._unread += chunk
        line, newline, self._unread = self._unread.partition(b"\n")
        if len(line) > self._line_limit:
            raise self._too_long()
        return (line + newline).decode(errors="replace")

    def _closed_message(self) -> str:
        """Names the child's exit code once it has exited (within
        CLOSE_TIMEOUT_S seconds of closing the stream)."""
        try:
            code = self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return super()._closed_message() + self._stderr_tail()
        return (f"external model {shlex.join(self._proc.args)!r} closed the stream "
                f"and exited with code {code}{self._stderr_tail()}")

    def _stderr_tail(self) -> str:
        """The last STDERR_TAIL_BYTES of the child's stderr, as a clause.
        ``pread`` leaves alone the file offset that the child writes at."""
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        tail = os.pread(fd, STDERR_TAIL_BYTES, max(0, size - STDERR_TAIL_BYTES))
        text = tail.decode(errors="replace").strip()
        return f"; its stderr ends: {text}" if text else ""

    def close(self) -> None:
        """Close the child's input and wait for it to exit; a child still
        running after CLOSE_TIMEOUT_S seconds is killed."""
        if self._proc.stdin:
            try:
                self._proc.stdin.close()
            except BrokenPipeError:  # the child exited with a line unread
                pass
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ModelProtocolError(
                f"external model {shlex.join(self._proc.args)!r} did not exit within "
                f"{CLOSE_TIMEOUT_S:g} s of end of input; killed it"
            ) from None
        finally:
            self._proc.stdout.close()
            self._copy_stderr()

    def _copy_stderr(self) -> None:
        """Copy the child's stderr to ours, once."""
        if self._stderr.closed:
            return
        with self._stderr:
            self._stderr.seek(0)
            for line in self._stderr:
                sys.stderr.write(line.decode(errors="replace"))
            sys.stderr.flush()

    def __enter__(self) -> "SubprocessModel":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        """Close the child; an error already under way outranks one from closing."""
        try:
            self.close()
        except ModelProtocolError:
            if exc is None:
                raise


# --- questions ---------------------------------------------------------------


@dataclass(frozen=True)
class ChallengeQuestion:
    prompt: tuple[int, ...]
    candidates: tuple[tuple[int, ...], ...]
    true_index: int
    source_piece: int = -1

    def __post_init__(self) -> None:
        if len(self.candidates) != 4:
            raise ChallengeError("a question needs exactly 4 candidates")
        if len(set(self.candidates)) != 4:
            raise ChallengeError("candidates must be pairwise distinct")
        if not 0 <= self.true_index <= 3:
            raise ChallengeError("true_index must be in 0..3")

    @property
    def truncation_length(self) -> int:
        return min(len(c) for c in self.candidates)


def _bar_window(piece: Sequence[int], bar_starts: list[int], first_bar: int, bars: int):
    start = bar_starts[first_bar]
    end = bar_starts[first_bar + bars] if first_bar + bars < len(bar_starts) else len(piece)
    return tuple(piece[start:end])


def build_questions(
    pieces: Sequence[Sequence[int]],
    count: int,
    seed: int,
    bar_token_id: int,
) -> list[ChallengeQuestion]:
    """Draw ``count`` questions deterministically from a token corpus.

    The prompt is the opening ``PROMPT_BARS`` of a piece and the true
    candidate the bars that follow it; the three distractors are
    bar-aligned windows from three distinct other pieces.
    """
    needed = PROMPT_BARS + CONTINUATION_BARS
    starts = [[i for i, t in enumerate(p) if t == bar_token_id] for p in pieces]  # Bar indices
    eligible = [i for i, s in enumerate(starts) if len(s) >= needed]
    if len(eligible) < 4:
        raise ChallengeError(
            f"need at least 4 pieces with >= {needed} bars, have {len(eligible)}"
        )
    rng = np.random.default_rng(seed)
    questions = []
    for _ in range(count):
        src = int(rng.choice(eligible))
        prompt = _bar_window(pieces[src], starts[src], 0, PROMPT_BARS)
        true_cont = _bar_window(pieces[src], starts[src], PROMPT_BARS, CONTINUATION_BARS)
        others = [i for i in eligible if i != src]
        for _attempt in range(64):
            chosen = rng.choice(len(others), size=3, replace=False)
            distractors = []
            for oi in chosen:
                piece_idx = others[int(oi)]
                max_start = len(starts[piece_idx]) - CONTINUATION_BARS
                first = int(rng.integers(0, max_start + 1))
                distractors.append(
                    _bar_window(pieces[piece_idx], starts[piece_idx], first, CONTINUATION_BARS)
                )
            if len({true_cont, *distractors}) == 4:
                break
        else:
            raise ChallengeError("could not draw 4 distinct candidates; corpus too repetitive")
        true_index = int(rng.integers(0, 4))
        ordered = list(distractors)
        ordered.insert(true_index, true_cont)
        questions.append(
            ChallengeQuestion(
                prompt=prompt,
                candidates=tuple(ordered),
                true_index=true_index,
                source_piece=src,
            )
        )
    return questions


# --- scoring -------------------------------------------------------------------


def score_continuation(
    model: SequenceModel,
    prompt: Sequence[int],
    candidate: Sequence[int],
    length: int | None = None,
) -> float:
    """Mean per-token probability of a candidate continuation.

    The candidate is truncated to ``length`` tokens (its own length by
    default).  Under teacher forcing the history grows with the
    candidate's own tokens, and the model's ``score`` gives all their
    probabilities in one call.
    """
    candidate = list(candidate)
    if length is None:
        length = len(candidate)
    if length < 1 or not candidate:
        raise ChallengeError("empty candidate continuation")
    candidate = candidate[:length]
    if not (0 <= min(candidate) and max(candidate) < model.vocab_size):
        raise ChallengeError(f"candidate token id outside [0, {model.vocab_size})")
    probs = _checked_probabilities(model.score(prompt, candidate), len(candidate), "scored")
    total = 0.0
    for p in probs:
        total += float(p)
    return total / len(candidate)


def answer_question(
    model: SequenceModel, question: ChallengeQuestion
) -> tuple[int, bool, list[float]]:
    """Score all four candidates and answer by argmax (lowest index wins ties)."""
    level = question.truncation_length
    scores = [
        score_continuation(model, question.prompt, c, length=level)
        for c in question.candidates
    ]
    chosen = int(np.argmax(scores))
    return chosen, chosen == question.true_index, scores


@dataclass
class ChallengeResult:
    accuracy: float
    rows: list[dict] = field(default_factory=list)


def run_challenge(
    model: SequenceModel,
    questions: Sequence[ChallengeQuestion],
) -> ChallengeResult:
    """Answer every question; the log keeps all four probabilities per row."""
    if not questions:
        raise ChallengeError("no questions to run")
    rows = []
    correct_count = 0
    for qid, question in enumerate(questions):
        chosen, correct, scores = answer_question(model, question)
        correct_count += int(correct)
        rows.append(
            {
                "question": qid,
                "scores": scores,
                "chosen": chosen,
                "true": question.true_index,
                "correct": correct,
            }
        )
    return ChallengeResult(accuracy=correct_count / len(questions), rows=rows)


# --- generation ------------------------------------------------------------------


class GenerationError(ValueError):
    """No id the grammar allows has probability, or the cap leaves no Bar."""


def generate_tokens(
    model: SequenceModel,
    primer: Sequence[int],
    target_bars: int,
    temperature: float = 1.0,
    seed: int = 0,
    max_tokens: int = 20000,
) -> list[int]:
    """Sample token ids until ``target_bars`` bars are complete.

    Only ids the event grammar allows are drawn: the distribution is masked,
    scaled to a largest weight of 1, then tempered in log space.  Bars are
    counted by Bar tokens (the primer's included); sampling runs until the
    bar after the last requested one begins, or until ``max_tokens``, which
    cuts off an open event group, even one begun in the primer, so that the
    result decodes as it is.  Deterministic given the seed.
    """
    if not 0 < temperature < np.inf:  # NaN fails too
        raise ChallengeError(f"temperature must be positive and finite, got {temperature}")
    rng, walker, bar_id = np.random.default_rng(seed), _GrammarWalker(), VOCAB.bar_token_id
    out: list[int] = []
    bars = closed = 0  # closed: the length of out that ends between event groups
    while len(out) < max(len(primer), max_tokens):
        if len(out) < len(primer):
            token = primer[len(out)]
            if not 0 <= token < VOCAB.size:
                raise TokenGrammarError(len(out), f"unknown token id {token}")
        else:
            p = checked_distribution(model, out) * walker.allowed()
            top = p.max()
            if not top:
                raise GenerationError(f"step {len(out)}: no id the grammar allows has probability")
            p /= top  # the weights sum to at least 1, so the draw lands below their sum
            if temperature != 1.0:
                with np.errstate(divide="ignore", over="ignore"):
                    p = np.exp(np.log(p) / temperature)
            cumulative = np.cumsum(p)
            token = int(cumulative.searchsorted(rng.random() * cumulative[-1], side="right"))
            if token == bar_id and bars >= target_bars:
                break
        walker.advance(len(out), VOCAB.token(token))
        out.append(token)
        bars += token == bar_id
        if walker.expected is None:
            closed = len(out)
    del out[closed:]  # an event group still open at the cap
    if not out:
        raise GenerationError(f"no Bar token within the {max_tokens}-token cap")
    return out
