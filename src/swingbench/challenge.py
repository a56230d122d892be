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
the n-gram and the oracle compute just those probabilities, and every
other model falls back to one checked distribution per step, so an
external model still answers one line per token.
"""

from __future__ import annotations

import json
import shlex
import subprocess
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

DISTRIBUTION_TOLERANCE = 1e-9
# Probability mass the corpus oracle spreads over every token.
ORACLE_EPSILON = 1e-6
# Bars in a question's prompt and in each of its candidate continuations.
PROMPT_BARS = CONTINUATION_BARS = 8
# The n-gram counts of a context never seen; shared, so never written to.
_NO_COUNTS: dict[int, int] = {}
# Seconds a child model may take to exit after its input is closed.
CLOSE_TIMEOUT_S = 10.0


class ChallengeError(ValueError):
    """Invalid challenge setup (corpus too small, malformed candidates...)."""


class ModelProtocolError(RuntimeError):
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


def checked_distribution(model: SequenceModel, history: Sequence[int]) -> np.ndarray:
    """Query a model and enforce the probability contract at the boundary."""
    p = np.asarray(model.next_token_distribution(history), dtype=float)
    if p.shape != (model.vocab_size,):
        raise ChallengeError(
            f"model returned shape {p.shape}, expected ({model.vocab_size},)"
        )
    # Negated comparisons: NaN fails both checks, inf the range check.
    if not ((p >= 0) & (p <= 1)).all():
        raise ChallengeError("model returned probabilities outside [0, 1] or NaN")
    if not abs(float(p.sum()) - 1.0) <= DISTRIBUTION_TOLERANCE:
        raise ChallengeError(f"model distribution sums to {p.sum()!r}, not 1")
    return p


class UniformModel(SequenceModel):
    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        return np.full(self.vocab_size, 1.0 / self.vocab_size)


class CorpusOracleModel(SequenceModel):
    """Memorizes a corpus and predicts its continuation with certainty.

    When the history is a prefix of some memorized piece the next token
    of that piece gets probability ``1 - ORACLE_EPSILON``; otherwise the model
    falls back to uniform.  Useful as a calibration ceiling.
    """

    def __init__(self, pieces: Sequence[Sequence[int]], vocab_size: int):
        self.vocab_size = vocab_size
        self._trie: dict = {}  # one nested dict per token: memory linear in the corpus
        for piece in pieces:
            node = self._trie
            for token in piece:
                node = node.setdefault(token, {})

    def _node(self, history: Sequence[int]) -> dict | None:
        """The trie node a history leads to; None once it leaves the corpus."""
        node = self._trie
        for token in history:
            node = node.get(token)
            if node is None:
                break
        return node

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        node = self._node(history)
        if not node:
            return np.full(self.vocab_size, 1.0 / self.vocab_size)
        p = np.full(self.vocab_size, ORACLE_EPSILON / self.vocab_size)
        p[sorted(node)] += (1.0 - ORACLE_EPSILON) / len(node)
        return p

    def score(self, context: Sequence[int], continuation: Sequence[int]) -> np.ndarray:
        """Walks the context down the trie once, then one node per token;
        each entry has the bits of the dense distribution's."""
        node = self._node(context)
        floor = ORACLE_EPSILON / self.vocab_size
        out = np.empty(len(continuation))
        for i, token in enumerate(continuation):
            if not node:  # off the corpus or past the end of a piece
                out[i] = 1.0 / self.vocab_size
            elif token in node:
                out[i] = floor + (1.0 - ORACLE_EPSILON) / len(node)
            else:
                out[i] = floor
            node = node.get(token) if node else None
        return out


class NGramModel(SequenceModel):
    """Interpolated n-gram model with add-alpha smoothing.

    ``weights[k-1]`` scales the order-k component; each component is
    ``(count(context, x) + alpha) / (count(context) + alpha * V)`` over
    the last ``k - 1`` history tokens.  Every token keeps nonzero
    probability, so the model never assigns zero to a continuation.
    """

    def __init__(
        self,
        order: int,
        vocab_size: int,
        alpha: float = 0.01,
        weights: Sequence[float] | None = None,
    ):
        if order < 1:
            raise ChallengeError(f"n-gram order must be >= 1, got {order}")
        if not 0 < alpha < np.inf:
            raise ChallengeError("smoothing alpha must be positive and finite")
        self.order = order
        self.vocab_size = vocab_size
        self.alpha = alpha
        if weights is None:
            weights = [1.0 / order] * order
        finite = all(0 <= w < np.inf for w in weights)
        if len(weights) != order or not finite or sum(weights) <= 0:
            raise ChallengeError("need one finite non-negative weight per order")
        total = float(sum(weights))
        self.weights = tuple(w / total for w in weights)
        # counts[k-1]: context tuple of length k-1 -> {token: count}
        self.counts: list[dict[tuple[int, ...], dict[int, int]]] = [
            {} for _ in range(order)
        ]
        self.sequences: list[list[int]] = []  # all counted so far: what to_dict saves
        # score's memo, one entry per distinct context scored; observe clears it.
        # context key -> (sum of the unnormalised distribution, _components)
        self._memo: dict[tuple[int, ...], tuple[float, list]] = {}

    def observe(self, sequence: Sequence[int]) -> None:
        seq = [int(t) for t in sequence]
        if seq and not (0 <= min(seq) and max(seq) < self.vocab_size):
            raise ChallengeError(f"token id outside [0, {self.vocab_size})")
        self._memo.clear()
        self.sequences.append(seq)
        for k in range(1, self.order + 1):
            table = self.counts[k - 1]
            for j in range(k - 1, len(seq)):
                ctx = tuple(seq[j - k + 1 : j])
                nxt = table.setdefault(ctx, {})
                nxt[seq[j]] = nxt.get(seq[j], 0) + 1

    def _key(self, history: Sequence[int]) -> tuple[int, ...]:
        """The last ``order - 1`` tokens, all a distribution depends on
        (order 1 needs its own case: ``history[-0:]`` is the whole list)."""
        return tuple(history[-(self.order - 1) :]) if self.order > 1 else ()

    def _components(self, key: tuple[int, ...]) -> list[tuple[float, dict, float]]:
        """(weight, counts of the next token, denominator) per order with a
        nonzero weight, lowest order first.  A context shorter than ``k - 1``
        misses the order-k table, leaving that order's smoothed floor."""
        denom_base = self.alpha * self.vocab_size
        out = []
        for k, weight in enumerate(self.weights, start=1):
            if weight != 0:
                table = self.counts[k - 1].get(key[-(k - 1) :] if k > 1 else (), _NO_COUNTS)
                out.append((weight, table, sum(table.values()) + denom_base))
        return out

    def _unnormalised(self, history: Sequence[int]) -> np.ndarray:
        p = np.zeros(self.vocab_size)
        for weight, table, denom in self._components(self._key(history)):
            component = np.full(self.vocab_size, self.alpha)
            for token, count in table.items():
                component[token] += count
            p += weight * component / denom
        return p

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        p = self._unnormalised(history)
        return p / p.sum()

    def score(self, context: Sequence[int], continuation: Sequence[int]) -> np.ndarray:
        """Each token's probability as a scalar, by the per-order terms of
        ``_unnormalised`` summed in the same order and divided by the same
        sum, so entry ``i`` has the bits of the dense distribution's."""
        history = list(self._key(context))
        out = np.empty(len(continuation))
        for i, token in enumerate(continuation):
            key = self._key(history)
            memo = self._memo.get(key)
            if memo is None:
                memo = self._memo[key] = (self._unnormalised(key).sum(), self._components(key))
            norm, components = memo
            p = 0.0
            for weight, table, denom in components:
                p += weight * (self.alpha + table.get(token, 0)) / denom
            out[i] = p / norm
            history.append(token)
        return out

    def sequence_log_likelihood(self, sequence: Sequence[int]) -> float:
        total = 0.0
        for p in self.score((), sequence):
            total += float(np.log(p))
        return total

    def perplexity(self, sequences: Sequence[Sequence[int]]) -> float:
        log_sum = 0.0
        count = 0
        for seq in sequences:
            log_sum += self.sequence_log_likelihood(seq)
            count += len(seq)
        if count == 0:
            raise ChallengeError("no tokens to evaluate")
        return float(np.exp(-log_sum / count))

    # --- persistence ---

    def to_dict(self) -> dict:
        return {"order": self.order, "vocab_size": self.vocab_size, "alpha": self.alpha,
                "weights": list(self.weights), "sequences": self.sequences}

    @classmethod
    def from_dict(cls, data: object) -> "NGramModel":
        """Rebuild a model from ``to_dict`` output by counting its sequences again."""
        for key, is_valid in _MODEL_FIELDS.items():
            if not (isinstance(data, dict) and is_valid(data.get(key))):
                raise ChallengeError(f"model file field {key!r} is missing or of the wrong type "
                                     "(older files hold count tables); re-run train-model")
        model = cls(data["order"], data["vocab_size"], data["alpha"], data["weights"])
        # The saved weights were normalised when the model was built; a
        # second pass can move them by an ulp and change every distribution.
        model.weights = tuple(map(float, data["weights"]))
        for seq in data["sequences"]:
            model.observe(seq)
        return model

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# Model file field -> check of its JSON value (``type``, so true/false do not pass as ints).
_MODEL_FIELDS = {
    "order": lambda v: type(v) is int,
    "vocab_size": lambda v: type(v) is int,
    "alpha": lambda v: type(v) in (int, float),
    "weights": lambda v: type(v) is list and all(type(w) in (int, float) for w in v),
    "sequences": lambda v: type(v) is list
    and all(type(seq) is list and all(type(t) is int for t in seq) for seq in v),
}


def train_ngram(
    sequences: Sequence[Sequence[int]],
    order: int,
    vocab_size: int,
    alpha: float = 0.01,
    weights: Sequence[float] | None = None,
) -> NGramModel:
    """Count n-grams of every order up to ``order`` over a corpus."""
    if not sequences:
        raise ChallengeError("cannot train on an empty corpus")
    model = NGramModel(order=order, vocab_size=vocab_size, alpha=alpha, weights=weights)
    for seq in sequences:
        model.observe(seq)
    return model


# --- external model line protocol -------------------------------------------


class LineProtocolModel(SequenceModel):
    """Adapter speaking the external-model line protocol over text streams.

    Per step the harness writes one line of space-separated history token
    ids (an empty line for an empty history) and reads one line back:
    either ``vocab_size`` space-separated probabilities, or a sparse form
    ``* idx:prob idx:prob ...`` where unlisted tokens share the leftover
    mass uniformly.
    """

    def __init__(self, reader: IO[str], writer: IO[str], vocab_size: int):
        self.reader = reader
        self.writer = writer
        self.vocab_size = vocab_size

    def next_token_distribution(self, history: Sequence[int]) -> np.ndarray:
        self.writer.write(" ".join(map(str, history)) + "\n")
        self.writer.flush()
        line = self.reader.readline()
        if not line:
            raise ModelProtocolError("external model closed the stream")
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


class SubprocessModel(LineProtocolModel):
    """Line-protocol model backed by a child process."""

    def __init__(self, command: Sequence[str], vocab_size: int):
        self._proc = subprocess.Popen(
            list(command),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        super().__init__(self._proc.stdout, self._proc.stdin, vocab_size)

    def close(self) -> None:
        """Close the child's input and wait for it to exit; a child still
        running after CLOSE_TIMEOUT_S seconds is killed."""
        if self._proc.stdin:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CLOSE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
            raise ModelProtocolError(
                f"external model {shlex.join(self._proc.args)!r} did not exit within "
                f"{CLOSE_TIMEOUT_S:g} s of end of input; killed it"
            ) from None

    def __enter__(self) -> "SubprocessModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
    sampled_prefix: bool = False,
) -> float:
    """Mean per-token probability of a candidate continuation.

    The candidate is truncated to ``length`` tokens (its own length by
    default).  Under teacher forcing the history grows with the
    candidate's own tokens, and the model's ``score`` gives all their
    probabilities in one call; with ``sampled_prefix=True`` it grows with
    tokens sampled from the model instead, seeded with 0, one checked
    distribution per step.
    """
    candidate = list(candidate)
    if length is None:
        length = len(candidate)
    if length < 1 or not candidate:
        raise ChallengeError("empty candidate continuation")
    candidate = candidate[:length]
    if not (0 <= min(candidate) and max(candidate) < model.vocab_size):
        raise ChallengeError(f"candidate token id outside [0, {model.vocab_size})")
    total = 0.0
    if not sampled_prefix:
        probs = np.asarray(model.score(prompt, candidate), dtype=float)
        if probs.shape != (len(candidate),):
            raise ChallengeError(
                f"model scored shape {probs.shape}, expected ({len(candidate)},)"
            )
        # Negated comparisons: NaN fails both checks, inf the range check.
        if not ((probs >= 0) & (probs <= 1)).all():
            raise ChallengeError("model scored probabilities outside [0, 1] or NaN")
        for p in probs:
            total += float(p)
        return total / len(candidate)
    rng = np.random.default_rng(0)
    history = list(prompt)
    for token in candidate:
        p = checked_distribution(model, history)
        total += float(p[token])
        history.append(int(rng.choice(model.vocab_size, p=p)))
    return total / len(candidate)


def answer_question(
    model: SequenceModel, question: ChallengeQuestion, sampled_prefix: bool = False
) -> tuple[int, bool, list[float]]:
    """Score all four candidates and answer by argmax (lowest index wins ties)."""
    level = question.truncation_length
    scores = [
        score_continuation(model, question.prompt, c, length=level, sampled_prefix=sampled_prefix)
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
    sampled_prefix: bool = False,
) -> ChallengeResult:
    """Answer every question; the log keeps all four probabilities per row."""
    if not questions:
        raise ChallengeError("no questions to run")
    rows = []
    correct_count = 0
    for qid, question in enumerate(questions):
        chosen, correct, scores = answer_question(model, question, sampled_prefix)
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


class GenerationError(RuntimeError):
    """Sampling hit the hard length cap before producing a full bar."""


def generate_tokens(
    model: SequenceModel,
    primer: Sequence[int],
    target_bars: int,
    bar_token_id: int,
    temperature: float = 1.0,
    seed: int = 0,
    max_tokens: int = 20000,
) -> list[int]:
    """Sample token ids until ``target_bars`` bars are complete.

    Bars are counted by Bar tokens (the primer's included); sampling runs
    until the bar after the last requested one begins, so the final bar is
    complete, or until ``max_tokens``.  Deterministic given the seed.
    """
    if temperature <= 0:
        raise ChallengeError("temperature must be positive")
    rng = np.random.default_rng(seed)
    out = list(primer)
    bars = sum(1 for t in out if t == bar_token_id)
    while len(out) < max_tokens:
        p = checked_distribution(model, out)
        if temperature != 1.0:
            with np.errstate(divide="ignore"):
                logits = np.log(p) / temperature
            logits -= logits.max()
            p = np.exp(logits)
            p /= p.sum()
        token = int(rng.choice(model.vocab_size, p=p))
        if token == bar_token_id and bars >= target_bars:
            break
        out.append(token)
        if token == bar_token_id:
            bars += 1
    if bars == 0:
        raise GenerationError(
            f"no Bar token within the {max_tokens}-token cap; cannot form a piece"
        )
    return out
