"""Spans and counts around swingbench's layer functions, recorded from outside.

The program carries no instrumentation: ``Tracer.installed`` replaces each
layer function, in every ``swingbench`` module that holds a reference to it
(``cli.encode_solo`` as well as ``tokenizer.encode_solo``), with a wrapper
that records a span and counts, and puts the originals back on exit.
Spans stay in memory until ``write`` is called once at the end.
"""

from __future__ import annotations

import gzip
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

# Wire bytes of each id on a line-protocol request: its digits plus a separator.
_ID_BYTES = [len(str(i)) + 1 for i in range(1 << 12)]


def _protocol_bytes(history) -> int:
    """Bytes of the request line for ``history``, computed as the client writes it."""
    return sum(map(_ID_BYTES.__getitem__, history)) if history else 1


def _file_bytes(path) -> int:
    return Path(path).stat().st_size


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


# (module, attribute, counts from (args, kwargs, result)).  A dotted
# attribute names a method; its args include self (or cls).
LAYERS: list[tuple[str, str, Callable[[tuple, dict, object], dict] | None]] = [
    ("corpus", "load_corpus", lambda a, k, r: {"solos": len(r)}),
    ("tokenizer", "encode_solo", lambda a, k, r: {"tokens": len(r)}),
    ("tokenizer", "read_tokens", None),
    ("tokenizer", "decode_tokens", None),
    ("tokenizer", "repair_token_stream", lambda a, k, r: {"kept": len(r[0]), "dropped": r[1]}),
    ("metrics", "metric_row", None),
    ("metrics", "bars_from_solo", None),
    ("metrics", "bars_from_timeline", None),
    ("structure", "chroma_from_solo", None),
    ("structure", "chroma_from_timeline", None),
    ("structure", "compute_ssm", None),
    ("structure", "scape_plot", lambda a, k, r: {"frames": r.shape[0]}),
    ("challenge", "checked_distribution", None),
    ("challenge", "NGramModel.next_token_distribution", None),
    (
        "challenge",
        "LineProtocolModel.next_token_distribution",
        lambda a, k, r: {"bytes_out": _protocol_bytes(_arg(a, k, 1, "history"))},
    ),
    ("challenge", "CorpusOracleModel.__init__", None),
    ("challenge", "train_ngram", None),
    ("challenge", "NGramModel.save", lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))}),
    ("challenge", "NGramModel.load", None),
    (
        "challenge",
        "generate_tokens",
        lambda a, k, r: {"tokens": len(r) - len(_arg(a, k, 1, "primer"))},
    ),
    ("challenge", "build_questions", None),
    ("challenge", "run_challenge", None),
    ("midi", "write_midi", lambda a, k, r: {"bytes": _file_bytes(_arg(a, k, 1, "path"))}),
    ("cli", "provenance_header", None),
]


ORACLE_INIT = "challenge.CorpusOracleModel.__init__"


class Tracer:
    """Records spans (name, start, end, parent) and named counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.oracle_args: tuple | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (name, start, time.perf_counter(), parent)
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, count: Callable | None) -> Callable:
        spans, stack, calls = self.spans, self._stack, f"{name}.calls"

        def traced(*args, **kwargs):
            if name == ORACLE_INIT and self.oracle_args is None:
                self.oracle_args = args[1:]  # kept to measure the build's allocations
            # span() inlined: this wrapper runs once per model step
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            self.counts[calls] += 1
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every entry of ``LAYERS`` for the duration of the block."""
        restore: list[tuple[object, str, object]] = []
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "swingbench"]
        try:
            for module_name, attr, count in LAYERS:
                module = sys.modules[f"swingbench.{module_name}"]
                name = f"{module_name}.{attr}"
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__, count))
                    else:
                        wrapped = self.wrap(name, raw, count)
                    restore.append((cls, method, raw))
                    setattr(cls, method, wrapped)
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, count)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            restore.append((holder, key, value))
                            setattr(holder, key, wrapped)
            yield
        finally:
            for owner, key, value in reversed(restore):
                setattr(owner, key, value)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the time its direct children
        cover; spans nest strictly because the run is single-threaded.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"n": 0, "s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["n"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        return out

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV: id, parent, name, start, end, run id."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\trun\n")
            for index, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{index}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{self.run_id}\n")
