"""Checks on the files the swingbench CLI writes.

Each check returns a list of problems; an empty list means the output is
correct.  A command whose output has any problem counts as one failed
operation.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from swingbench.tokenizer import TokenGrammarError, decode_tokens, read_tokens


def _table(path: Path) -> tuple[list[str], list[list[str]], list[str]]:
    """Header cells, data rows and comment lines of a provenance-headed TSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    comments = [line for line in lines if line.startswith("#")]
    body = [line.split("\t") for line in lines if line and not line.startswith("#")]
    if not body:
        return [], [], comments
    return body[0], body[1:], comments


def check_report(path: Path, pieces: int) -> list[str]:
    """``report.tsv``: one row per piece plus MEAN, no NaN, SI in [0, 1]."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    header, rows, _ = _table(path)
    problems = []
    if len(rows) != pieces + 1 or not rows or rows[-1][0] != "MEAN":
        problems.append(f"{path.name}: {len(rows)} rows, expected {pieces} pieces + MEAN")
    for row in rows:
        if len(row) != len(header):
            problems.append(
                f"{path.name}: row {row[0]!r} has {len(row)} cells, header {len(header)}"
            )
            continue
        for column, cell in zip(header[1:], row[1:]):
            if cell == "NA":
                continue
            try:
                value = float(cell)
            except ValueError:
                problems.append(f"{path.name}: {row[0]} {column} = {cell!r} is not a number")
                continue
            if math.isnan(value):
                problems.append(f"{path.name}: {row[0]} {column} is NaN")
            elif column.startswith("SI_") and not 0.0 <= value <= 1.0:
                problems.append(f"{path.name}: {row[0]} {column} = {value} outside [0, 1]")
    return problems


def challenge_accuracy(path: Path) -> float | None:
    _, _, comments = _table(path)
    for line in comments:
        if line.startswith("# accuracy "):
            return float(line.split()[2])
    return None


def check_challenge(
    path: Path,
    questions: int,
    min_accuracy: float | None = None,
    exact_accuracy: float | None = None,
) -> list[str]:
    """``challenge.tsv``: one row per question and the expected accuracy."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    _, rows, _ = _table(path)
    problems = []
    if len(rows) != questions:
        problems.append(f"{path.name}: {len(rows)} rows, expected {questions} questions")
    accuracy = challenge_accuracy(path)
    if accuracy is None:
        return problems + [f"{path.name}: no accuracy line"]
    if exact_accuracy is not None and accuracy != exact_accuracy:
        problems.append(f"{path.name}: accuracy {accuracy}, expected {exact_accuracy}")
    if min_accuracy is not None and not accuracy >= min_accuracy:
        problems.append(f"{path.name}: accuracy {accuracy} below {min_accuracy}")
    return problems


def check_tokens_decode(path: Path) -> list[str]:
    """A token file must read and decode under the event grammar."""
    if not path.is_file():
        return [f"{path.name}: missing"]
    try:
        decode_tokens(read_tokens(path))
    except (TokenGrammarError, ValueError) as exc:
        return [f"{path.name}: does not decode ({exc})"]
    return []


def check_midi(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name}: missing"]
    with path.open("rb") as fh:
        if fh.read(4) != b"MThd":
            return [f"{path.name}: does not start with MThd"]
    return []


def check_nonempty(path: Path) -> list[str]:
    if not path.is_file() or path.stat().st_size == 0:
        return [f"{path.name}: missing or empty"]
    return []


def digests(directory: Path) -> dict[str, str]:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        out[path.relative_to(directory).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out
