"""Independent brute-force oracles for the path-family fitness and the
n-gram counts.

The fitness oracle enumerates every admissible path over a segment
explicitly, then picks the best-scoring family by weighted interval
scheduling over the paths' row spans.  Exponential in the segment width;
only usable for small matrices, which is the point: it shares no code with
the production DP.  The n-gram oracle counts with one dict per order, a
token at a time, where the model sorts numpy arrays.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass


@dataclass(frozen=True)
class PathStats:
    first_row: int
    last_row: int
    score: float
    cells: int


def enumerate_paths(seg) -> list[PathStats]:
    """All paths over the segment submatrix ``seg`` (rows x width).

    A path starts in column 0 at any row, advances by steps (1,1), (2,1)
    or (1,2), and must finish in the last column.
    """
    n_rows, width = seg.shape
    paths: list[PathStats] = []

    def walk(row: int, col: int, first: int, score: float, cells: int) -> None:
        if col == width - 1:
            paths.append(PathStats(first, row, score, cells))
            return
        for dr, dc in ((1, 1), (2, 1), (1, 2)):
            r, c = row + dr, col + dc
            if r < n_rows and c <= width - 1:
                walk(r, c, first, score + seg[r, c], cells + 1)

    for start_row in range(n_rows):
        walk(start_row, 0, start_row, seg[start_row, 0], 1)
    return paths


def best_family(paths: list[PathStats]) -> list[PathStats]:
    """Max-total-score subset of paths with pairwise disjoint row spans.

    Classic weighted interval scheduling; the empty family (score 0) is
    allowed.
    """
    paths = sorted(paths, key=lambda p: p.last_row)
    ends = [p.last_row for p in paths]
    best_score = [0.0] * (len(paths) + 1)
    takes: list[tuple[int, int] | None] = [None] * (len(paths) + 1)
    for i, path in enumerate(paths, start=1):
        prev = bisect_right(ends, path.first_row - 1, 0, i - 1)
        with_score = path.score + best_score[prev]
        if with_score > best_score[i - 1]:
            best_score[i] = with_score
            takes[i] = (i - 1, prev)
        else:
            best_score[i] = best_score[i - 1]
            takes[i] = None
    chosen = []
    i = len(paths)
    while i > 0:
        if takes[i] is None:
            i -= 1
        else:
            path_idx, prev = takes[i]
            chosen.append(paths[path_idx])
            i = prev
    return chosen


def fitness_oracle(ssm, start: int, end: int) -> float:
    """Fitness of segment [start, end] by exhaustive path enumeration."""
    n = ssm.shape[0]
    width = end - start + 1
    family = best_family(enumerate_paths(ssm[:, start : end + 1]))
    sigma = sum(p.score for p in family)
    cells = sum(p.cells for p in family)
    coverage = sum(p.last_row - p.first_row + 1 for p in family)
    if cells == 0:
        return 0.0
    score_norm = (sigma - width) / cells
    cov_norm = (coverage - width) / n
    if score_norm <= 0 or cov_norm <= 0:
        return 0.0
    return 2.0 * score_norm * cov_norm / (score_norm + cov_norm)


def ngram_count_tables(sequences, order: int) -> list[dict[tuple[int, ...], dict[int, int]]]:
    """``tables[k-1]``: each context of ``k - 1`` tokens -> {next token: count},
    over every position whose context lies inside its own sequence."""
    tables: list[dict[tuple[int, ...], dict[int, int]]] = [{} for _ in range(order)]
    for seq in sequences:
        for k in range(1, order + 1):
            table = tables[k - 1]
            for j in range(k - 1, len(seq)):
                nxt = table.setdefault(tuple(seq[j - k + 1 : j]), {})
                nxt[seq[j]] = nxt.get(seq[j], 0) + 1
    return tables
