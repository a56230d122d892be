"""Structureness analysis: chroma rendering, self-similarity, fitness
scape plots, and duration-banded structureness indicators.

The pipeline renders a 12-dimensional chroma sequence straight from the
symbolic timeline at one frame a second, so frames are seconds, builds a
cosine self-similarity matrix whose entries below ``DEFAULT_SSM_THRESHOLD``
(0.2) become ``DEFAULT_SSM_PENALTY`` (-2.0), and scores every segment of
the piece by how well an optimal family of alignment paths explains its
repeats elsewhere.  The recipe has no settings: the duration bands of
the structureness indicators are read in frames, which are seconds only
at this one frame rate.

For a segment covering columns s..e of the SSM, a path is a chain of
cells stepping by (1,1), (2,1) or (1,2) from column s to column e; a
path family is a set of paths whose row spans do not overlap.  With the
optimal family's total score ``sigma``, cell count ``L`` and covered
rows ``gamma``, the segment's fitness is the harmonic mean of

    score    (sigma - |segment|) / L        and
    coverage (gamma - |segment|) / N,

both floored at zero: subtracting ``|segment|`` discounts the trivial
self-match, so a segment that repeats nowhere scores 0.  The scape plot
arranges fitness by (duration, center); the structureness indicator is
its maximum within a duration band.

The path-family DP runs as a small C kernel (``_sweep.c``) that is
compiled on first use with ``cc`` and native CPU flags, cached in this
package's ``__pycache__`` under a name that hashes the source, the flags
and the CPU's feature flags, and loaded with ``ctypes``.  Without a
compiler, or when the build fails, times out or cannot write the cache,
the numpy ``_sweep`` runs instead and gives bit-identical numbers about
10x slower (measured 13-16x at 100-500 frames; 500 frames take 8.2 s with
the kernel); one line on stderr then names the reason, so that line shows
which path ran.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .chords import ChordSymbol, chord_pitch_classes
from .corpus import Solo
from .tokenizer import DecodedTimeline

DEFAULT_SSM_THRESHOLD = 0.2
DEFAULT_SSM_PENALTY = -2.0
MELODY_WEIGHT = 1.0
CHORD_WEIGHT = 0.5

# The paper's SI_3^8, SI_8^15 and SI_15: duration bands, in frames and so in
# seconds, for short-, medium- and long-term repeats (an upper bound of None
# is the piece's length).
DEFAULT_SI_BANDS: tuple[tuple[int, int | None], ...] = ((3, 8), (8, 15), (15, None))


@dataclass
class ChromaSequence:
    """Pitch-class energy, one frame a second; nonzero frames have unit L2 norm."""

    frames: np.ndarray  # (N, 12)

    def __post_init__(self) -> None:
        self.frames = np.asarray(self.frames, dtype=float)
        if self.frames.ndim != 2 or self.frames.shape[1] != 12:
            raise ValueError("chroma frames must be an (N, 12) array")
        if self.frames.shape[0] < 2:
            raise ValueError("need at least 2 chroma frames")

    def __len__(self) -> int:
        return self.frames.shape[0]


def _accumulate(
    frames: np.ndarray,
    start: float,
    onset: float,
    end: float,
    classes: Sequence[int],
    weight: float,
) -> None:
    n = frames.shape[0]
    first = max(int(onset - start), 0)
    last = min(int(np.ceil(end - start)), n)
    for f in range(first, last):
        lo = start + f
        hi = lo + 1.0
        overlap = min(end, hi) - max(onset, lo)
        if overlap <= 0:
            continue
        for pc in classes:
            frames[f, pc] += weight * overlap


def render_chroma(
    notes: Sequence[tuple[float, float, int]],
    chords: Sequence[tuple[float, float, ChordSymbol]],
    span: tuple[float, float],
) -> ChromaSequence:
    """Render one chroma frame a second from (onset, duration, pitch)
    notes and chord spans.

    Melody pitch classes accumulate at weight 1.0 per sounding second
    inside a frame; the active chord's template pitch classes at 0.5.
    Nonzero frames are L2-normalized, silent frames stay zero.  An empty
    span, or one too long for a finite frame count, raises ValueError.
    """
    start, end = span
    if end <= start:
        raise ValueError("empty timeline span")
    count = np.ceil(end - start)
    if not np.isfinite(count):
        raise ValueError(f"timeline span [{start}, {end}) has no finite frame count")
    frames = np.zeros((max(int(count), 2), 12))
    for onset, duration, pitch in notes:
        _accumulate(frames, start, onset, onset + duration, [pitch % 12], MELODY_WEIGHT)
    for onset, chord_end, symbol in chords:
        classes = sorted(chord_pitch_classes(symbol))
        _accumulate(frames, start, onset, chord_end, classes, CHORD_WEIGHT)
    norms = np.linalg.norm(frames, axis=1)
    nonzero = norms > 0
    frames[nonzero] /= norms[nonzero, None]
    return ChromaSequence(frames)


def chroma_from_solo(solo: Solo) -> ChromaSequence:
    notes = [(n.onset_sec, n.duration_sec, n.pitch) for n in solo.notes]
    return render_chroma(notes, solo.chord_intervals(), solo.span())


def chroma_from_timeline(timeline: DecodedTimeline) -> ChromaSequence:
    notes = [(n.onset_sec, n.duration_sec, n.pitch) for n in timeline.notes]
    return render_chroma(notes, timeline.chord_intervals(), (0.0, timeline.end_sec))


def compute_ssm(chroma: ChromaSequence) -> np.ndarray:
    """Cosine self-similarity matrix with thresholding enhancement.

    The diagonal is pinned to 1 (a frame always matches itself, silent or
    not); entries below ``DEFAULT_SSM_THRESHOLD`` are replaced by
    ``DEFAULT_SSM_PENALTY`` so that spurious weak matches cost a path
    more than they contribute.
    """
    f = chroma.frames
    m = f @ f.T
    np.clip(m, -1.0, 1.0, out=m)
    np.fill_diagonal(m, 1.0)
    m[m < DEFAULT_SSM_THRESHOLD] = DEFAULT_SSM_PENALTY
    return m


# --- optimal path family fitness -------------------------------------------

# Upper bound on the DP lanes numpy ``_sweep`` sweeps together (one chunk);
# a chunk holds at least one segment, so its DP state is
# O(max(_CHUNK_CELLS, N)) floats whatever the number of segments.
_CHUNK_CELLS = 1 << 14

# Path cell count L and covered rows G travel packed as L << 32 | G, so one
# select moves both; ``_STEP`` adds one path cell covering one more row.
_L_SHIFT = 32
_STEP = (1 << _L_SHIFT) | 1


def _check_ssm(ssm: np.ndarray) -> np.ndarray:
    ssm = np.asarray(ssm, dtype=float)
    if ssm.ndim != 2 or ssm.shape[0] != ssm.shape[1]:
        raise ValueError("SSM must be square")
    if not np.isfinite(ssm).all():
        raise ValueError("SSM has non-finite entries")
    return ssm


def _escape(
    score: np.ndarray, packed: np.ndarray, esc: np.ndarray, last: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Escape lane value after a row: stay uncovered, or take a path that
    finished in the segment's last column (strictly better only)."""
    take_end = score[last] > score[esc]
    return (
        np.where(take_end, score[last], score[esc]),
        np.where(take_end, packed[last], packed[esc]),
    )


def _sweep(
    ssm: np.ndarray, durations: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal path-family score and packed ``L << 32 | G`` counters of the
    segments ``[starts[k], starts[k] + durations[k])``, in one DP sweep
    over the SSM rows.

    The state of all segments is one flat array.  Segment ``k`` owns
    ``durations[k] + 1`` consecutive lanes: its escape lane (the best
    family whose paths all ended on earlier rows), then one lane per
    segment column (the best family whose last path ends in that column on
    this row).  For a path lane at flat position ``p`` the step
    predecessors are plain shifts of the previous rows: (1,1) is
    ``prev[p - 1]``, (2,1) is ``prev2[p - 1]`` and (1,2) is ``prev[p - 2]``.
    Paths enter segment column 0 from the escape lane and finish only in
    the last column, whence the next row's escape lane may take them.
    Those two lanes per segment are updated through index arrays.  Once
    the escape update has read it, the previous row's escape lane is set
    to -inf, so the (1,2) shift into segment column 1 finds no predecessor
    and no path starts mid-segment.

    Ties break deterministically: escape over path end, and step (1,1)
    over (2,1) over (1,2); a later candidate wins only when strictly
    greater.  Lanes start at -inf, and a -inf lane's counters never reach
    a finite score.
    """
    n = ssm.shape[0]
    lanes = durations + 1
    esc = np.cumsum(lanes) - lanes  # flat position of each escape lane
    first = esc + 1  # path lane of segment column 0
    last = esc + durations  # path lane of the segment's last column
    size = int(lanes.sum())
    column = np.arange(size) - np.repeat(esc, lanes) - 1  # -1 on escape lanes
    cols = np.repeat(starts, lanes) + np.maximum(column, 0)

    prev = np.full(size, -np.inf)
    prev2 = np.full(size, -np.inf)
    new = np.empty(size)
    prev_c = np.zeros(size, dtype=np.int64)
    prev2_c = np.zeros(size, dtype=np.int64)
    new_c = np.empty(size, dtype=np.int64)
    s = np.empty(size)
    take_21 = np.empty(size - 2, dtype=bool)
    take_12 = np.empty(size - 2, dtype=bool)
    delta = np.empty(size - 2, dtype=np.int64)

    prev[esc] = 0.0
    prev[first] = ssm[0, starts]
    prev_c[first] = _STEP

    for row in range(1, n):
        np.take(ssm[row], cols, out=s)
        escape, escape_c = _escape(prev, prev_c, esc, last)
        prev[esc] = -np.inf

        # path lanes: best of the three shifted predecessors, plus the cell
        best = new[2:]
        np.greater(prev2[1:-1], prev[1:-1], out=take_21)
        np.maximum(prev[1:-1], prev2[1:-1], out=best)
        np.greater(prev[:-2], best, out=take_12)
        np.maximum(best, prev[:-2], out=best)
        best += s[2:]

        # the same choice on the counters, as masked differences; a (2,1)
        # step covers one more row than the other two
        counts = new_c[2:]
        np.subtract(prev2_c[1:-1], prev_c[1:-1], out=delta)
        delta += 1
        delta *= take_21
        np.add(prev_c[1:-1], delta, out=counts)
        np.subtract(prev_c[:-2], counts, out=delta)
        delta *= take_12
        counts += delta
        counts += _STEP

        # escape and column-0 lanes overwrite what the shifts put there
        new[esc] = escape
        new[first] = escape + s[first]
        new_c[esc] = escape_c
        new_c[first] = escape_c + _STEP

        prev2, prev, new = prev, new, prev2
        prev2_c, prev_c, new_c = prev_c, new_c, prev2_c

    return _escape(prev, prev_c, esc, last)


# --- the compiled DP -----------------------------------------------------------

_KERNEL_SOURCE = Path(__file__).with_name("_sweep.c")
_KERNEL_CACHE = Path(__file__).with_name("__pycache__")
_CC = "cc"
# -ffp-contract=off: the kernel only adds and compares, and must round as numpy does.
_CC_FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")
_BUILD_TIMEOUT_S = 120.0


class _KernelUnavailable(Exception):
    """Why the compiled DP cannot run in this process."""


def _cpu_flags() -> str:
    """The CPU's feature flags, which decide what ``-march=native`` emits."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            for line in fh:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return f"{platform.machine()} {platform.processor()}"


def _kernel_path() -> Path:
    """Build the kernel into the cache unless it is there; return its path."""
    try:
        source = _KERNEL_SOURCE.read_bytes()
    except OSError as exc:
        raise _KernelUnavailable(f"cannot read the kernel source: {exc}") from None
    key = hashlib.sha256(
        b"\0".join([source, " ".join(_CC_FLAGS).encode(), _cpu_flags().encode()])
    ).hexdigest()[:16]
    lib = _KERNEL_CACHE / f"_sweep-{key}.so"
    if lib.is_file():
        return lib
    cc = shutil.which(_CC)
    if cc is None:
        raise _KernelUnavailable(f"no C compiler {_CC!r} on PATH")
    # concurrent first runs each build their own file; the last rename wins
    tmp = lib.with_name(f"{lib.name}.{os.getpid()}.tmp")
    try:
        _KERNEL_CACHE.mkdir(exist_ok=True)
        done = subprocess.run(
            [cc, *_CC_FLAGS, "-o", str(tmp), str(_KERNEL_SOURCE)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=_BUILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            lines = done.stderr.strip().splitlines() or [f"exit code {done.returncode}"]
            raise _KernelUnavailable(f"{_CC} failed: {lines[0]}")
        os.replace(tmp, lib)
    except subprocess.TimeoutExpired:
        raise _KernelUnavailable(f"{_CC} took over {_BUILD_TIMEOUT_S:g} s") from None
    except OSError as exc:
        raise _KernelUnavailable(f"cannot build into {_KERNEL_CACHE}: {exc}") from None
    finally:
        if tmp.exists():
            tmp.unlink()
    # builds for an older source, other flags or another CPU; "*.tmp" files
    # of builds under way do not match
    for stale in _KERNEL_CACHE.glob("_sweep-*.so"):
        if stale != lib:
            with contextlib.suppress(OSError):
                stale.unlink()
    return lib


@functools.cache
def _kernel():
    """The compiled DP, or None after one stderr line saying why numpy runs."""
    import ctypes

    try:
        fn = ctypes.CDLL(str(_kernel_path())).swingbench_sweep
    except (_KernelUnavailable, OSError) as exc:  # OSError: the library does not load
        print(f"swingbench: scape DP runs in numpy, about 10x slower ({exc})", file=sys.stderr)
        return None
    doubles = np.ctypeslib.ndpointer(np.float64, ndim=1, flags="C_CONTIGUOUS")
    int64s = np.ctypeslib.ndpointer(np.int64, ndim=1, flags="C_CONTIGUOUS")
    fn.argtypes = [
        np.ctypeslib.ndpointer(np.float64, ndim=2, flags="C_CONTIGUOUS"),
        ctypes.c_int64,
        int64s,
        int64s,
        ctypes.c_int64,
        doubles,
        int64s,
    ]
    fn.restype = ctypes.c_int
    return fn


def _family_stats(
    ssm: np.ndarray, durations: np.ndarray, starts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``_sweep(ssm, durations, starts)``, from the compiled kernel when it
    is available, else from ``_sweep`` over chunks of about ``_CHUNK_CELLS``
    lanes."""
    n = ssm.shape[0]
    if durations.shape != starts.shape or not np.all(
        (durations >= 1) & (starts >= 0) & (starts + durations <= n)
    ):
        raise ValueError(f"segments outside the {n}-frame SSM")
    sigma = np.empty(len(durations))
    packed = np.empty(len(durations), dtype=np.int64)
    kernel = _kernel()
    if kernel is not None:
        if kernel(np.ascontiguousarray(ssm), n, durations, starts, len(durations), sigma, packed):
            raise MemoryError("scape DP: cannot allocate its row buffers")
        return sigma, packed
    lane_ends = np.cumsum(durations + 1)
    lo = 0
    while lo < len(lane_ends):
        used = lane_ends[lo - 1] if lo else 0
        hi = int(np.searchsorted(lane_ends, used + _CHUNK_CELLS, side="right"))
        hi = max(hi, lo + 1)
        sigma[lo:hi], packed[lo:hi] = _sweep(ssm, durations[lo:hi], starts[lo:hi])
        lo = hi
    return sigma, packed


def _fitness_from_stats(
    sigma: np.ndarray, packed: np.ndarray, durations: np.ndarray, n: int
) -> np.ndarray:
    cells = packed >> _L_SHIFT
    coverage = packed & ((1 << _L_SHIFT) - 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        score_norm = np.where(cells > 0, (sigma - durations) / np.maximum(cells, 1), 0.0)
        cov_norm = (coverage - durations) / n
        fitness = np.where(
            (score_norm > 0) & (cov_norm > 0),
            2.0 * score_norm * cov_norm / (score_norm + cov_norm),
            0.0,
        )
    return fitness


def segment_fitness(ssm: np.ndarray, start: int, end: int) -> float:
    """Fitness of the segment spanning frames ``start..end`` inclusive."""
    ssm = _check_ssm(ssm)
    n = ssm.shape[0]
    if not 0 <= start <= end < n:
        raise ValueError(f"invalid segment [{start}, {end}] for {n} frames")
    durations = np.array([end - start + 1], dtype=np.int64)
    sigma, packed = _family_stats(ssm, durations, np.array([start], dtype=np.int64))
    return float(_fitness_from_stats(sigma, packed, durations, n)[0])


def scape_plot(ssm: np.ndarray) -> np.ndarray:
    """Fitness of every segment, arranged by (duration, center).

    Row ``i`` (0-based) holds segments of duration ``i + 1`` frames;
    column ``j`` is the segment's center frame, rounding half up.  Cells
    whose segment would exceed the piece are zero.
    """
    ssm = _check_ssm(ssm)
    n = ssm.shape[0]
    plot = np.zeros((n, n))
    # every duration d = 1..n, each at every start 0..n-d
    seg_durations = np.repeat(np.arange(1, n + 1, dtype=np.int64), np.arange(n, 0, -1))
    seg_starts = np.concatenate([np.arange(n - d + 1, dtype=np.int64) for d in range(1, n + 1)])
    sigma, packed = _family_stats(ssm, seg_durations, seg_starts)
    fit = _fitness_from_stats(sigma, packed, seg_durations, n)
    plot[seg_durations - 1, seg_starts + seg_durations // 2] = fit
    return plot


def structureness_indicator(
    plot: np.ndarray, lower: int = 1, upper: int | None = None
) -> float:
    """Maximum fitness over segment durations in [lower, upper] (in frames,
    which are seconds).  ``upper=None`` searches up to the piece length."""
    n = plot.shape[0]
    if upper is None:
        upper = n
    upper = min(upper, n)
    if lower < 1 or lower > n:
        raise ValueError(f"lower bound {lower} outside 1..{n}")
    if lower > upper:
        raise ValueError(f"empty duration band [{lower}, {upper}]")
    return float(plot[lower - 1 : upper, :].max())


def scape_plot_for_chroma(chroma: ChromaSequence) -> np.ndarray:
    """Scape plot of a chroma sequence."""
    return scape_plot(compute_ssm(chroma))


def band_indicators(plot: np.ndarray) -> list[float | None]:
    """The structureness indicator of each of DEFAULT_SI_BANDS; None for a
    band whose shortest duration is longer than the piece."""
    n = plot.shape[0]
    return [structureness_indicator(plot, lo, hi) if lo <= n else None
            for lo, hi in DEFAULT_SI_BANDS]


# --- exports ----------------------------------------------------------------


def write_scape_text(plot: np.ndarray, path: str | Path) -> None:
    """Plain-text matrix, one row per duration, 6-decimal fixed point."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as fh:
        for row in plot:
            fh.write(" ".join(f"{v:.6f}" for v in row))
            fh.write("\n")


def write_scape_pgm(plot: np.ndarray, path: str | Path) -> None:
    """Binary 8-bit portable graymap, pixel value = round(255 * fitness)."""
    path = Path(path)
    n_rows, n_cols = plot.shape
    pixels = np.floor(255.0 * np.clip(plot, 0.0, 1.0) + 0.5).astype(np.uint8)
    with path.open("wb") as fh:
        fh.write(f"P5\n{n_cols} {n_rows}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
