from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_ssm
from oracles import fitness_oracle
from swingbench import structure
from swingbench.corpus import transpose_solo
from swingbench.structure import (
    DEFAULT_SI_BANDS,
    ChromaSequence,
    band_indicators,
    chroma_from_solo,
    chroma_from_timeline,
    compute_ssm,
    render_chroma,
    scape_plot,
    scape_plot_for_chroma,
    segment_fitness,
    structureness_indicator,
    write_scape_pgm,
    write_scape_text,
)
from swingbench.tokenizer import decode_tokens, encode_solo
from swingbench.chords import parse_chord


def one_hot_frames(classes):
    frames = np.zeros((len(classes), 12))
    for i, c in enumerate(classes):
        frames[i, c] = 1.0
    return frames


# --- chroma -----------------------------------------------------------------


def test_chroma_single_note_one_hot():
    chroma = render_chroma([(0.0, 1.0, 60)], [], span=(0.0, 2.0))
    assert chroma.frames[0, 0] == pytest.approx(1.0)
    assert np.linalg.norm(chroma.frames[0]) == pytest.approx(1.0)


def test_chroma_silence_frame_is_zero():
    chroma = render_chroma([(0.0, 1.0, 60)], [], span=(0.0, 3.0))
    assert np.all(chroma.frames[2] == 0.0)


def test_chroma_melody_over_chord_weighting():
    chord = parse_chord("C7")
    chroma = render_chroma([(0.0, 1.0, 60)], [(0.0, 1.0, chord)], span=(0.0, 2.0))
    expected = np.zeros(12)
    expected[0] = 1.0 + 0.5
    expected[4] = expected[7] = expected[10] = 0.5
    expected /= np.linalg.norm(expected)
    assert chroma.frames[0] == pytest.approx(expected)


def test_chroma_partial_overlap_weights_by_duration():
    chroma = render_chroma([(0.0, 0.25, 60), (0.25, 0.75, 62)], [], span=(0.0, 2.0))
    f = chroma.frames[0]
    assert f[2] / f[0] == pytest.approx(3.0)


def test_chroma_needs_two_frames():
    with pytest.raises(ValueError):
        ChromaSequence(np.zeros((1, 12)))


@pytest.mark.parametrize("end, error, message", [
    (np.inf, ValueError, "timeline span [0.0, inf) has no finite frame count"),
    (1e15, MemoryError, "Unable to allocate"),
    (1e300, ValueError, "Maximum allowed dimension exceeded"),
], ids=["frame-count-overflows", "frames-take-exbibytes", "frames-past-numpy-dimensions"])
def test_chroma_of_a_span_past_any_frame_count_is_refused(end, error, message):
    # at one frame a second, the span sets the frame count
    with pytest.raises(error) as exc:
        render_chroma([(0.0, 1.0, 60)], [], span=(0.0, end))
    assert str(exc.value).startswith(message)


def test_scape_plot_for_chroma_matches_scape_plot(aaba_solo):
    chroma = chroma_from_solo(aaba_solo)
    expected = scape_plot(compute_ssm(chroma))
    np.testing.assert_array_equal(scape_plot_for_chroma(chroma), expected)


def test_chroma_from_solo_and_timeline_agree(aaba_solo):
    # a solo's chroma is that of its tokens, which structure markers do not change
    direct = chroma_from_solo(aaba_solo)
    via_tokens = chroma_from_timeline(decode_tokens(encode_solo(aaba_solo)))
    np.testing.assert_array_equal(direct.frames, via_tokens.frames)


# --- SSM ---------------------------------------------------------------------


def test_ssm_identical_frames():
    m = compute_ssm(ChromaSequence(one_hot_frames([0, 0])))
    assert m[0, 1] == 1.0


def test_ssm_orthogonal_frames_get_penalty():
    m = compute_ssm(ChromaSequence(one_hot_frames([0, 7])))
    assert m[0, 1] == -2.0


def test_ssm_cosine_retained_above_threshold():
    frames = np.zeros((2, 12))
    frames[0, 0] = 1.0
    frames[1, 0] = frames[1, 7] = 1.0 / np.sqrt(2)  # 45 degrees
    m = compute_ssm(ChromaSequence(frames))
    assert m[0, 1] == pytest.approx(np.sqrt(0.5))


@pytest.mark.parametrize("cosine, expected", [(0.21, 0.21), (0.2, 0.2), (0.19, -2.0)])
def test_ssm_threshold_is_0_2_and_penalty_minus_2(cosine, expected):
    frames = np.zeros((2, 12))
    frames[0, 0] = 1.0
    frames[1, 0], frames[1, 7] = cosine, np.sqrt(1.0 - cosine**2)
    assert compute_ssm(ChromaSequence(frames))[0, 1] == pytest.approx(expected)


def test_ssm_symmetric_with_unit_diagonal(aaba_solo):
    m = compute_ssm(chroma_from_solo(aaba_solo))
    assert np.array_equal(m, m.T)
    assert np.all(np.diag(m) == 1.0)


# --- fitness against the brute-force oracle -------------------------------------


def test_fitness_matches_oracle_on_random_ssms():
    rng = np.random.default_rng(123)
    for _ in range(60):
        n = int(rng.integers(2, 11))
        m = random_ssm(rng, n)
        for _ in range(4):
            s = int(rng.integers(0, n))
            e = int(rng.integers(s, n))
            assert segment_fitness(m, s, e) == pytest.approx(
                fitness_oracle(m, s, e), abs=1e-6
            )


def test_fitness_matches_oracle_exhaustively_small():
    rng = np.random.default_rng(321)
    for trial in range(10):
        n = int(rng.integers(2, 7))
        m = random_ssm(rng, n, signed=False)
        if trial % 2:
            m[m < 0.4] = -2.0
        for s in range(n):
            for e in range(s, n):
                assert segment_fitness(m, s, e) == pytest.approx(
                    fitness_oracle(m, s, e), abs=1e-6
                )


def test_fitness_identity_like_ssm_is_zero():
    m = np.full((8, 8), -2.0)
    np.fill_diagonal(m, 1.0)
    for s in range(8):
        for e in range(s, 8):
            assert segment_fitness(m, s, e) == 0.0


def test_fitness_exact_repeat_is_half():
    k = 5
    frames = one_hot_frames(list(range(k)) * 2)
    m = compute_ssm(ChromaSequence(frames))
    assert segment_fitness(m, k, 2 * k - 1) == pytest.approx(0.5)


def test_fitness_whole_piece_is_zero():
    rng = np.random.default_rng(7)
    m = random_ssm(rng, 9)
    assert segment_fitness(m, 0, 8) == 0.0


def test_fitness_rejects_bad_interval():
    with pytest.raises(ValueError):
        segment_fitness(np.eye(4), 2, 1)
    with pytest.raises(ValueError):
        segment_fitness(np.eye(4), 0, 4)


# --- scape plot -------------------------------------------------------------------


def test_scape_plot_all_penalty_is_zero():
    m = np.full((6, 6), -2.0)
    np.fill_diagonal(m, 1.0)
    assert scape_plot(m).max() == 0.0


def test_scape_plot_values_in_unit_interval():
    rng = np.random.default_rng(17)
    plot = scape_plot(random_ssm(rng, 20))
    assert plot.min() >= 0.0 and plot.max() <= 1.0


def test_scape_plot_repeat_peaks_at_half_duration():
    k = 5
    frames = one_hot_frames(list(range(k)) * 2)
    plot = scape_plot(compute_ssm(ChromaSequence(frames)))
    duration = int(np.unravel_index(plot.argmax(), plot.shape)[0]) + 1
    assert duration == k


def test_scape_plot_matches_segment_fitness_cellwise():
    rng = np.random.default_rng(23)
    m = random_ssm(rng, 12)
    plot = scape_plot(m)
    for s in range(12):
        for e in range(s, 12):
            d = e - s + 1
            assert plot[d - 1, s + d // 2] == segment_fitness(m, s, e)


def test_scape_plot_and_segment_fitness_reject_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        m = np.eye(4)
        m[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            scape_plot(m)
        with pytest.raises(ValueError, match="non-finite"):
            segment_fitness(m, 0, 1)


def test_scape_plot_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        scape_plot(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="square"):
        segment_fitness(np.zeros(4), 0, 1)


# SHA-256 of scape_plot(m).tobytes() on a tie-heavy SSM (three distinct
# values, so equal-score path families abound): pins the tie order escape
# over path end and (1,1) over (2,1) over (1,2), whose counters decide the
# fitness of tied families.
TIE_HEAVY_DIGEST = "f71e8e34c7a392dd0fd6101b0a2a64865b242d723c125314d6a0fc9dc89579e6"


@pytest.fixture(scope="module")
def kernel():
    if structure._kernel() is None:
        pytest.skip("the compiled scape DP could not be built here; stderr says why")


@pytest.fixture
def numpy_dp(monkeypatch, tmp_path):
    """Make the kernel build fail as on a host without ``cc``, so ``_sweep`` runs."""
    monkeypatch.setattr(structure, "_CC", "swingbench-test-no-such-cc")
    monkeypatch.setattr(structure, "_KERNEL_CACHE", tmp_path / "__pycache__")
    structure._kernel.cache_clear()
    yield
    structure._kernel.cache_clear()


def _symmetric(rng, n, values=None):
    v = rng.uniform(-1.0, 1.0, (n, n)) if values is None else rng.choice(values, size=(n, n))
    m = np.triu(v) + np.triu(v, 1).T
    np.fill_diagonal(m, 1.0)
    return m


def _tie_heavy_digest():
    m = _symmetric(np.random.default_rng(7), 24, [-2.0, 0.5, 1.0])
    return hashlib.sha256(scape_plot(m).tobytes()).hexdigest()


def test_scape_plot_tie_order_pinned():
    # the default path: the compiled kernel wherever it builds
    assert _tie_heavy_digest() == TIE_HEAVY_DIGEST


def test_scape_plot_tie_order_pinned_in_numpy(numpy_dp):
    assert _tie_heavy_digest() == TIE_HEAVY_DIGEST


def _segment_grid(n, step):
    """Every ``step``-th duration at every ``step``-th start: for step > 1
    the kernel's groups of 8 segments are not contiguous, so it gathers
    them row by row."""
    grid = [(d, s) for d in range(1, n + 1, step) for s in range(0, n - d + 1, step)]
    return tuple(np.array(column, dtype=np.int64) for column in zip(*grid))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    step=st.integers(1, 3),
    values=st.sampled_from([None, (-2.0, 0.0, 1.0), (-2.0, 0.5, 1.0)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_kernel_equals_sweep_bit_for_bit(kernel, n, step, values, seed):
    m = _symmetric(np.random.default_rng(seed), n, values)
    durations, starts = _segment_grid(n, step)
    sigma, packed = structure._family_stats(m, durations, starts)
    ref_sigma, ref_packed = structure._sweep(m, durations, starts)
    assert sigma.tobytes() == ref_sigma.tobytes()
    assert packed.tobytes() == ref_packed.tobytes()


def test_family_stats_rejects_segments_outside_the_ssm():
    m = np.eye(5)
    for durations, starts in (([3], [3]), ([0], [1]), ([2], [-1]), ([1, 2], [0])):
        with pytest.raises(ValueError, match="outside"):
            structure._family_stats(
                m, np.array(durations, dtype=np.int64), np.array(starts, dtype=np.int64)
            )


def test_kernel_library_name_hashes_the_cpu_flags(kernel, monkeypatch, tmp_path):
    monkeypatch.setattr(structure, "_KERNEL_CACHE", tmp_path)
    built = structure._kernel_path()
    assert built.parent == tmp_path and built.name.startswith("_sweep-")
    assert structure._kernel_path() == built  # cached: no second build
    monkeypatch.setattr(structure, "_cpu_flags", lambda: "flags : another cpu")
    other = structure._kernel_path()
    assert other != built
    assert [p.name for p in tmp_path.iterdir()] == [other.name]  # the other CPU's is stale


def test_kernel_build_deletes_stale_libraries(kernel, monkeypatch, tmp_path):
    stale = tmp_path / "_sweep-0123456789abcdef.so"
    stale.write_bytes(b"a build of another kernel source")
    monkeypatch.setattr(structure, "_KERNEL_CACHE", tmp_path)
    structure._kernel.cache_clear()
    try:
        assert structure._kernel() is not None  # built into tmp_path and loaded
    finally:
        structure._kernel.cache_clear()
    assert not stale.exists()
    assert [p.name for p in tmp_path.iterdir()] == [structure._kernel_path().name]


@pytest.mark.parametrize(
    "patch, reason",
    [
        ({"_CC": "swingbench-test-no-such-cc"},
         "no C compiler 'swingbench-test-no-such-cc' on PATH"),
        ({"_CC_FLAGS": ("-fno-such-flag-in-any-cc",)}, "cc failed: "),
        ({"_BUILD_TIMEOUT_S": 1e-6}, "cc took over 1e-06 s"),
        ({}, "cannot build into "),  # the cache directory lies under a file
    ],
    ids=["no-cc", "build-fails", "build-times-out", "cache-not-writable"],
)
def test_dp_falls_back_to_numpy_and_says_why_once(patch, reason, monkeypatch, tmp_path, capsys):
    m = _symmetric(np.random.default_rng(5), 30)

    def results():  # the full plot, and the gather path's groups
        sigma, packed = structure._family_stats(m, *_segment_grid(30, 2))
        return [a.tobytes() for a in (scape_plot(m), sigma, packed)]

    expected = results()  # the kernel's, if built
    if "_CC" not in patch and shutil.which(structure._CC) is None:
        pytest.skip(f"no C compiler {structure._CC!r} on PATH, so the build fails earlier")
    blocker = tmp_path / "file"
    blocker.write_text("")
    cache = tmp_path / "__pycache__" if patch else blocker / "__pycache__"
    monkeypatch.setattr(structure, "_KERNEL_CACHE", cache)
    for name, value in patch.items():
        monkeypatch.setattr(structure, name, value)
    structure._kernel.cache_clear()
    capsys.readouterr()
    try:
        assert results() == expected
        err = capsys.readouterr().err.splitlines()
    finally:
        structure._kernel.cache_clear()
    assert len(err) == 1, err
    assert "scape DP runs in numpy" in err[0] and reason in err[0], err
    assert not list(tmp_path.glob("**/*.tmp"))


@st.composite
def _small_ssms(draw):
    # continuous values from a drawn seed: exact score ties between
    # different path families (which the DP and the oracle may break
    # differently) then have probability zero
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = random_ssm(rng, n)
    m[rng.random((n, n)) < draw(st.floats(0.0, 0.8))] = -2.0
    m = np.triu(m) + np.triu(m, 1).T
    np.fill_diagonal(m, 1.0)
    return m


@settings(max_examples=30, deadline=None)
@given(_small_ssms())
def test_property_scape_plot_cells_match_segment_fitness_and_oracle(m):
    n = m.shape[0]
    plot = scape_plot(m)
    for s in range(n):
        for e in range(s, n):
            d = e - s + 1
            cell = plot[d - 1, s + d // 2]
            assert cell.tobytes() == np.float64(segment_fitness(m, s, e)).tobytes()
            assert cell == pytest.approx(fitness_oracle(m, s, e), abs=1e-6)


def test_scape_plot_memory_is_bounded(numpy_dp):
    # tracemalloc sees numpy's arrays but not the kernel's C buffers, so this
    # bounds the numpy fallback's chunking; the kernel has its own test below
    m = random_ssm(np.random.default_rng(41), 160)
    tracemalloc.start()
    try:
        scape_plot(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


# Run in a child, whose peak RSS has not been raised by other tests: the
# growth of the peak over one kernel call on buffers that already exist.
_KERNEL_RSS_CHILD = """
import resource, sys
import numpy as np
from swingbench import structure

n, count = int(sys.argv[1]), int(sys.argv[2])
m = np.ones((n, n))
# count two-frame segments, then one that spans the SSM
durations = np.full(count + 1, 2, dtype=np.int64)
durations[-1] = n
starts = np.arange(count + 1, dtype=np.int64) % (n - 1)
starts[-1] = 0
sigma = np.full(count + 1, 0.5)
packed = np.full(count + 1, 1, dtype=np.int64)
kernel = structure._kernel()
assert kernel(m, n, durations[:1], starts[:1], 1, sigma[:1], packed[:1]) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert kernel(m, n, durations, starts, count + 1, sigma, packed) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)
"""


def test_kernel_memory_is_bounded_by_the_longest_segment(kernel):
    # the kernel's row buffers are 7 * 8 words per column of the longest
    # segment, whatever the number of segments: 8 bytes more per segment
    # would add 3.2 MB here
    n, count = 1500, 400_000
    src = str(Path(structure.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _KERNEL_RSS_CHILD, str(n), str(count)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    growth_bytes = int(out.stdout) * 1024  # ru_maxrss is in KiB on Linux
    assert growth_bytes < 7 * 8 * n * 8 + 1_000_000


# --- structureness indicator ----------------------------------------------------


def test_indicator_zero_plot():
    assert structureness_indicator(np.zeros((30, 30)), 3, 8) == 0.0


def test_indicator_band_membership():
    plot = np.zeros((30, 30))
    plot[9, 4] = 0.7  # duration 10
    assert structureness_indicator(plot, 8, 15) == 0.7
    assert structureness_indicator(plot, 3, 8) == 0.0
    assert structureness_indicator(plot, 15, None) == 0.0


def test_indicator_default_upper_bound():
    plot = np.zeros((30, 30))
    plot[29, 0] = 0.4
    assert structureness_indicator(plot, 1) == 0.4


def test_indicator_band_monotonicity():
    rng = np.random.default_rng(31)
    plot = np.abs(random_ssm(rng, 25))
    inner = structureness_indicator(plot, 8, 15)
    outer = structureness_indicator(plot, 3, 20)
    assert inner <= outer


def test_indicator_rejects_bad_bands():
    plot = np.zeros((10, 10))
    with pytest.raises(ValueError):
        structureness_indicator(plot, 8, 3)
    with pytest.raises(ValueError):
        structureness_indicator(plot, 11)


@pytest.mark.parametrize("n", [2, 3, 7, 8, 14, 15, 16])
def test_band_indicators_are_none_for_a_band_past_the_end_of_the_piece(n):
    plot = np.random.default_rng(n).random((n, n))
    si = band_indicators(plot)
    assert [value is not None for value in si] == [n >= 3, n >= 8, n >= 15]
    for (lo, hi), value in zip(DEFAULT_SI_BANDS, si):
        if value is None:  # the one case the indicator refuses
            with pytest.raises(ValueError):
                structureness_indicator(plot, lo, hi)
        else:
            assert value == structureness_indicator(plot, lo, hi)


def test_indicator_transposition_invariance(aaba_solo):
    base = band_indicators(scape_plot_for_chroma(chroma_from_solo(aaba_solo)))
    moved = band_indicators(scape_plot_for_chroma(chroma_from_solo(transpose_solo(aaba_solo, 2))))
    assert base == pytest.approx(moved, abs=1e-9)


def test_sectional_solo_has_structure(aaba_solo):
    si = band_indicators(scape_plot_for_chroma(chroma_from_solo(aaba_solo)))
    assert si[1] > 0.5  # medium band sees the repeating 8-second sections


# --- exports -----------------------------------------------------------------------


def test_scape_text_export(tmp_path):
    plot = np.array([[0.0, 0.5], [0.25, 0.0]])
    path = tmp_path / "plot.txt"
    write_scape_text(plot, path)
    assert path.read_text().splitlines() == ["0.000000 0.500000", "0.250000 0.000000"]


def test_scape_pgm_export(tmp_path):
    plot = np.array([[0.0, 1.0], [0.5, 0.25]])
    path = tmp_path / "plot.pgm"
    write_scape_pgm(plot, path)
    data = path.read_bytes()
    assert data.startswith(b"P5\n2 2\n255\n")
    assert list(data[-4:]) == [0, 255, 128, 64]
