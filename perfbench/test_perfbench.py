"""Tests of the benchmark's own output checks, tracer and compare mode."""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import checks  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    ORACLE_QUESTIONS,
    WORKLOADS,
    Command,
    Leg,
    Workload,
    mark_nondeterminism,
    run_pass,
)

REPORT = """# swingbench run
# cfg command=report
piece_id\tH1\tH4\tGS\tCPI\tSI_3_8\tSI_8_15\tSI_15
a\t1.5850\t1.9467\t1.0000\t33.33\t0.7500\t0.7359\t0.6059
b\t1.8919\t3.1567\t0.8564\tNA\t0.7433\t0.6866\t0.6080
MEAN\t1.7384\t2.5517\t0.9282\t33.33\t0.7467\t0.7113\t0.6070
"""

CHALLENGE_HEADER = "# swingbench run\nquestion\tP0\tP1\tP2\tP3\tchosen\ttrue\tcorrect\n"
CHALLENGE = CHALLENGE_HEADER + """0\t0.9\t0.1\t0.1\t0.1\t0\t0\t1
1\t0.1\t0.9\t0.1\t0.1\t1\t1\t1
# accuracy {accuracy}
"""


def write(tmp_path: Path, name: str, text: str) -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_report_check_accepts_a_good_report(tmp_path):
    assert checks.check_report(write(tmp_path, "report.tsv", REPORT), pieces=2) == []


def test_report_check_fails_corrupted_reports(tmp_path):
    missing_row = REPORT.replace("b\t1.8919\t3.1567\t0.8564\tNA\t0.7433\t0.6866\t0.6080\n", "")
    nan_cell = REPORT.replace("0.8564", "nan")
    si_out_of_range = REPORT.replace("0.7433", "1.2500")
    truncated_row = REPORT.replace("\t0.6080\n", "\n")
    for text in (missing_row, nan_cell, si_out_of_range, truncated_row):
        assert checks.check_report(write(tmp_path, "report.tsv", text), pieces=2)
    assert checks.check_report(tmp_path / "absent.tsv", pieces=2)


def test_challenge_check_enforces_accuracy(tmp_path):
    right = write(tmp_path, "right.tsv", CHALLENGE.format(accuracy="1.0000"))
    wrong = write(tmp_path, "wrong.tsv", CHALLENGE.format(accuracy="0.5000"))
    assert checks.check_challenge(right, 2, exact_accuracy=1.0) == []
    assert checks.check_challenge(wrong, 2, exact_accuracy=1.0)
    assert checks.check_challenge(wrong, 2, min_accuracy=0.6)
    assert checks.check_challenge(right, 3)  # a question's row is missing


def test_token_and_midi_checks(tmp_path):
    good = write(tmp_path, "good.tokens", "# generated\nBar(0)\nPosition(0)\n")
    orphan = write(tmp_path, "orphan.tokens", "Bar(0)\nNoteOn(60)\n")
    assert checks.check_tokens_decode(good) == []
    assert checks.check_tokens_decode(orphan)
    (tmp_path / "good.mid").write_bytes(b"MThd\x00\x00\x00\x06")
    (tmp_path / "bad.mid").write_bytes(b"RIFF")
    assert checks.check_midi(tmp_path / "good.mid") == []
    assert checks.check_midi(tmp_path / "bad.mid")


def test_digests_change_with_content(tmp_path):
    write(tmp_path, "a.txt", "one")
    first = checks.digests(tmp_path)
    write(tmp_path, "a.txt", "two")
    assert set(first) == {"a.txt"} and checks.digests(tmp_path) != first


class ReportOnly(Workload):
    name = "report-only"

    def legs(self, seed, inputs, out):
        report = out / "report"
        return [Leg("report", [], report, lambda: checks.check_report(report / "report.tsv", 2))]


def writes_report(text: str, code: int = 0):
    def runner(leg, log):
        leg.out.mkdir(parents=True, exist_ok=True)
        (leg.out / "report.tsv").write_text(text, encoding="utf-8")
        return Command(wall_s=0.1, code=code)

    return runner


def test_corrupted_output_or_exit_code_counts_as_failed(tmp_path):
    def problems(text, code=0, name="p"):
        return run_pass(ReportOnly(), 0, tmp_path, tmp_path / name, writes_report(text, code))

    assert problems(REPORT, name="good")["report"].problems == []
    assert problems(REPORT.replace("0.7433", "nan"), name="nan")["report"].problems
    assert problems(REPORT, code=1, name="exit")["report"].problems == ["report: exit code 1"]


def test_differing_outputs_across_passes_count_as_failed(tmp_path):
    passes = [
        run_pass(ReportOnly(), 0, tmp_path, tmp_path / name, writes_report(text))
        for name, text in (("a", REPORT), ("b", REPORT), ("c", REPORT.replace("0.7433", "0.7434")))
    ]
    mark_nondeterminism(passes)
    assert [p["report"].problems for p in passes[:2]] == [[], []]
    assert passes[2]["report"].problems == ["report: outputs differ from the first pass"]


def test_wrong_oracle_accuracy_fails_the_oracle_command(tmp_path):
    legs = {leg.name: leg for leg in WORKLOADS["challenge-motif"].legs(0, tmp_path, tmp_path)}
    oracle = legs["challenge_oracle"]
    oracle.out.mkdir()
    rows = "".join(f"{i}\t0.9\t0.1\t0.1\t0.1\t0\t0\t1\n" for i in range(ORACLE_QUESTIONS))
    for accuracy, ok in (("1.0000", True), ("0.9500", False)):
        text = CHALLENGE_HEADER + rows + f"# accuracy {accuracy}\n"
        (oracle.out / "challenge.tsv").write_text(text, encoding="utf-8")
        assert (oracle.check() == []) is ok


def _runs(workload: str, wall: list[float], digest: str = "d") -> list[dict]:
    return [
        {
            "workload": workload,
            "seed": seed,
            "trace": 0,
            "digest": digest,
            "metrics": {
                "setup_s": 0.5 + 0.001 * seed,
                "wall_s": w,
                "work_per_s": 100.0 / w,
                "peak_rss_mb": 70.0,
            },
        }
        for seed, w in enumerate(wall)
    ]


def _spec() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _verdicts(parent: list[dict], change: list[dict]) -> dict[str, str]:
    rows = compare.compare({"w": parent}, {"w": change}, _spec())
    return {r["metric"]: r.get("verdict", r.get("differ_on_seeds")) for r in rows}


WALL = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.08, 9.92, 10.0]


def test_identical_result_sets_compare_unchanged():
    verdicts = _verdicts(_runs("w", WALL), _runs("w", WALL))
    assert verdicts == {
        "setup_s": "unchanged", "wall_s": "unchanged", "work_per_s": "unchanged",
        "peak_rss_mb": "unchanged", "outputs": [],
    }


def test_twenty_percent_slowdown_reads_worse():
    slower = [w * 1.2 for w in WALL]
    assert compare.verdict(WALL, slower, "lower", 0.15) == "worse"


def test_slowdown_beyond_the_benchmark_bound_reads_worse():
    bound = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}["wall_s"]
    slower = [w * (1 + bound + 0.05) for w in WALL]
    verdicts = _verdicts(_runs("w", WALL), _runs("w", slower, digest="e"))
    assert verdicts["wall_s"] == "worse"
    assert verdicts["outputs"] == list(range(len(WALL)))


def test_clear_speedup_reads_better_and_wide_spread_unresolved():
    assert _verdicts(_runs("w", WALL), _runs("w", [w * 0.8 for w in WALL]))["wall_s"] == "better"
    noisy = [10.0, 14.0, 7.0, 12.0, 8.0, 13.0, 7.5, 12.5, 9.0, 11.0]
    assert compare.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.1) == "unresolved"


def test_benchmark_json_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.PER_LAYER
    legs = [leg.name for w in WORKLOADS.values() for leg in w.legs(0, HERE, HERE)]
    assert tuple(legs) == layers.LEGS


def test_tracer_patches_every_reference_and_restores():
    from swingbench import cli, tokenizer
    from swingbench.corpus import Note, Solo
    from swingbench.synthetic import four_four_beats

    original = tokenizer.encode_solo
    solo = Solo(
        id="t",
        notes=(Note(0.0, 0.25, 60, 70.0, True, None),),
        beats=tuple(four_four_beats(1)),
        parts=(),
    )
    tracer = Tracer("test")
    with tracer.installed():
        assert cli.encode_solo is not original and tokenizer.encode_solo is not original
        with tracer.span("outer"):
            tokens = cli.encode_solo(solo)
    assert cli.encode_solo is original and tokenizer.encode_solo is original
    totals = tracer.totals()
    assert tracer.counts["tokenizer.encode_solo.calls"] == 1
    assert tracer.counts["tokenizer.encode_solo.tokens"] == len(tokens)
    outer = totals["outer"]
    inner = totals["tokenizer.encode_solo"]
    assert abs(outer["self_s"] - (outer["s"] - inner["s"])) < 1e-9
