"""The corpus reader, validator and encoder against their references in
``oracles.py``: equal solos, violations and tokens on valid solos, and the
same exception and message on corrupted records."""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bars_from_solo_oracle,
    encode_solo_oracle,
    solo_from_record_oracle,
    validate_solo_oracle,
)
from test_challenge import hostile_model_file
from test_tokenizer import hostile_token_line

from swingbench.challenge import train_ngram
from swingbench.cli import main
from swingbench.corpus import CorpusError, solo_from_record, solo_to_record, validate_solo
from swingbench.metrics import bars_from_solo
from swingbench.synthetic import motif_corpus, motif_solo, random_solo, sectional_solo
from swingbench.tokenizer import (
    DEFAULT_VOCABULARY,
    TokenizationError,
    decode_tokens,
    encode_solo,
    read_tokens,
)


@st.composite
def solos(draw):
    kind = draw(st.sampled_from(["random", "sectional", "motif"]))
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_solo(rng, "random", n_bars=draw(st.integers(1, 5)),
                           sub64_fraction=draw(st.sampled_from([0.0, 0.3])),
                           with_structure=draw(st.booleans()))
    if kind == "sectional":
        return sectional_solo("sectional", form=draw(st.sampled_from(["AABA", "ABAC", "D"])),
                              repetitions=draw(st.integers(1, 3)),
                              section_bars=draw(st.integers(1, 3)))
    return motif_solo(draw(st.integers(0, 9)), "motif", n_bars=draw(st.integers(1, 4)))


def _json_record(solo) -> dict:
    """The record as load_corpus sees it: through JSON and back."""
    return json.loads(json.dumps(solo_to_record(solo)))


def _ingest(read, validate, record):
    try:
        solo = read(record)
        return "read", repr(solo), validate(solo), solo
    except Exception as exc:  # a raw error must be the same raw error
        return "raised", type(exc), str(exc), None


def _encode(encode, solo, include_structure):
    try:
        return "encoded", encode(solo, include_structure=include_structure)
    except Exception as exc:
        return "raised", type(exc), str(exc)


@settings(max_examples=120, deadline=None)
@given(solos())
def test_valid_solos_read_check_and_encode_as_the_references_do(solo):
    record = _json_record(solo)
    assert solo_from_record(record) == solo_from_record_oracle(record) == solo
    assert validate_solo(solo) == validate_solo_oracle(solo) == []
    for include_structure in (True, False):
        assert (encode_solo(solo, include_structure=include_structure)
                == encode_solo_oracle(solo, include_structure=include_structure))


@settings(max_examples=120, deadline=None)
@given(solos())
def test_bars_from_solo_places_notes_as_the_reference_does(solo):
    assert bars_from_solo(solo) == bars_from_solo_oracle(solo)


# Field indices of each row kind, by the JSON type save_corpus writes there.
_FLOAT_FIELDS = {"notes": (0, 1, 3), "beats": (0, 1)}
_INT_FIELDS = {"notes": (2,), "beats": (2, 3), "parts": (1, 2, 3)}
# Finite numbers whose arithmetic overflows or underflows, as floats and as ints.
_EXTREME_NUMBERS = [1e308, -1e308, 1e-320, 2**63, -(2**63), float(2**63)]
_ANY_VALUE = st.sampled_from(
    [True, False, 0, 1, -1, 13, 200, 0.5, -2.0, "x", "line", "C7", None, math.nan,
     math.inf, -math.inf, [], {}]
)


def _row(draw, record, sections):
    section = draw(st.sampled_from([s for s in sections if record.get(s)]))
    rows = record[section]
    return section, rows, draw(st.integers(0, len(rows) - 1))


def _corrupt(draw, record: dict, kind: str) -> None:
    if kind == "bool-for-int":
        section, rows, i = _row(draw, record, _INT_FIELDS)
        rows[i][draw(st.sampled_from(_INT_FIELDS[section]))] = draw(st.booleans())
    elif kind == "int-for-float":
        section, rows, i = _row(draw, record, _FLOAT_FIELDS)
        field = draw(st.sampled_from(_FLOAT_FIELDS[section]))
        rows[i][field] = int(rows[i][field])
    elif kind == "non-finite":
        section, rows, i = _row(draw, record, _FLOAT_FIELDS)
        rows[i][draw(st.sampled_from(_FLOAT_FIELDS[section]))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind in ("string", "null", "any-value"):
        value = {"string": st.just("x"), "null": st.none(), "any-value": _ANY_VALUE}[kind]
        _, rows, i = _row(draw, record, ("notes", "beats", "parts"))
        rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(value)
    elif kind == "short-row":
        _, rows, i = _row(draw, record, ("notes", "beats", "parts"))
        del rows[i][draw(st.integers(0, len(rows[i]) - 1)):]
    elif kind == "extra-fields":
        _, rows, i = _row(draw, record, ("notes", "beats", "parts"))
        rows[i] += draw(st.lists(_ANY_VALUE, min_size=1, max_size=2))
    elif kind == "row-not-a-list":
        _, rows, i = _row(draw, record, ("notes", "beats", "parts"))
        rows[i] = draw(st.sampled_from([None, 3, "row", {}]))
    elif kind == "rows-not-a-list":
        record[draw(st.sampled_from(["notes", "beats", "parts"]))] = draw(
            st.sampled_from([None, 128, 0.5, True, "rows", {}]))
    elif kind == "extreme-number":
        section, rows, i = _row(draw, record, ("notes", "beats", "parts"))
        fields = _FLOAT_FIELDS.get(section, ()) + _INT_FIELDS[section]
        rows[i][draw(st.sampled_from(fields))] = draw(st.sampled_from(_EXTREME_NUMBERS))
    elif kind == "repeated-row":
        _, rows, i = _row(draw, record, ("notes", "beats"))
        rows.insert(i, list(rows[i]))
    elif kind == "non-string-label":
        section, rows, i = _row(draw, record, ("notes", "beats"))
        rows[i][5 if section == "notes" else 4] = draw(st.sampled_from([1, True, 0.5, [], {}]))
    elif kind == "unknown-part-letter":
        _, rows, i = _row(draw, record, ("parts",))
        rows[i][0] = draw(st.sampled_from(["x", "Z", "", "AB"]))
    elif kind == "unknown-chord":
        _, rows, i = _row(draw, record, ("beats",))
        rows[i][4] = draw(st.sampled_from(["Cxyz", "H7", "", "C7/Q", "Dbmaj7#5b"]))
    elif kind in ("unsorted-notes", "unsorted-beats"):
        rows = record[kind[len("unsorted-"):]]
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        rows[i], rows[j] = rows[j], rows[i]
    elif kind == "bad-mlu":
        _, rows, i = _row(draw, record, ("notes",))
        rows[i][5] = draw(st.sampled_from(["bogus", "Line", ""]))
    elif kind == "repetition":
        _, rows, i = _row(draw, record, ("parts",))
        rows[i][1] = draw(st.sampled_from([0, 12, 13, 40]))
    elif kind == "onset-at-track-end":
        last = record["beats"][-1]
        record["notes"][-1][0] = last[0] + last[1]
    elif kind == "onset-in-gap":
        # shorten the beat holding an off-beat note so that it ends at or before the note;
        # a note at the next beat's onset that rounding leaves inside this one is not off-beat
        beats = record["beats"]
        held = [(note, beat) for note in record["notes"] for beat in beats
                if beat[0] < note[0] < beat[0] + beat[1]
                and sum(b[0] <= note[0] < b[0] + b[1] for b in beats) == 1]
        if not held:  # every note sits on a beat onset
            record.update(_json_record(sectional_solo("sectional")))
            return _corrupt(draw, record, kind)
        note, beat = draw(st.sampled_from(held))
        beat[1] = (note[0] - beat[0]) * draw(st.sampled_from([0.5, 1.0]))
        while beat[0] + beat[1] > note[0]:  # rounding must not put the note back inside
            beat[1] = math.nextafter(beat[1], 0.0)


CORRUPTIONS = [
    "bool-for-int", "int-for-float", "non-finite", "string", "null", "any-value", "short-row",
    "extra-fields", "row-not-a-list", "rows-not-a-list", "extreme-number", "repeated-row",
    "non-string-label", "unknown-chord", "unsorted-notes", "unsorted-beats", "bad-mlu",
    "unknown-part-letter", "repetition", "onset-at-track-end", "onset-in-gap",
]


def _corrupted_record(draw, kind: str) -> dict:
    """A drawn solo's record with one corruption of the given kind."""
    record = _json_record(draw(solos()))
    needs = {"unsorted-notes": "notes", "bad-mlu": "notes", "unknown-chord": "beats",
             "unknown-part-letter": "parts", "repetition": "parts",
             "onset-at-track-end": "notes", "onset-in-gap": "notes"}.get(kind)
    if needs and not record[needs]:
        record = _json_record(sectional_solo("sectional"))
    _corrupt(draw, record, kind)
    return record


@pytest.mark.parametrize("kind", CORRUPTIONS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_corrupted_records_fail_as_the_references_do(kind, data):
    record = _corrupted_record(data.draw, kind)
    ours = _ingest(solo_from_record, validate_solo, record)
    reference = _ingest(solo_from_record_oracle, validate_solo_oracle, record)
    assert ours[:3] == reference[:3]
    assert ours[0] == "read" or ours[1] is CorpusError  # never a raw error
    if kind.endswith("not-a-list"):
        assert ours[:2] == ("raised", CorpusError) and "is not a list (" in ours[2]
    if kind in ("onset-at-track-end", "onset-in-gap"):  # a note no beat holds is refused
        assert ours[0] == "read" and any("is in no beat's span" in v for v in ours[2])

    # A solo that passes the checks encodes as the reference does, except
    # that every refusal names the solo, and a solo the reference would
    # encode with a token outside the vocabulary is refused.
    if ours[0] == "read" and not ours[2]:
        named = f"solo {ours[3].id!r} "
        for include_structure in (True, False):
            expected = _encode(encode_solo_oracle, reference[3], include_structure)
            got = _encode(encode_solo, ours[3], include_structure)
            assert got[0] == "encoded" or got[1] is TokenizationError
            if expected[0] == "encoded" and not all(map(DEFAULT_VOCABULARY.is_valid,
                                                        expected[1])):
                assert got[:2] == ("raised", TokenizationError)
                assert got[2].startswith(named)
            elif expected[0] == "raised":
                assert got[:2] == expected[:2]
                assert got[2].startswith(named) and got[2].endswith(expected[2])
            else:
                assert got == expected


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(["tokenize", "report"]),
       kind=st.sampled_from(CORRUPTIONS))
def test_cli_reads_a_corrupted_corpus_or_names_one_error(data, command, kind):
    """A valid solo, then one with a corruption: the command exits 0, or 1
    with one ``error:`` line, and no exception escapes ``main``."""
    records = [{**_json_record(data.draw(solos())), "id": "valid"},
               _corrupted_record(data.draw, kind)]
    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.jsonl"
        corpus.write_text("".join(json.dumps(record) + "\n" for record in records))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main([command, "--corpus", str(corpus), "--out", str(Path(tmp) / "out")])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), err.getvalue()


# The valid inputs of the property below: a motif corpus, its token files and
# an order-3 model trained on it.
_MOTIFS = motif_corpus(4, n_bars=18)
_TOKEN_LINES = {solo.id: [str(tok).encode() for tok in encode_solo(solo)] for solo in _MOTIFS}
_MODEL = train_ngram([DEFAULT_VOCABULARY.tokens_to_ids(encode_solo(solo)) for solo in _MOTIFS],
                     order=3, vocab_size=DEFAULT_VOCABULARY.size)

# (input corrupted, command line): C the corpus, T the token directory, M the
# model file, O the output directory, P the piece whose token file is corrupted.
_COMMANDS = [
    ("corpus", "challenge --corpus C --count 3 --out O"),
    ("corpus", "train-model --corpus C --out O/model.json"),
    ("tokens", "detokenize --tokens T/* --out O"),
    ("tokens", "scape --tokens-dir T --piece P --out O"),
    ("tokens", "challenge --tokens-dir T --count 3 --out O"),
    ("tokens", "train-model --tokens-dir T --out O/model.json"),
    ("model", "generate --model-file M --bars 2 --max-tokens 200 --out O"),
    ("model", "challenge --corpus C --model-file M --count 3 --out O"),
]


@settings(max_examples=100, deadline=None)
@given(data=st.data(), command=st.sampled_from(_COMMANDS))
def test_cli_given_one_corrupted_input_exits_0_or_names_one_error(data, command):
    """One record of a valid corpus, one line of a valid token file or one
    value of a valid model file is corrupted: the command exits 0, or 1
    with one ``error:`` line, within a generous bound.  A token file that
    does not read and decode is refused by every command, naming it."""
    target, line = command
    records = [_json_record(solo) for solo in _MOTIFS]
    token_lines = {piece: list(lines) for piece, lines in _TOKEN_LINES.items()}
    model = json.dumps(_MODEL.to_dict()).encode()
    piece = data.draw(st.sampled_from(sorted(token_lines)))
    if target == "corpus":
        records.append(_corrupted_record(data.draw, data.draw(st.sampled_from(CORRUPTIONS))))
    elif target == "tokens":
        hostile_token_line(data.draw, token_lines[piece])
    else:
        model = hostile_model_file(data.draw, _MODEL)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "corpus.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
        (tmp / "tokens").mkdir()
        for name, lines in token_lines.items():
            (tmp / "tokens" / f"{name}.tokens").write_bytes(b"\n".join(lines) + b"\n")
        (tmp / "model.json").write_bytes(model)
        words = {"C": [tmp / "corpus.jsonl"], "T": [tmp / "tokens"], "M": [tmp / "model.json"],
                 "O": [tmp / "out"], "O/model.json": [tmp / "out" / "model.json"], "P": [piece],
                 "T/*": sorted((tmp / "tokens").iterdir())}
        argv = [str(arg) for word in line.split() for arg in words.get(word, [word])]
        bad_file = None
        if target == "tokens":
            try:
                decode_tokens(read_tokens(tmp / "tokens" / f"{piece}.tokens"))
            except ValueError:
                bad_file = tmp / "tokens" / f"{piece}.tokens"
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        assert time.perf_counter() - start < 30.0, argv
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert (code, len(errors)) in ((0, 0), (1, 1)), err.getvalue()
    if bad_file is not None:
        assert code == 1 and str(bad_file) in errors[0], (argv, err.getvalue())
