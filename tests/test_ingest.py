"""The corridor CSV's two readers against each other, and the JSON profile's
column checker against twins of its documents.

The corridor CSV's byte-slice kernel (``_ordered_cells``) reads only a body
in the written order, and the csv loop (``_csv_rows``) reads every other
text; a corridor test loads a file and a quoted twin that only the csv loop
reads, or compares the kernel's cells with the csv loop's rows. The JSON
profile has one checker, which converts a column only when it is not of the
writer's type; a profile test loads a document and a twin with float indexes
and reversed level lists, which that checker must convert. Both must give
the same result or the same error (type, text and line).
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hri.corridor import (
    CorridorProfile,
    SegmentRows,
    _csv_rows,
    _ordered_cells,
    _plain_rows,
    apply_overlay,
    dump_corridor,
    load_corridor,
)
from hri.errors import ParseError, ValidationError
from hri.fixtures import BASELINE_CORRIDOR_FILE, fixture_path
from hri.scoring import dump_score_profile_json, load_score_profile_json, score_corridor
from hri.taxonomy import attribute_ids, builtin_weight_table

DIFFERENTIAL = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
ATTRS = attribute_ids()
HEADER = "segment_index,attribute,value"


def outcome(load, path, text: str):
    """What ``load(path)`` gives once ``text`` is written there: a result, or an error's type and text."""
    path.write_text(text, encoding="utf-8")
    try:
        return load(path)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# Corridor CSV
# ---------------------------------------------------------------------------


def quoted_twin(text: str) -> str:
    """``text`` with every field of every line not starting with ``#`` quoted.

    csv reads the same fields and lines from both, but the quoted header is
    not the plain form, so the twin always goes through the csv loop.
    """
    lines = text.split("\n")
    return "\n".join(
        line if not line or line.startswith("#") else ",".join(f'"{field}"' for field in line.split(","))
        for line in lines
    )


@st.composite
def corridor_files(draw):
    """A corridor CSV as its writer or the benchmark gives it, rows in order,
    shuffled or split, with the metadata in the first line or in a mapping;
    returns the text, the mapping (or None) and the segment count."""
    length_m = draw(st.sampled_from([100.0, 50.0, 250.0]))
    n = draw(st.integers(0, 4))
    values = [[draw(st.sampled_from([0, 1, 2])) for _ in ATTRS] for _ in range(n)]
    rows = [f"{i},{attr},{value}" for i, row in enumerate(values) for attr, value in zip(ATTRS, row)]
    order = draw(st.sampled_from(["in order", "shuffled", "split"]))
    if order == "shuffled":
        rows = draw(st.permutations(rows))
    elif order == "split" and rows:  # rotated, so the first and the last segment are split around the others
        cut = draw(st.integers(0, len(rows) - 1))
        rows = rows[cut:] + rows[:cut]
    # a whole number of segments, or a last segment cut short
    length_km = (n - draw(st.sampled_from([0.0, 0.5]))) * length_m / 1000.0 if n else 0.0
    meta = {"corridor_id": draw(st.sampled_from(["c", "A4 north", "x,"])), "length_km": length_km, "segment_length_m": length_m}
    lines = draw(st.sampled_from([[], ["# a comment"], ["# two", "#comments, here"]]))
    if draw(st.booleans()):
        lines = ["# " + json.dumps(meta), *lines]
        meta = None
    text = "\n".join([*lines, HEADER, *rows]) + draw(st.sampled_from(["\n", ""] if rows else ["\n"]))
    return text, meta, n


def written_order(line: str) -> tuple[int, int]:
    """Where :func:`dump_corridor` writes the row ``line``: by index, then in registry order."""
    index, attr, _ = line.split(",")
    return int(index), ATTRS.index(attr)


# pieces that reach the fast path's token checks: separators, signs, padding,
# non-canonical numbers, comments and names near the registered ones
TOKENS = [",", "\n", "#", " ", "\t", "-", "+", "0", "00", "01", "3", "1.0", "-0", "١", "9" * 25, "\x00", "hd-maps", "hd-map", "_"]
FIELDS = ["0", "1", "2", "3", "4", "5", "01", " 1", "1 ", "+1", "-1", "-0", "1_0", "١", "#1", "", "hd-maps", ATTRS[0]]


@st.composite
def mutated_corridor_files(draw):
    """A corridor file whose rows have one to three places cut, overwritten
    or spliced with a piece, a field replaced, or a line repeated; no row
    holds a quote."""
    text, meta, n = draw(corridor_files())
    head, sep, body = text.partition(HEADER + "\n")
    for _ in range(draw(st.integers(1, 3))):
        lines = body.split("\n")
        at = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["field", "repeat", "splice"]))
        if edit == "field":  # keeps the row count, so the fast path reads every row
            fields = lines[at].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(FIELDS))
            lines[at] = ",".join(fields)
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        body = "\n".join(lines)
        if edit == "splice":
            at = draw(st.integers(0, len(body)))
            piece = draw(st.sampled_from(TOKENS) | st.text(st.characters(blacklist_characters='"\r'), max_size=3))
            body = body[:at] + piece + body[at + draw(st.integers(0, 8)) :]
    return head + sep + body, meta, n


class TestCorridorFastPath:
    @DIFFERENTIAL
    @given(corridor_files() | mutated_corridor_files())
    def test_same_profile_or_error_as_the_csv_loop(self, tmp_path, case):
        text, meta, n = case
        twin = quoted_twin(text)
        assert _plain_rows(twin.encode(), ATTRS, n) is None
        path = tmp_path / "c.csv"
        assert outcome(lambda p: load_corridor(p, meta), path, text) == outcome(lambda p: load_corridor(p, meta), path, twin)

    @DIFFERENTIAL
    @given(corridor_files())
    def test_written_and_benchmark_forms_take_the_fast_path(self, tmp_path, case):
        text, meta, n = case
        rows = _plain_rows(text.encode(), ATTRS, n)
        if ',"' in text.split("\n", 1)[0]:  # csv may read a quoted field across lines there
            assert rows is None
            return
        path = tmp_path / "c.csv"
        head, sep, body = text.partition(HEADER + "\n")
        lines = body.splitlines()
        written = sorted(lines, key=written_order)
        if lines != written:  # shuffled or split: the csv loop reads it as the kernel reads the written order
            assert rows is None
            in_order = head + sep + "\n".join(written) + "\n"
            assert _plain_rows(in_order.encode(), ATTRS, n) is not None
            assert outcome(lambda p: load_corridor(p, meta), path, text) == outcome(lambda p: load_corridor(p, meta), path, in_order)
            return
        assert rows is not None
        path.write_text(quoted_twin(text), encoding="utf-8")
        assert rows == list(load_corridor(path, meta).segments.rows)
        assert all(type(row) is bytes for row in rows)

    def test_bundled_fixture_takes_the_fast_path(self, corridor):
        text = fixture_path(BASELINE_CORRIDOR_FILE).read_text(encoding="utf-8")
        assert text.count("\n#") == 2  # the metadata line and two comment lines
        assert _plain_rows(text.encode(), ATTRS, 240) == list(corridor.segments.rows)
        assert _plain_rows(dump_corridor(corridor).encode(), ATTRS, 240) == list(corridor.segments.rows)

    def test_declined_forms(self, corridor):
        text = dump_corridor(corridor)
        meta_line, rest = text.split("\n", 1)
        assert _plain_rows(text.encode(), ATTRS, 240) is not None
        for other in [
            text.replace("\n17,", "\n 17,"),  # a padded index
            text.replace("\n17,", "\n017,"),  # a non-canonical index
            text.replace(",2\n", ",02\n", 1),  # a non-canonical value
            text.replace(",hd-maps,", ", hd-maps,", 1),  # a padded attribute
            text.replace("\n17,hd-maps,", "\n16,hd-maps,", 1),  # a cell given twice and one missing
            text.replace("\n239,", "\n-1,"),  # a negative index, whose cells would be the last segment's
            text + "\n",  # a blank last line
            text.rstrip("\n").rsplit("\n", 1)[0] + "\n",  # a missing row
            meta_line + '\n# a ,"quoted\n# field"\n' + rest,  # a comment csv reads across lines
            meta_line + "\n# x\0\n" + rest,
        ]:
            assert _plain_rows(other.encode(), ATTRS, 240) is None, other[:200]
        assert _plain_rows(text.encode(), ATTRS, 241) is None
        assert _plain_rows(text.encode(), ATTRS, 239) is None


def written_body(n: int, seed: int = 0) -> str:
    """The body (the lines after the header) that :func:`dump_corridor` writes for ``n`` random segments."""
    rng = random.Random(seed)
    rows = [bytes(rng.choice((0, 1, 2)) for _ in ATTRS) for _ in range(n)]
    text = dump_corridor(CorridorProfile("c", n / 10, 100.0, SegmentRows(ATTRS, rows, 100.0)))
    return text.partition(HEADER + "\n")[2]


def bench_inputs():
    """``bench/inputs.py``, the benchmark's input generator, loaded from its file
    under its own name (its dataclasses look their module up in ``sys.modules``)."""
    spec = importlib.util.spec_from_file_location("hri_bench_inputs", Path(__file__).parent.parent / "bench" / "inputs.py")
    module = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(module)
    return module


@st.composite
def spliced_bodies(draw):
    """A written body of up to 120 segments (indexes of one to three digits)
    with one to three edits: a value overwritten with one byte, valid or not,
    or a place overwritten, cut or spliced with one to three bytes; returns
    the body and the segment count."""
    n = draw(st.integers(0, 120))
    body = written_body(n, draw(st.integers(0, 9)))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(body)))
        piece = draw(st.text(st.sampled_from("0123456789,\n-ab #"), min_size=1, max_size=3))
        cut = draw(st.sampled_from([0, len(piece), draw(st.integers(0, 3))]))  # spliced, overwritten or cut
        newline = body.find("\n", at)
        if newline > 0 and draw(st.booleans()):
            at, piece, cut = newline - 1, draw(st.sampled_from("0123 ,\n")), 1
        body = body[:at] + piece + body[at + cut :]
    return body, n


def csv_cells(body: str, n: int) -> bytes:
    """The cells that :func:`_csv_rows`, the csv loop, reads from ``body`` under the header."""
    return b"".join(_csv_rows(HEADER + "\n" + body, "body", ATTRS, n, n / 10))


class TestOrderedKernel:
    """:func:`_ordered_cells`, which checks a body in the written order as a
    whole, against :func:`_csv_rows`, the csv loop that reads any corridor
    CSV."""

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001])
    def test_equals_the_loop_on_written_bodies(self, n):
        body = written_body(n, seed=n)
        for text in (body, body[:-1]) if body else (body,):  # with and without the final newline
            cells = _ordered_cells(text.encode(), ATTRS, n)
            assert cells is not None
            assert cells == csv_cells(text, n)
        for other in (n - 1, n + 1):
            if other >= 0:
                assert _ordered_cells(body.encode(), ATTRS, other) is None

    def test_written_and_benchmark_files_take_it(self, corridor):
        texts = [(fixture_path(BASELINE_CORRIDOR_FILE).read_text(encoding="utf-8"), 240), (dump_corridor(corridor), 240)]
        texts += [(spec.csv_text(), spec.segments) for spec in bench_inputs().network(1)]
        for text, n in texts:
            body = text.partition(HEADER + "\n")[2]
            cells = _ordered_cells(body.encode(), ATTRS, n)
            assert cells is not None and cells == csv_cells(body, n)

    @pytest.mark.parametrize(
        "old, new",
        [
            (",2\n", ",3\n"),  # a value out of range
            (",1\n", ",\x01\n"),  # the byte of a cell, not its digit
            ("\n17,hd-maps,", "\n71,hd-maps,"),  # an index out of order
            ("hd-maps", "hd-mapz"),
            (",hd-maps", ";hd-maps"),
            ("1\n", "1 "),
        ],
    )
    def test_edits_of_the_same_length_decline_it(self, old, new):
        body = written_body(120, seed=3)
        assert old in body
        edited = body.replace(old, new, 1).encode()
        assert _ordered_cells(edited, ATTRS, 120) is None

    @pytest.mark.parametrize("order", ["shuffled", "split"])
    def test_other_orders_decline_it_but_read_as_before(self, order, tmp_path):
        lines = written_body(120, seed=1).split("\n")[:-1]
        if order == "shuffled":
            random.Random(2).shuffle(lines)
        else:  # segments 60-119, then 0-59
            lines = lines[60 * len(ATTRS) :] + lines[: 60 * len(ATTRS)]
        body = "\n".join(lines) + "\n"
        assert _ordered_cells(body.encode(), ATTRS, 120) is None
        assert _plain_rows((HEADER + "\n" + body).encode(), ATTRS, 120) is None
        meta = "# " + json.dumps({"corridor_id": "c", "length_km": 12.0, "segment_length_m": 100.0}) + "\n"
        ordered, other = tmp_path / "ordered.csv", tmp_path / "other.csv"
        ordered.write_text(meta + HEADER + "\n" + written_body(120, seed=1), encoding="utf-8")
        other.write_text(meta + HEADER + "\n" + body, encoding="utf-8")
        assert load_corridor(other) == load_corridor(ordered)

    @DIFFERENTIAL
    @given(spliced_bodies())
    def test_spliced_bodies_are_declined_or_read_as_the_loop_reads_them(self, case):
        body, n = case
        cells = _ordered_cells(body.encode(), ATTRS, n)
        if cells is not None:
            assert cells == csv_cells(body, n)

    def test_a_huge_length_declines_before_allocating(self, tmp_path):
        body = written_body(3).encode()
        tracemalloc.start()
        try:
            assert _ordered_cells(body, ATTRS, 10**13) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        path = tmp_path / "c.csv"
        meta = {"corridor_id": "c", "length_km": 1e12, "segment_length_m": 100.0}
        path.write_text("# " + json.dumps(meta) + "\n" + HEADER + "\n" + body.decode(), encoding="utf-8")
        with pytest.raises(ParseError, match=r"^.*c\.csv: gap: segment 3 missing$"):
            load_corridor(path)


# ---------------------------------------------------------------------------
# JSON score profile
# ---------------------------------------------------------------------------


def converted_twin(doc):
    """``doc`` with each integer ``segment_index`` written as a float and each
    all-integer level list reversed: the checker reads both the same way, but
    converts the twin's index column and its level lists."""
    twin = json.loads(json.dumps(doc))
    segments = twin.get("segments") if isinstance(twin, dict) else None
    for item in segments if isinstance(segments, list) else ():
        if not isinstance(item, dict):
            continue
        index = item.get("segment_index")
        if type(index) is int and abs(index) < 2**53:
            item["segment_index"] = float(index)
        levels = item.get("allowed_sae_levels")
        if isinstance(levels, list) and all(type(level) is int for level in levels):
            levels.reverse()
    return twin


@st.composite
def profile_docs(draw):
    """A JSON score profile as the writer gives it for a random corridor, scored at a random threshold."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 5))
    length_m = draw(st.sampled_from([100.0, 50.0]))
    palettes = draw(st.lists(st.sampled_from([(0, 1, 2), (1, 2), (2,)]), min_size=n, max_size=n))
    rows = [bytes(rng.choice(palette) for _ in ATTRS) for palette in palettes]
    profile = CorridorProfile("c", n * length_m / 1000.0, length_m, SegmentRows(ATTRS, rows, length_m))
    threshold = draw(st.sampled_from([66.0, 50.0, 0.0, 100.0]))
    assessment = score_corridor(profile, builtin_weight_table(), threshold=threshold, threshold_inclusive=draw(st.booleans()))
    return json.loads(dump_score_profile_json(assessment))


SEGMENT_KEYS = ["segment_index", "start_m", "length_m", "asd_score", "aud_score", "asd_class", "aud_class", "allowed_sae_levels"]
TOP_KEYS = ["corridor_id", "length_km", "segment_length_m", "threshold", "weight_provenance", "segments"]
VALUES = [
    None, True, 0, 1, 2, -1, 1.5, 2.0, 0.0, -0.0, 50, 50.0, 66.0, 100.0, 100.5, 1e400, float("nan"), 10**30,
    "x", "may-be", "May-Be", "highly-likely", "unlikely", [], [1, 2], [2, 1], [3, 4], [1, 2, 3, 4], [1.0, 2.0],
    [1, 2, 2], [1], {}, 0.4, 150.0, 2.4,
]


@st.composite
def mutated_profile_docs(draw):
    """A written profile with one to three fields set to another value or
    removed, or a segment removed, repeated or moved."""
    doc = draw(profile_docs())
    for _ in range(draw(st.integers(1, 3))):
        segments = doc["segments"]
        kind = draw(st.sampled_from(["segment field", "top field", "segments"]))
        if kind == "segment field" and segments:
            item = segments[draw(st.integers(0, len(segments) - 1))]
            key = draw(st.sampled_from(SEGMENT_KEYS))
            if draw(st.integers(0, 9)) == 0:
                item.pop(key, None)
            else:
                item[key] = draw(st.sampled_from(VALUES))
        elif kind == "top field":
            key = draw(st.sampled_from(TOP_KEYS[:-1]))
            if draw(st.integers(0, 9)) == 0:
                doc.pop(key, None)
            else:
                doc[key] = draw(st.sampled_from(VALUES + ["c", 0.25, 0.1]))
        elif segments:
            at = draw(st.integers(0, len(segments) - 1))
            action = draw(st.sampled_from(["remove", "repeat", "move"]))
            item = segments.pop(at) if action != "repeat" else dict(segments[at])
            if action != "remove":
                segments.insert(draw(st.integers(0, len(segments))), item)
    return doc


def assert_loads_like_its_twin(path, doc):
    loaded = outcome(load_score_profile_json, path, json.dumps(doc, indent=2))
    converted = outcome(load_score_profile_json, path, json.dumps(converted_twin(doc), indent=2))
    if isinstance(loaded, tuple) or isinstance(converted, tuple):
        assert loaded == converted
    else:  # the profiles they write back show every float bit for bit, a NaN threshold too
        assert dump_score_profile_json(loaded) == dump_score_profile_json(converted)


def edited_segment(**fields):
    """A written three-segment profile, every score 100, with segment 1's ``fields`` replaced."""
    profile = CorridorProfile("c", 0.3, 100.0, SegmentRows(ATTRS, [bytes([2]) * len(ATTRS)] * 3, 100.0))
    doc = json.loads(dump_score_profile_json(score_corridor(profile, builtin_weight_table())))
    doc["segments"][1].update(fields)
    return doc


class TestProfileFastPath:
    """The column checker of :func:`load_score_profile_json` on written
    documents, on documents near the written form and on their converted twins."""

    @DIFFERENTIAL
    @given(profile_docs() | mutated_profile_docs())
    def test_same_assessment_or_error_as_the_loop(self, tmp_path, doc):
        assert_loads_like_its_twin(tmp_path / "p.json", doc)

    @pytest.mark.parametrize(
        "doc",
        [
            # the other checks pass a NaN score: its band is the top one, and it passes no threshold
            edited_segment(asd_score=float("nan"), allowed_sae_levels=[3, 4]),
            edited_segment(segment_index=2),
            edited_segment(segment_index=True),
            edited_segment(start_m=101.0),
            edited_segment(start_m=100.0 + 1e-9),
            edited_segment(length_m=99.0),
            edited_segment(aud_class="may-be"),
            edited_segment(asd_score=100),
            edited_segment(allowed_sae_levels=[1.0, 2.0, 3.0, 4.0]),
        ],
    )
    def test_documents_near_the_written_form(self, tmp_path, doc):
        assert_loads_like_its_twin(tmp_path / "p.json", doc)

    @DIFFERENTIAL
    @given(profile_docs())
    def test_written_form_takes_the_fast_path(self, tmp_path, doc):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        assert dump_score_profile_json(load_score_profile_json(path)) == path.read_text(encoding="utf-8")

    def test_bundled_fixture_profile_takes_the_fast_path(self, corridor, weights, roadworks, maintenance, tmp_path):
        for profile in (corridor, apply_overlay(apply_overlay(corridor, roadworks), maintenance)):
            assessment = score_corridor(profile, weights)
            text = dump_score_profile_json(assessment)
            path = tmp_path / "p.json"
            path.write_text(text, encoding="utf-8")
            assert load_score_profile_json(path) == assessment
