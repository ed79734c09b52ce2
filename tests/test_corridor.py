from __future__ import annotations

import json
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hri import corridor as corridor_module
from hri.corridor import (
    MISSING,
    CorridorProfile,
    OverlayOp,
    RubricEntry,
    ScenarioOverlay,
    SegmentObservation,
    SegmentRows,
    _ordered_cells,
    apply_overlay,
    dump_corridor,
    load_corridor,
    load_overlay,
    load_rubric,
    operationalize,
)
from hri._util import GEOM_EPS
from hri.errors import ParseError, ValidationError
from hri.fixtures import BASELINE_CORRIDOR_FILE, RUBRIC_EXAMPLE_FILE, fixture_path
from hri.scoring import score_corridor, score_segment
from hri.taxonomy import AutomationLevelGroup, WeightTable, attribute_ids

from test_ingest import DIFFERENTIAL, csv_cells, spliced_bodies, written_body


def tiny_profile(n_segments=4, fill=2, length_m=100.0):
    segments = tuple(
        SegmentObservation(
            index=i,
            start_m=i * length_m,
            length_m=length_m,
            values={attr: fill for attr in attribute_ids()},
        )
        for i in range(n_segments)
    )
    return CorridorProfile(
        corridor_id="tiny",
        length_km=n_segments * length_m / 1000.0,
        segment_length_m=length_m,
        segments=segments,
    )


def full_scan_overlay(profile, overlay):
    """``apply_overlay`` as a test of every segment's start and end, with its expressions."""
    length = profile.segment_length_m
    after_m = overlay.from_km * 1000.0 + GEOM_EPS
    before_m = overlay.to_km * 1000.0 - GEOM_EPS
    slot_of = {attr: slot for slot, attr in enumerate(profile.segments.attributes)}
    rows = list(profile.segments.rows)
    for index, row in enumerate(rows):
        start_m = index * length
        if start_m >= before_m or start_m + length <= after_m:
            continue
        row = bytearray(row)
        for op in overlay.ops:
            row[slot_of[op.attribute]] = op.apply(row[slot_of[op.attribute]])
        rows[index] = bytes(row)
    return CorridorProfile(profile.corridor_id, profile.length_km, length, SegmentRows(profile.segments.attributes, rows, length))


def write_corridor_csv(tmp_path, rows, *, length_km=0.2, name="c.csv"):
    meta = {"corridor_id": "t", "length_km": length_km, "segment_length_m": 100.0}
    lines = ["# " + json.dumps(meta), "segment_index,attribute,value"]
    lines.extend(rows)
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


def full_rows(index):
    return [f"{index},{attr},2" for attr in attribute_ids()]


class TestLoadCorridor:
    def test_fixture_has_240_segments(self, corridor):
        assert len(corridor.segments) == 240
        assert corridor.length_km == 24.0
        assert corridor.segment_length_m == 100.0

    def test_round_trip(self, corridor, tmp_path):
        path = tmp_path / "dump.csv"
        path.write_text(dump_corridor(corridor))
        assert load_corridor(path) == corridor

    def test_out_of_range_value_names_row(self, tmp_path):
        rows = full_rows(0) + full_rows(1)
        rows[5] = rows[5][:-1] + "3"  # adequacy 3 on data line 6
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError, match="adequacy value must be 0, 1 or 2, got 3") as excinfo:
            load_corridor(path)
        assert excinfo.value.line == 2 + 5 + 1  # meta + header + offset

    def test_missing_segment_names_index(self, tmp_path):
        path = write_corridor_csv(tmp_path, full_rows(0), length_km=0.2)
        with pytest.raises(ParseError, match="segment 1 missing"):
            load_corridor(path)

    def test_unknown_attribute_rejected(self, tmp_path):
        rows = full_rows(0) + full_rows(1) + ["1,potholes,1"]
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError, match="unknown attribute 'potholes'"):
            load_corridor(path)

    def test_duplicate_row_rejected(self, tmp_path):
        rows = full_rows(0) + full_rows(1) + ["0,hd-maps,1"]
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError, match="duplicate row"):
            load_corridor(path)

    def test_length_mismatch_rejected(self, tmp_path):
        rows = full_rows(0) + full_rows(1) + full_rows(2)
        path = write_corridor_csv(tmp_path, rows, length_km=0.2)
        with pytest.raises(ParseError, match="segment 2 is present"):
            load_corridor(path)

    def test_missing_attribute_rejected(self, tmp_path):
        rows = full_rows(0) + full_rows(1)[:-1]  # drop one attribute of segment 1
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError, match="segment 1 missing attributes"):
            load_corridor(path)

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("x,hd-maps,2", "malformed segment index 'x'"),
            ("-1,hd-maps,2", "negative segment index -1"),
            ("1,hd-maps,x", "malformed adequacy value 'x'"),
            ("1,hd-maps", "expected 3 fields, got 2"),
        ],
    )
    def test_bad_row_names_its_line(self, tmp_path, bad_row, message):
        rows = full_rows(0) + full_rows(1)
        rows[30] = bad_row
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError, match=message) as excinfo:
            load_corridor(path)
        assert excinfo.value.line == 2 + 30 + 1  # meta + header + offset

    def test_wrong_header_names_its_line(self, tmp_path):
        path = write_corridor_csv(tmp_path, full_rows(0) + full_rows(1))
        path.write_text(path.read_text().replace("segment_index,attribute,value", "segment,attribute,value"))
        with pytest.raises(ParseError, match="expected header") as excinfo:
            load_corridor(path)
        assert excinfo.value.line == 2

    def test_oversized_field_names_its_line(self, tmp_path):
        rows = full_rows(0) + full_rows(1)
        rows[30] = "1,hd-maps," + "2" * 200_000  # over csv's 131,072-character field limit
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as excinfo:
            load_corridor(path)
        assert (excinfo.value.source, excinfo.value.line) == (str(path), 2 + 30 + 1)

    def test_header_only_file(self, tmp_path):
        path = write_corridor_csv(tmp_path, [])
        with pytest.raises(ParseError, match="gap: segment 0 missing") as excinfo:
            load_corridor(path)
        assert excinfo.value.line is None

    def test_padded_fields_accepted(self, tmp_path):
        rows = full_rows(0) + full_rows(1)
        rows[3] = rows[3].replace(",2", ", 1")
        rows[5] = " 0, " + rows[5].split(",")[1] + " ,0"
        profile = load_corridor(write_corridor_csv(tmp_path, rows))
        values = profile.segments[0].values
        assert values[attribute_ids()[3]] == 1
        assert values[attribute_ids()[5]] == 0
        assert list(values) == list(attribute_ids())

    def test_padded_cells_and_leading_zeros_read_as_written(self, tmp_path):
        # reversed rows, so that the csv loop reads the file
        rows = [row for index in range(18) for row in full_rows(index)][::-1]
        written = load_corridor(write_corridor_csv(tmp_path, rows, length_km=1.8, name="written.csv"))
        rows = ["0" + row if row.startswith("17,") else row for row in rows]  # index 017
        rows[0] = rows[0].replace(",2", ", 2 ")
        rows[-1] = rows[-1].replace(",2", ",02")
        assert rows[0].startswith("017,") and rows[0].endswith(", 2 ") and rows[-1].startswith("0,")
        assert load_corridor(write_corridor_csv(tmp_path, rows, length_km=1.8, name="padded.csv")) == written

    @pytest.mark.parametrize(
        "field, spelling, what",
        [
            (0, "0_1", "segment index"),
            (0, "+1", "segment index"),
            (0, "١", "segment index"),  # an Arabic-Indic one
            (2, "+2", "adequacy value"),
            (2, "0_2", "adequacy value"),
            (2, "٢", "adequacy value"),
        ],
    )
    def test_numbers_int_reads_but_no_writer_gives_are_refused(self, tmp_path, field, spelling, what):
        rows = (full_rows(0) + full_rows(1))[::-1]  # reversed, so that the csv loop reads the file
        cells = rows[5].split(",")
        assert cells[0] == "1" and cells[2] == "2"
        cells[field] = spelling
        rows[5] = ",".join(cells)
        path = write_corridor_csv(tmp_path, rows)
        with pytest.raises(ParseError) as raised:
            load_corridor(path)
        assert str(raised.value) == str(ParseError(f"malformed {what} {spelling!r}", source=str(path), line=2 + 5 + 1))

    def test_row_order_does_not_matter(self, tmp_path):
        rows = [f"{i},{attr},{(i + j) % 3}" for i in range(3) for j, attr in enumerate(attribute_ids())]
        sorted_profile = load_corridor(write_corridor_csv(tmp_path, rows, length_km=0.3, name="sorted.csv"))
        split = rows[:10] + rows[23:46] + rows[10:23] + rows[46:]  # segment 0 split around segment 1
        shuffled = list(rows)
        random.Random(7).shuffle(shuffled)
        for name, variant in (("split.csv", split), ("shuffled.csv", shuffled)):
            path = write_corridor_csv(tmp_path, variant, length_km=0.3, name=name)
            assert load_corridor(path) == sorted_profile

    @pytest.mark.parametrize(
        "meta, error, message",
        [
            ({"segment_length_m": 0.4}, ValidationError, "segment_length_m must be at least 1 m, got 0.4"),
            ({"segment_length_m": float("nan")}, ValidationError, "segment_length_m must be at least 1 m, got nan"),
            ({"length_km": float("inf")}, ValidationError, "length_km must be at least 0 and finite in metres, got inf"),
            ({"length_km": 1.8e305}, ValidationError, "length_km must be at least 0 and finite in metres, got 1.8e+305"),
            ({"length_km": -1.0}, ValidationError, "length_km must be at least 0 and finite in metres, got -1.0"),
            ({"segment_length_m": float("inf")}, ValidationError, "segment_length_m must be at least 1 m, got inf"),
        ],
    )
    def test_metadata_rejects_sub_metre_segments_and_bad_lengths(self, tmp_path, meta, error, message):
        doc = dict({"corridor_id": "t", "length_km": 0.001, "segment_length_m": 100.0}, **meta)
        path = tmp_path / "c.csv"
        path.write_text("# " + json.dumps(doc) + "\nsegment_index,attribute,value\n")
        with pytest.raises(error) as raised:
            load_corridor(path)
        assert str(raised.value) == f"{path}:line 1: {message}"

    @pytest.mark.parametrize("comment", ["", "# km 3.2: caf\u00e9 \u2013 works\n"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_utf8_comment_and_crlf_twins_read_as_the_ascii_lf_file(
        self, corridor, tmp_path, monkeypatch, comment, newline
    ):
        # each twin of the bundled fixture, with or without a leading BOM, is read as the bytes of its text with
        # LF line ends, so the written form takes the kernel whatever its line ends and comments; a fault is at the
        # same line
        meta, rest = fixture_path(BASELINE_CORRIDOR_FILE).read_text(encoding="utf-8").split("\n", 1)
        text = meta + "\n" + comment + rest
        path = tmp_path / "c.csv"
        lines = text.split("\n")
        line = lines.index("17,hd-maps,2") + 1
        lines[line - 1] = "17,hd-maps,3"

        def csv_loop(*args):
            pytest.fail("the written form took the csv loop")

        for bom in (b"", "\ufeff".encode()):
            path.write_bytes(bom + text.replace("\n", newline).encode())
            with monkeypatch.context() as patch:
                patch.setattr(corridor_module, "_csv_rows", csv_loop)
                assert load_corridor(path) == corridor
            path.write_bytes(bom + "\n".join(lines).replace("\n", newline).encode())
            with pytest.raises(ParseError) as raised:
                load_corridor(path)
            assert str(raised.value) == f"{path}:line {line}: adequacy value must be 0, 1 or 2, got 3"

    @pytest.mark.parametrize("ending", ["", "\n# a comment without a final newline"])
    def test_comment_lines_alone_hold_no_data_rows(self, tmp_path, ending):
        meta = {"corridor_id": "t", "length_km": 0.1, "segment_length_m": 100.0}
        path = tmp_path / "c.csv"
        path.write_text("# " + json.dumps(meta) + ending)
        with pytest.raises(ParseError) as raised:
            load_corridor(path)
        assert str(raised.value) == f"{path}: no data rows"

    def test_sidecar_metadata(self, tmp_path):
        data = "segment_index,attribute,value\n" + "\n".join(full_rows(0)) + "\n"
        csv_path = tmp_path / "c.csv"
        csv_path.write_text(data)
        meta_path = tmp_path / "c.meta.json"
        meta_path.write_text(
            json.dumps({"corridor_id": "t", "length_km": 0.1, "segment_length_m": 100.0})
        )
        profile = load_corridor(csv_path, meta=meta_path)
        assert profile.corridor_id == "t"
        with pytest.raises(ParseError, match="no metadata"):
            load_corridor(csv_path)

    def test_metadata_given_twice_must_agree_field_for_field(self):
        path = fixture_path(BASELINE_CORRIDOR_FILE)
        same = {"corridor_id": "D08-synthetic", "length_km": 24, "segment_length_m": 100}  # ints equal to the floats
        assert load_corridor(path, meta=same) == load_corridor(path)
        with pytest.raises(ValidationError) as raised:
            load_corridor(path, meta={**same, "length_km": 1})
        assert str(raised.value) == f"corridor metadata given twice: {path}:line 1 has length_km 24.0, <meta> has 1.0"


class TestApplyOverlay:
    def test_km_range_affects_exact_segments(self, corridor):
        overlay = ScenarioOverlay(
            name="x",
            from_km=11.0,
            to_km=17.0,
            ops=(OverlayOp("set", "lane-mark-consistency", 0),),
        )
        result = apply_overlay(corridor, overlay)
        changed = [
            s.index
            for s, t in zip(corridor.segments, result.segments)
            if s.values != t.values
        ]
        assert changed == list(range(110, 170))

    def test_cap_at_max_is_identity(self, corridor):
        overlay = ScenarioOverlay(
            name="x", from_km=0.0, to_km=24.0, ops=(OverlayOp("cap", "pavement-maintenance", 2),)
        )
        assert apply_overlay(corridor, overlay) == corridor

    def test_empty_ops_is_identity(self, corridor):
        overlay = ScenarioOverlay(name="x", from_km=1.0, to_km=2.0, ops=())
        assert apply_overlay(corridor, overlay) == corridor

    def test_set_is_idempotent(self, corridor):
        overlay = ScenarioOverlay(
            name="x",
            from_km=3.0,
            to_km=9.5,
            ops=(OverlayOp("set", "guard-rail", 0), OverlayOp("set", "lighting", 1)),
        )
        once = apply_overlay(corridor, overlay)
        assert apply_overlay(once, overlay) == once

    def test_input_not_mutated(self, corridor):
        snapshot = [dict(s.values) for s in corridor.segments]
        overlay = ScenarioOverlay(
            name="x", from_km=0.0, to_km=24.0, ops=(OverlayOp("set", "hd-maps", 0),)
        )
        apply_overlay(corridor, overlay)
        assert [dict(s.values) for s in corridor.segments] == snapshot

    def test_geometry_preserved(self, corridor, roadworks):
        result = apply_overlay(corridor, roadworks)
        assert [(s.index, s.start_m, s.length_m) for s in result.segments] == [
            (s.index, s.start_m, s.length_m) for s in corridor.segments
        ]

    def test_out_of_bounds_rejected(self, corridor):
        overlay = ScenarioOverlay(
            name="x", from_km=20.0, to_km=25.0, ops=(OverlayOp("set", "hd-maps", 0),)
        )
        with pytest.raises(ValidationError, match="outside corridor"):
            apply_overlay(corridor, overlay)

    @given(st.integers(min_value=0, max_value=2))
    def test_cap_never_increases(self, cap_value):
        profile = tiny_profile()
        overlay = ScenarioOverlay(
            name="x",
            from_km=0.0,
            to_km=profile.length_km,
            ops=(OverlayOp("cap", "lighting", cap_value),),
        )
        result = apply_overlay(profile, overlay)
        for before, after in zip(profile.segments, result.segments):
            assert after.values["lighting"] <= before.values["lighting"]

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError, match="empty or inverted"):
            ScenarioOverlay(name="x", from_km=2.0, to_km=2.0, ops=())

    def test_overlay_file(self, roadworks):
        assert roadworks.from_km == 11.0
        assert roadworks.to_km == 17.0
        assert any(op.attribute == "lane-mark-consistency" and op.op == "set" for op in roadworks.ops)

    @pytest.mark.parametrize("value, loaded", [(2.0, 2), (1.9, None), (1e400, None)])
    def test_overlay_value_must_be_an_integer(self, tmp_path, value, loaded):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"name": "x", "from_km": 0, "to_km": 1, "ops": [{"op": "set", "attribute": "hd-maps", "value": value}]}))
        if loaded is not None:
            assert load_overlay(path).ops[0].value == loaded
        else:
            with pytest.raises(ParseError, match=f"bad overlay: value {value!r} is not an integer"):
                load_overlay(path)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_touches_the_segments_a_full_scan_touches(self, data):
        length_m = data.draw(st.sampled_from([100.0, 33.3, 1.0, 7.7, 250.0]))
        profile = tiny_profile(data.draw(st.integers(1, 40)), fill=2, length_m=length_m)
        n = len(profile.segments)

        def edge_km(low):  # a segment edge, a hair to either side of it, or a point inside a segment
            k = data.draw(st.integers(0, n))
            metres = k * length_m + data.draw(
                st.sampled_from([0.0, GEOM_EPS, -GEOM_EPS, 2 * GEOM_EPS, -2 * GEOM_EPS, 0.5 * GEOM_EPS, 0.3 * length_m])
            )
            km = metres / 1000.0
            steps = data.draw(st.integers(-2, 2))  # a few ulps off
            for _ in range(abs(steps)):
                km = math.nextafter(km, math.copysign(math.inf, steps))
            return max(low, km)

        from_km = edge_km(0.0)
        to_km = edge_km(from_km)
        assume(from_km < to_km <= profile.length_km + GEOM_EPS)
        overlay = ScenarioOverlay("x", from_km, to_km, (OverlayOp("set", "lighting", 0),))
        assert apply_overlay(profile, overlay).segments.rows == full_scan_overlay(profile, overlay).segments.rows

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_call_applies_overlays_as_sequential_calls_do(self, data):
        # three attributes, some cells MISSING, and a fourth attribute the rows do not hold
        held, absent = attribute_ids()[:3], attribute_ids()[3]
        n = data.draw(st.integers(1, 8))
        length_m = data.draw(st.sampled_from([100.0, 33.3, 250.0]))
        cells = st.sampled_from([0, 1, 2, None] if data.draw(st.booleans()) else [0, 1, 2])
        segments = []
        for i in range(n):
            row = {attr: data.draw(cells) for attr in held}
            segments.append(SegmentObservation(i, i * length_m, length_m, {a: v for a, v in row.items() if v is not None}))
        profile = CorridorProfile("c", n * length_m / 1000.0, length_m, segments)
        # segment edges, a hair to either side of them (empty runs at an edge), points inside segments,
        # and in a quarter of the cases points outside the corridor
        shifts = (0.0, -1e-7, 1e-7, 0.4 * length_m)
        points = {(k * length_m + shift) / 1000.0 for k in range(n + 1) for shift in shifts}
        if data.draw(st.integers(0, 3)) == 0:
            points |= {-length_m / 1000.0, (n + 1) * length_m / 1000.0}
        points = st.sampled_from(sorted(points))
        attributes = st.sampled_from([*held, absent] if data.draw(st.booleans()) else held)
        op = st.builds(OverlayOp, st.sampled_from(["set", "cap"]), attributes, st.integers(0, 2))
        overlays = []
        for number in range(data.draw(st.integers(0, 5))):
            from_km, to_km = sorted(data.draw(st.lists(points, min_size=2, max_size=2, unique=True)))
            overlays.append(ScenarioOverlay(f"o{number}", from_km, to_km, tuple(data.draw(st.lists(op, max_size=3)))))
        if overlays and data.draw(st.booleans()):  # an overlay past the corridor's end, in the middle of the list
            where = data.draw(st.integers(0, len(overlays)))
            overlays.insert(where, ScenarioOverlay("far", 0.0, profile.length_km + 1.0, (OverlayOp("set", held[0], 0),)))

        def outcome(apply):
            try:
                return apply()
            except ValidationError as exc:
                return type(exc), str(exc)

        def sequential():
            result = profile
            for overlay in overlays:
                result = apply_overlay(result, overlay)
            return result

        expected = outcome(sequential)
        got = outcome(lambda: apply_overlay(profile, *overlays))
        if isinstance(expected, tuple):
            assert got == expected
        else:
            assert got == expected and got.segments.rows == expected.segments.rows

    def test_bad_overlay_file(self, tmp_path):
        path = tmp_path / "o.json"
        path.write_text(json.dumps({"name": "x", "from_km": 0, "to_km": 1, "ops": [{"op": "zap", "attribute": "hd-maps", "value": 1}]}))
        with pytest.raises(ParseError, match="bad overlay"):
            load_overlay(path)


class TestRubrics:
    retro = RubricEntry(
        direction="higher-is-better",
        breakpoints=((None, 0), (100.0, 1), (200.0, 2)),
        unit="mcd/m2/lx",
    )
    curvature = RubricEntry(
        direction="lower-is-better",
        breakpoints=((None, 2), (0.8, 1), (2.0, 0)),
        unit="1/km",
    )

    def test_higher_is_better(self):
        rubric = {"lane-mark-retroreflectivity": self.retro}
        assert operationalize({"lane-mark-retroreflectivity": 300.0}, rubric) == {
            "lane-mark-retroreflectivity": 2
        }
        assert operationalize({"lane-mark-retroreflectivity": 99.9}, rubric) == {
            "lane-mark-retroreflectivity": 0
        }

    def test_breakpoint_belongs_to_higher_interval(self):
        rubric = {"lane-mark-retroreflectivity": self.retro}
        assert operationalize({"lane-mark-retroreflectivity": 200.0}, rubric) == {
            "lane-mark-retroreflectivity": 2
        }
        assert operationalize({"lane-mark-retroreflectivity": 100.0}, rubric) == {
            "lane-mark-retroreflectivity": 1
        }

    def test_lower_is_better_below_best_threshold(self):
        rubric = {"horizontal-curvature": self.curvature}
        assert operationalize({"horizontal-curvature": 0.2}, rubric) == {"horizontal-curvature": 2}
        assert operationalize({"horizontal-curvature": 2.0}, rubric) == {"horizontal-curvature": 0}

    def test_missing_entry_rejected(self):
        with pytest.raises(ValidationError, match="no rubric entry"):
            operationalize({"hd-maps": 1.0}, {})

    @pytest.mark.parametrize("attr", ["horizontal-curvature", "lane-mark-width"])
    def test_nan_measurement_rejected(self, attr):
        # no threshold orders NaN: unrefused it took the first level, the best for lower-is-better curvature
        rubric = load_rubric(fixture_path(RUBRIC_EXAMPLE_FILE))
        with pytest.raises(ValidationError, match=f"measurement nan for attribute '{attr}' is not a number"):
            operationalize({attr: math.nan}, rubric)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            RubricEntry(direction="higher-is-better", breakpoints=((None, 0), (200.0, 1), (100.0, 2)))

    def test_level_order_must_match_direction(self):
        with pytest.raises(ValueError, match="do not cover"):
            RubricEntry(direction="lower-is-better", breakpoints=((None, 0), (1.0, 1), (2.0, 2)))

    def test_load_example_rubric(self):
        rubric = load_rubric(fixture_path(RUBRIC_EXAMPLE_FILE))
        assert rubric["lane-mark-retroreflectivity"].direction == "higher-is-better"
        assert rubric["horizontal-curvature"].level_for(0.5) == 2

    @pytest.mark.parametrize(
        "edit, text",
        [
            ({"unit": [5]}, "unit [5] is not a string"),  # loaded as the unit [5]
            ({"unit": 5}, "unit 5 is not a string"),
            ({"direction": ["higher-is-better"]}, "direction ['higher-is-better'] is not a string"),
            ({"breakpoints": {"a": 1}}, "breakpoints {'a': 1} is not a list"),  # string indices must be integers
            ({"breakpoints": "abc"}, "breakpoints 'abc' is not a list"),
            ({"breakpoints": [[None, 0], [12, 1], [15, 2]]}, "breakpoints[0] [None, 0] is not an object"),
            ({"breakpoints": [{"threshold": None, "level": 0}, 12]}, "breakpoints[1] 12 is not an object"),
            (5, "entry 5 is not an object"),
            ([], "entry [] is not an object"),
        ],
    )
    def test_load_names_a_field_of_the_wrong_type(self, tmp_path, edit, text):
        doc = json.loads(fixture_path(RUBRIC_EXAMPLE_FILE).read_text())
        if isinstance(edit, dict):
            doc["lane-mark-width"].update(edit)
        else:
            doc["lane-mark-width"] = edit
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as raised:
            load_rubric(path)
        assert str(raised.value) == f"{path}: bad rubric for 'lane-mark-width': {text}"

    @pytest.mark.parametrize(
        "edit, text",
        [
            (lambda doc: [doc], "rubric document must be a JSON object"),
            (lambda doc: {**doc, "lane-widths": doc["lane-mark-width"]}, "unknown attribute 'lane-widths'"),
            (
                lambda doc: {**doc, "lane-mark-width": {**doc["lane-mark-width"], "direction": "up"}},
                "bad rubric for 'lane-mark-width': unknown direction 'up'",
            ),
            (
                lambda doc: {**doc, "lane-mark-width": {**doc["lane-mark-width"], "breakpoints": [{"threshold": None, "level": 0}]}},
                "bad rubric for 'lane-mark-width': rubric needs 3 breakpoints, the first with threshold null",
            ),
        ],
    )
    def test_load_names_a_document_or_entry_fault(self, tmp_path, edit, text):
        doc = json.loads(fixture_path(RUBRIC_EXAMPLE_FILE).read_text())
        path = tmp_path / "r.json"
        path.write_text(json.dumps(edit(doc)))
        with pytest.raises(ParseError) as raised:
            load_rubric(path)
        assert str(raised.value) == f"{path}: {text}"

    def test_load_takes_a_null_unit(self, tmp_path):
        doc = json.loads(fixture_path(RUBRIC_EXAMPLE_FILE).read_text())
        doc["lane-mark-width"]["unit"] = None
        path = tmp_path / "r.json"
        path.write_text(json.dumps(doc))
        assert load_rubric(path)["lane-mark-width"].unit is None


class TestSegmentCount:
    def test_partial_final_segment_rounds_up(self):
        from hri.corridor import expected_segment_count

        assert expected_segment_count(0.25, 100.0) == 3
        assert expected_segment_count(24.0, 100.0) == 240
        assert expected_segment_count(0.1, 100.0) == 1


class TestSegmentObservation:
    def test_rejects_bad_adequacy(self):
        with pytest.raises(ValueError, match="must be 0, 1 or 2"):
            SegmentObservation(index=0, start_m=0.0, length_m=100.0, values={"hd-maps": 5})

    @pytest.mark.parametrize("value", [3, -1, 1.5, None, "1", [1]])
    def test_rejection_names_the_bad_value(self, value):
        values = {"hd-maps": 2, "lane-mark-contrast": value}
        with pytest.raises(ValueError) as raised:
            SegmentObservation(index=1, start_m=100.0, length_m=100.0, values=values)
        assert str(raised.value) == f"segment 1: adequacy for 'lane-mark-contrast' must be 0, 1 or 2, got {value}"

    def test_values_are_read_only_and_a_proxy_is_kept(self):
        given = {"hd-maps": 2}
        copied = SegmentObservation(index=0, start_m=0.0, length_m=100.0, values=given)
        assert type(copied.values) is MappingProxyType and copied.values == given
        given["hd-maps"] = 0
        assert copied.values["hd-maps"] == 2
        proxy = MappingProxyType({"hd-maps": 1})
        assert SegmentObservation(index=0, start_m=0.0, length_m=100.0, values=proxy).values is proxy

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError) as raised:
            SegmentObservation(-1, -100.0, 100.0, {"hd-maps": 2})
        assert str(raised.value) == "segment index must be non-negative, got -1"

    def test_rejects_misaligned_start(self):
        with pytest.raises(ValueError, match="start_m"):
            SegmentObservation(index=2, start_m=150.0, length_m=100.0, values={})

    @pytest.mark.parametrize(
        "start_m, length_m, message",
        [(math.nan, 100.0, "start_m nan != index"), (0.0, math.nan, "segment length must be positive, got nan")],
    )
    def test_rejects_nan_geometry(self, start_m, length_m, message):
        with pytest.raises(ValueError, match=message):
            SegmentObservation(index=0, start_m=start_m, length_m=length_m, values={})

    def test_profile_rejects_gap(self):
        good = tiny_profile()
        with pytest.raises(ValidationError, match="position 1"):
            CorridorProfile(
                corridor_id="bad",
                length_km=good.length_km,
                segment_length_m=good.segment_length_m,
                segments=(good.segments[0], good.segments[2], good.segments[1], good.segments[3]),
            )

    def test_profile_rejects_wrong_count(self):
        good = tiny_profile()
        with pytest.raises(ValidationError, match="expected 4"):
            CorridorProfile(
                corridor_id="bad",
                length_km=good.length_km,
                segment_length_m=good.segment_length_m,
                segments=good.segments[:3],
            )

    def test_profile_rejects_a_view_at_the_wrong_position(self):
        good = tiny_profile()
        moved = SegmentObservation(4, 400.0, 100.0, good.segments[3].values)  # at position 3
        with pytest.raises(ValidationError, match="position 3"):
            CorridorProfile("bad", good.length_km, good.segment_length_m, (*good.segments[:3], moved))

    @pytest.mark.parametrize("stored", [True, False], ids=["rows", "views"])
    def test_profile_keeps_its_count_text(self, stored):
        good = tiny_profile()
        segments = good.segments if stored else tuple(good.segments)
        with pytest.raises(ValidationError) as raised:
            CorridorProfile("bad", 0.25, 100.0, segments)
        assert str(raised.value) == "corridor 'bad': 4 segments, expected 3 for 0.25 km at 100.0 m"

    @pytest.mark.parametrize(
        "segments, message",
        [
            # 1e-7 m longer: each view's start is within its own slack, but the length is not the grid's
            (
                tuple(SegmentObservation(i, i * 100.0, 100.0000001, {"hd-maps": 2}) for i in range(2)),
                "segment 0: length_m 100.0000001 != segment_length_m 100.0",
            ),
            (SegmentRows(("hd-maps",), [bytes(1)] * 2, 100.0000001), "segment 0: length_m 100.0000001 != segment_length_m 100.0"),
            (
                (SegmentObservation(0, 0.0, 100.0, {}), SegmentObservation(2, 200.0, 100.0, {})),
                "segment 2: segment_index 2 at position 1",
            ),
        ],
        ids=["views", "rows", "position"],
    )
    def test_profile_holds_its_segments_to_the_grid(self, segments, message):
        with pytest.raises(ValidationError) as raised:
            CorridorProfile("c", 0.2, 100.0, segments)
        assert str(raised.value) == message


@st.composite
def overlaid_corridors(draw):
    """A corridor CSV's rows in shuffled or split order, 0-3 overlays whose
    ranges fall on or between segment edges, and per segment the values
    those rows and overlays give, worked out with plain dicts."""
    attrs = attribute_ids()
    length_m = draw(st.sampled_from([100.0, 50.0, 250.0]))
    values = draw(
        st.lists(st.lists(st.sampled_from([0, 1, 2]), min_size=len(attrs), max_size=len(attrs)), min_size=1, max_size=5)
    )
    n = len(values)
    rows = [f"{i},{attr},{value}" for i, row in enumerate(values) for attr, value in zip(attrs, row)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    else:  # rotated, so the first and the last segment are split around the others
        cut = draw(st.integers(0, len(rows) - 1))
        rows = rows[cut:] + rows[:cut]
    # whole-segment edges, and points a quarter into a segment
    points = sorted({k * length_m / 1000.0 for k in range(n + 1)} | {(k + 0.25) * length_m / 1000.0 for k in range(n)})
    expected = [dict(zip(attrs, row)) for row in values]
    overlays = []
    for number in range(draw(st.integers(0, 3))):
        from_km, to_km = sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2, unique=True)))
        ops = tuple(
            OverlayOp(draw(st.sampled_from(["set", "cap"])), draw(st.sampled_from(attrs)), draw(st.sampled_from([0, 1, 2])))
            for _ in range(draw(st.integers(0, 3)))
        )
        overlays.append(ScenarioOverlay(f"o{number}", from_km, to_km, ops))
        for i, segment in enumerate(expected):
            start_m = i * length_m
            if start_m < to_km * 1000.0 - 1e-6 and start_m + length_m > from_km * 1000.0 + 1e-6:
                for op in ops:
                    segment[op.attribute] = op.value if op.op == "set" else min(segment[op.attribute], op.value)
    return length_m, rows, overlays, expected


class TestSegmentRows:
    @settings(max_examples=150, deadline=None)
    @given(overlaid_corridors())
    def test_loaded_and_overlaid_values_match_a_dict_reference(self, tmp_path_factory, case):
        length_m, rows, overlays, expected = case
        meta = {"corridor_id": "t", "length_km": len(expected) * length_m / 1000.0, "segment_length_m": length_m}
        path = tmp_path_factory.mktemp("rows") / "c.csv"
        path.write_text("# " + json.dumps(meta) + "\nsegment_index,attribute,value\n" + "\n".join(rows) + "\n")
        profile = load_corridor(path)
        for overlay in overlays:
            profile = apply_overlay(profile, overlay)
        assert len(profile.segments) == len(expected)
        assert [dict(segment.values) for segment in profile.segments] == expected
        assert all(list(segment.values) == list(attribute_ids()) for segment in profile.segments)
        assert [(s.index, s.start_m, s.length_m) for s in profile.segments] == [
            (i, i * length_m, length_m) for i in range(len(expected))
        ]
        observed = [SegmentObservation(i, i * length_m, length_m, values) for i, values in enumerate(expected)]
        assert profile == CorridorProfile("t", meta["length_km"], length_m, observed)

    @pytest.mark.parametrize("byte", [3, 5, 0xFE])
    def test_rows_refuse_bytes_outside_the_adequacy_values(self, byte):
        # 0, 1, 2 and MISSING load; a 5 would otherwise reach score_corridor's term tables as an IndexError
        assert SegmentRows(attribute_ids(), [bytes([0, 1, 2, MISSING]) * 5 + bytes(3)], 100.0).rows
        for rows in ([bytes([byte]) * 23], [bytes(23), bytes(22) + bytes([byte])]):
            with pytest.raises(ValueError) as raised:
                SegmentRows(attribute_ids(), rows, 100.0)
            assert str(raised.value) == f"row byte {byte} is not an adequacy value 0, 1 or 2, or MISSING"

    def test_rows_in_two_attribute_orders_compare_by_their_values(self):
        ab = SegmentRows(("a", "b"), [bytes([0, 2]), bytes([1, MISSING])], 100.0)
        assert ab == SegmentRows(("b", "a"), [bytes([2, 0]), bytes([MISSING, 1])], 100.0)
        assert ab != SegmentRows(("b", "a"), [bytes([2, 0]), bytes([1, 1])], 100.0)
        assert ab != SegmentRows(("a", "b"), [bytes([0, 2]), bytes([1, MISSING])], 50.0)

    def test_custom_attribute_names_keep_their_order(self):
        names = ["zeta", "alpha", "mid"]
        given = tuple(
            SegmentObservation(i, i * 100.0, 100.0, dict(zip(names, (i % 3, 2, 1)))) for i in range(3)
        )
        profile = CorridorProfile("c", 0.3, 100.0, given)
        assert type(profile.segments) is SegmentRows
        assert profile.segments.attributes == tuple(names)
        assert profile.segments.rows == (bytes([0, 2, 1]), bytes([1, 2, 1]), bytes([2, 2, 1]))
        assert [list(s.values.items()) for s in profile.segments] == [list(s.values.items()) for s in given]
        assert tuple(profile.segments) == given and profile.segments == given
        assert profile.segments[-1] == given[-1] and profile.segments[1:] == given[1:]
        with pytest.raises(IndexError):
            profile.segments[3]

    def test_segments_missing_an_attribute_are_scored_like_score_segment(self):
        table = WeightTable({(group, name): 1.0 for group in AutomationLevelGroup for name in ("a", "b")})
        given = (
            SegmentObservation(0, 0.0, 100.0, {"a": 2, "b": 1}),
            SegmentObservation(1, 100.0, 100.0, {"b": 0}),
        )
        profile = CorridorProfile("c", 0.2, 100.0, given)
        assert profile.segments.rows[1] == bytes([0xFF, 0]) and not profile.segments.complete
        assert profile.segments[1].values == {"b": 0}
        with pytest.raises(ValidationError) as expected:
            score_segment(given[1], table, AutomationLevelGroup.ASD)
        with pytest.raises(ValidationError) as raised:
            score_corridor(profile, table)
        assert str(raised.value) == str(expected.value)
        overlay = ScenarioOverlay("x", 0.1, 0.2, (OverlayOp("set", "hd-maps", 0),))
        with pytest.raises(ValidationError, match="segment 1 has no value for 'hd-maps'"):
            apply_overlay(profile, overlay)

    def test_overlay_rewrites_only_touched_rows(self, corridor, roadworks):
        result = apply_overlay(corridor, roadworks)
        kept = [i for i, (a, b) in enumerate(zip(corridor.segments.rows, result.segments.rows)) if a is b]
        assert kept == list(range(110)) + list(range(170, 240))


class TestKernelSlices:
    """The byte-slice kernel checks each digit run in slices of at most ``_SLICE_SEGMENTS`` segments. With slices
    of one and of seven segments, slice ends fall inside every digit run of these bodies, which must read as the
    csv loop reads them."""

    @pytest.mark.parametrize("slice_segments", [1, 7])
    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 99, 100, 101, 120])
    def test_written_bodies_read_as_the_csv_loop(self, monkeypatch, slice_segments, n):
        monkeypatch.setattr(corridor_module, "_SLICE_SEGMENTS", slice_segments)
        body = written_body(n, seed=n)
        for text in (body, body[:-1]) if body else (body,):  # with and without the final newline
            assert _ordered_cells(text.encode(), attribute_ids(), n) == csv_cells(text, n)
            head = b"# c\nsegment_index,attribute,value\n"
            assert _ordered_cells(head + text.encode(), attribute_ids(), n, len(head)) == csv_cells(text, n)
        if n:  # a changed byte in the last slice, then in the first, declines it
            for at in (len(body) - 4, 0):
                edited = bytearray(body.encode())
                edited[at] = ord("5")
                assert _ordered_cells(bytes(edited), attribute_ids(), n) is None

    @DIFFERENTIAL
    @given(spliced_bodies())
    def test_spliced_bodies_are_declined_or_read_as_the_loop_reads_them(self, monkeypatch, case):
        monkeypatch.setattr(corridor_module, "_SLICE_SEGMENTS", 7)
        body, n = case
        cells = _ordered_cells(body.encode(), attribute_ids(), n)
        if cells is not None:
            assert cells == csv_cells(body, n)

    def test_a_corridor_of_several_slices_loads_as_its_quoted_twin(self, monkeypatch, tmp_path):
        monkeypatch.setattr(corridor_module, "_SLICE_SEGMENTS", 7)
        meta = {"corridor_id": "c", "length_km": 12.0, "segment_length_m": 100.0}
        text = "# " + json.dumps(meta) + "\nsegment_index,attribute,value\n" + written_body(120, seed=4)
        plain, quoted = tmp_path / "plain.csv", tmp_path / "quoted.csv"
        plain.write_text(text)
        quoted.write_text(text.replace("segment_index,attribute,value", '"segment_index",attribute,value'))
        assert load_corridor(plain) == load_corridor(quoted)
