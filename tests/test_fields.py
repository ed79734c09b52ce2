"""The field rule: every CSV cell and canonical-text field is read with the ASCII blanks around it stripped, and only
those, at every site that reads one."""

from __future__ import annotations

import json

import pytest

from hri.cli import _parse_hostport, main
from hri.corridor import OverlayOp, SegmentObservation, load_corridor
from hri.errors import ParseError, ValidationError
from hri.ivim import IviStatus, encode, from_canonical_text, to_canonical_text
from hri.scoring import SensitivityConfig, SensitivityScenario
from hri.survey import DayService, Region, SurveyResponse, load_survey
from hri.taxonomy import AutomationLevelGroup, MacroCategory, ReadinessClass, attribute_ids, parse_weight_table

from test_ivim import one_zone_message
from test_survey import RATINGS_HEADER, RESPONDENTS_HEADER, WEIGHTS_HEADER

META = {"corridor_id": "c", "length_km": 0.1, "segment_length_m": 100.0}
ASCII_PADS = [" ", "\t", " \t "]
OTHER_PADS = ["\xa0", "\u2003", "\u3000"]  # a no-break space, an em space and an ideographic space
ASD = AutomationLevelGroup.ASD


def corridor_text(meta_line: str = "# " + json.dumps(META), header: str = "segment_index,attribute,value",
                  index: str = "0", attribute=lambda attr: attr) -> str:
    """A one-segment corridor CSV, its rows in reverse registry order, so that the csv loop reads it."""
    rows = [f"{index},{attribute(attr)},2" for attr in reversed(attribute_ids())]
    return "\n".join([meta_line, header, *rows]) + "\n"


def load_text(tmp_path, text: str):
    path = tmp_path / "c.csv"
    path.write_text(text)
    return load_corridor(path)


def survey_files(tmp_path, respondent: str, rating: str):
    respondents, ratings = tmp_path / "respondents.csv", tmp_path / "ratings.csv"
    respondents.write_text(f"{RESPONDENTS_HEADER}\n{respondent}\n")
    ratings.write_text(f"{RATINGS_HEADER}\n{rating}\n")
    return ratings, respondents


def padded_field(text: str, key: str, pad: str, *, value: str | None = None) -> str:
    """``text`` with the canonical-text field ``key`` padded by ``pad`` on each side of its key and its value."""
    lines = text.split("\n")
    at = next(i for i, line in enumerate(lines) if line.startswith(key + ":"))
    given = lines[at].partition(": ")[2] if value is None else value
    lines[at] = f"{pad}{key}{pad}: {pad}{given}{pad}"
    return "\n".join(lines)


class TestAsciiBlanksAroundAField:
    """At every site, a field padded with ASCII spaces or tabs reads as the field."""

    @pytest.mark.parametrize("pad", ASCII_PADS)
    def test_corridor_csv(self, tmp_path, pad):
        written = load_text(tmp_path, corridor_text())
        meta_line = f"{pad}#{pad}{json.dumps(META)}{pad}"
        header = ",".join(f"{pad}{name}{pad}" for name in ("segment_index", "attribute", "value"))
        text = corridor_text(meta_line, header, f"{pad}0{pad}", lambda attr: f"{pad}{attr}{pad}")
        text = text.replace("\n", f"\n{pad}# a comment\n", 1) + f"{pad}# a last comment\n"
        assert load_text(tmp_path, text) == written

    @pytest.mark.parametrize("pad", ASCII_PADS)
    def test_weight_table(self, pad):
        header = ",".join(f"{pad}{name}{pad}" for name in WEIGHTS_HEADER.split(","))
        table = parse_weight_table(f"{pad}# a comment\n{header}\n{pad}lighting{pad},{pad}1{pad},0.5{pad}\n")
        assert dict(table.weights) == {(ASD, "lighting"): 1.0, (AutomationLevelGroup.AUD, "lighting"): 0.5}

    @pytest.mark.parametrize("pad", ASCII_PADS)
    def test_survey_files(self, tmp_path, pad):
        respondent = f"{pad}r1{pad},{pad}Professor{pad},{pad}Europe{pad},5,4,{pad}1{pad},{pad},{pad}2{pad}"
        rating = f"{pad}r1{pad},{pad}hd-maps{pad},{pad}AUD{pad},{pad}2{pad}"
        (loaded,) = load_survey(*survey_files(tmp_path, respondent, rating))
        assert (loaded.respondent_id, loaded.role, loaded.region.value) == ("r1", "Professor", "europe")
        assert loaded.cits_day_ratings == {DayService.DAY1: 1, DayService.DAY3: 2}
        assert loaded.attribute_ratings == {("hd-maps", AutomationLevelGroup.AUD): 2}

    @pytest.mark.parametrize("pad", ASCII_PADS)
    def test_canonical_text(self, pad):
        message = one_zone_message()
        text = to_canonical_text(message)
        for line in text.split("\n")[:-1]:
            text = padded_field(text, line.partition(":")[0], pad)
        assert from_canonical_text(f"{pad}\n{pad}# a comment\n{text}{pad}\n") == message

    @pytest.mark.parametrize(
        "field, padded, where",
        [
            ("station_id: 1001", "station_id:    x", "line 3, column 16: station_id must be an integer, got 'x'"),
            ("station_id: 1001", "station_id:\tx", "line 3, column 13: station_id must be an integer, got 'x'"),
            # a fault the message checks find once the field is read
            ("zone.0.end_m: 24000", "zone.0.end_m:\t  0", "line 10, column 17: zone 0: start_m 0 >= end_m 0"),
        ],
        ids=["four-spaces", "tab", "tab-and-spaces"],
    )
    def test_canonical_text_fault_at_the_values_first_character(self, field, padded, where):
        text = to_canonical_text(one_zone_message())
        assert text.count(field + "\n") == 1
        assert str(parse_error(from_canonical_text, text.replace(field + "\n", padded + "\n"))) == where

    @pytest.mark.parametrize("pad", ASCII_PADS)
    def test_degraded_category(self, capsys, pad):
        assert main(["sensitivity", "--degraded", "road-markings-signage=0"]) == 0
        written = capsys.readouterr().out
        assert main(["sensitivity", "--degraded", f"{pad}road-markings-signage{pad}=0"]) == 0
        assert capsys.readouterr().out == written


def parse_error(call, *args, **kwargs) -> ParseError:
    with pytest.raises(ParseError) as raised:
        call(*args, **kwargs)
    return raised.value


def position(error: ParseError) -> tuple:
    return error.source, error.line, error.column


class TestOtherBlanksAroundAField:
    """A field padded with a blank that is not ASCII is refused, with the text and the position of the site's other
    faults; ``str.strip()`` took these blanks off at some sites and not at others."""

    @pytest.mark.parametrize("pad", OTHER_PADS)
    def test_survey_day_cell_respondent_id_and_region(self, tmp_path, pad):
        respondent, rating = "r1,Professor,europe,5,4,,,", "r1,hd-maps,aud,2"
        for file, row, message in (
            ("respondents", f"r1,Professor,europe,5,4,1{pad},,", f"malformed rating {'1' + pad!r}"),
            ("ratings", f"r1{pad},hd-maps,aud,2", f"unknown respondent {'r1' + pad!r}"),
            (
                "respondents", f"r1,Professor,europe{pad},5,4,,,",
                f"unknown region {'europe' + pad!r} (expected europe, usa or other)",
            ),
        ):
            files = survey_files(tmp_path, *((row, rating) if file == "respondents" else (respondent, row)))
            source = str(tmp_path / f"{file}.csv")
            assert str(parse_error(load_survey, *files)) == str(ParseError(message, source=source, line=2))

    @pytest.mark.parametrize("pad", OTHER_PADS)
    def test_weight_table_attribute_and_header(self, pad):
        for text, message in (
            (f"{WEIGHTS_HEADER}\nlighting{pad},1,1\n", f"unknown attribute {'lighting' + pad!r}"),
            (f"attribute{pad},asd_weight,aud_weight\nlighting,1,1\n", f"expected header {WEIGHTS_HEADER!r}"),
        ):
            line = 1 if "header" in message else 2
            error = parse_error(parse_weight_table, text, source="w.csv")
            assert str(error) == str(ParseError(message, source="w.csv", line=line))

    @pytest.mark.parametrize("pad", OTHER_PADS)
    def test_corridor_csv_loop_attribute(self, tmp_path, pad):
        text = corridor_text(attribute=lambda attr: attr + pad if attr == "lighting" else attr)
        line = 3 + list(reversed(attribute_ids())).index("lighting")
        expected = ParseError(f"unknown attribute {'lighting' + pad!r}", source=str(tmp_path / "c.csv"), line=line)
        assert str(parse_error(load_text, tmp_path, text)) == str(expected)

    @pytest.mark.parametrize("pad", OTHER_PADS)
    def test_metadata_line(self, tmp_path, pad):
        reference = parse_error(load_text, tmp_path, corridor_text(f"# {json.dumps(META)} x"))
        error = parse_error(load_text, tmp_path, corridor_text(f"# {json.dumps(META)}{pad}"))
        assert (position(error), str(error)) == (position(reference), str(reference))
        assert str(error).endswith("c.csv:line 1: invalid metadata JSON: Extra data")

    @pytest.mark.parametrize("pad", OTHER_PADS)
    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("station_id", "1001", "station_id must be an integer, got {!r}"),
            ("zone.0.asd_class", "may-be", "unknown readiness class {!r} (expected unlikely, may-be or highly-likely)"),
            ("ivi_status", "new", "unknown ivi_status {!r} (expected new, update or cancellation)"),
        ],
    )
    def test_canonical_text_value(self, pad, key, value, message):
        text = to_canonical_text(one_zone_message())
        reference = parse_error(from_canonical_text, padded_field(text, key, "", value="+0_1"))
        error = parse_error(from_canonical_text, padded_field(text, key, "", value=value + pad))
        assert position(error) == position(reference)
        assert str(error) == str(ParseError(message.format(value + pad), line=error.line, column=error.column))

    @pytest.mark.parametrize("pad", OTHER_PADS)
    def test_canonical_text_blank_line_and_key(self, pad):
        text = to_canonical_text(one_zone_message())
        error = parse_error(from_canonical_text, f"{pad}\n{text}")
        assert str(error) == "line 1, column 1: expected 'key: value'"
        error = parse_error(from_canonical_text, text.replace("station_id:", f"station_id{pad}:"))
        assert str(error) == f"line 3, column 1: expected field 'station_id', found {'station_id' + pad!r}"

    @pytest.mark.parametrize("pad", OTHER_PADS)
    def test_degraded_category(self, capsys, pad):
        assert main(["sensitivity", "--degraded", f"road-markings-signage{pad}=0"]) == 2
        assert capsys.readouterr().err == f"error: unknown degradable category {'road-markings-signage' + pad!r}\n"
        assert main(["sensitivity", "--degraded", "Road-Markings-Signage=0"]) == 2  # category names keep their case


class TestAdequacyWording:
    """Every 0-2 check refuses a value off the scale with one wording."""

    def test_each_site_refuses_3(self):
        scenario = SensitivityScenario.DEGRADED_NO_HD
        checks = [
            (lambda: SegmentObservation(0, 0.0, 100.0, {"lighting": 3}), "segment 0: adequacy for 'lighting'"),
            (lambda: OverlayOp("set", "lighting", 3), "overlay value"),
            (
                lambda: SensitivityConfig(scenario, {MacroCategory.ROAD_MARKINGS_SIGNAGE: 3}),
                "degraded level for road-markings-signage",
            ),
            (
                lambda: SurveyResponse("r1", "Professor", Region.OTHER, 3, 3, {("lighting", ASD): 3}),
                "rating for ('lighting', <AutomationLevelGroup.ASD: 'asd'>)",
            ),
            (
                lambda: SurveyResponse("r1", "Professor", Region.OTHER, 3, 3, {}, {DayService.DAY1: 3}),
                "rating for day1",
            ),
        ]
        for build, what in checks:
            with pytest.raises(ValueError) as raised:
                build()
            assert str(raised.value) == f"{what} must be 0, 1 or 2, got 3"

    def test_csv_cells_refuse_3(self, tmp_path):
        files = survey_files(tmp_path, "r1,Professor,europe,5,4,3,,", "r1,hd-maps,aud,2")
        assert str(parse_error(load_survey, *files)).endswith("respondents.csv:line 2: rating must be 0, 1 or 2, got 3")
        files = survey_files(tmp_path, "r1,Professor,europe,5,4,,,", "r1,hd-maps,aud,3")
        assert str(parse_error(load_survey, *files)).endswith("ratings.csv:line 2: rating must be 0, 1 or 2, got 3")
        text = corridor_text().replace(",lighting,2", ",lighting,3")
        assert str(parse_error(load_text, tmp_path, text)).endswith(": adequacy value must be 0, 1 or 2, got 3")


class TestNameReader:
    """The four enumerated names are read by one reader: ASCII blanks and ASCII case are ignored, a non-string is a
    TypeError and other text a ValueError that lists the names."""

    ENUMS = [
        (AutomationLevelGroup, "automation-level group", " ASD\t", AutomationLevelGroup.ASD, "asd or aud"),
        (ReadinessClass, "readiness class", "May-Be ", ReadinessClass.MAY_BE, "unlikely, may-be or highly-likely"),
        (Region, "region", "\tUSA", Region.USA, "europe, usa or other"),
        (IviStatus, "ivi_status", " Cancellation", IviStatus.CANCELLATION, "new, update or cancellation"),
    ]

    @pytest.mark.parametrize("enum, what, text, member, names", ENUMS, ids=[what for _, what, *_ in ENUMS])
    def test_reads_any_case_and_names_the_expected(self, enum, what, text, member, names):
        assert enum.parse(text) is member
        assert [enum.parse(name.upper()) for name in names.replace(" or ", ", ").split(", ")] == list(enum)
        with pytest.raises(TypeError, match=f"^{what} must be a string, got 5$"):
            enum.parse(5)
        for other in ("x", "", member.name.lower() + "\xa0", "UNLI\u212aELY"):  # a Kelvin sign lowers to 'k'
            with pytest.raises(ValueError) as raised:
                enum.parse(other)
            assert str(raised.value) == f"unknown {what} {other!r} (expected {names})"


class TestPort:
    """A --target or --bind port is ASCII digits: the digits of other scripts are refused."""

    @pytest.mark.parametrize("option", ["--target", "--bind"])
    @pytest.mark.parametrize("port", ["\u0668\u0660", "-1", " 80", "+80", ""])
    def test_refused(self, tmp_path, capsys, option, port):
        message = tmp_path / "m.ivim"
        message.write_bytes(encode(one_zone_message()))
        argv = ["simulate-rsu", "--message", str(message), "--count", "1", "--dry-run", option, f"127.0.0.1:{port}"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: expected host:port, got '127.0.0.1:{port}'\n"

    def test_read(self):
        assert _parse_hostport("127.0.0.1:0080") == ("127.0.0.1", 80)
        with pytest.raises(ValidationError, match="^port 65536 in '::1:65536' is above 65535$"):
            _parse_hostport("::1:65536")
