from __future__ import annotations

import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import hri
from hri.cli import main
from hri.corridor import CorridorProfile, SegmentObservation, dump_corridor, load_corridor, load_overlay, load_rubric
from hri.errors import ParseError, ValidationError
from hri.fixtures import (
    SURVEY20_RATINGS_FILE,
    SURVEY20_RESPONDENTS_FILE,
    fixture_path,
    BASELINE_CORRIDOR_FILE,
    MAINTENANCE_OVERLAY_FILE,
    RUBRIC_EXAMPLE_FILE,
    ROADWORKS_OVERLAY_FILE,
)
from hri.ivim import IviStatus, decode, encode, to_canonical_text
from hri.scoring import load_score_profile_json
from hri.taxonomy import AutomationLevelGroup, attribute_ids, builtin_weight_table, parse_weight_table

from test_imports import CLI_MODULES, loaded_after
from test_ivim import one_zone_message
from test_survey import WEIGHTS_HEADER

CORRIDOR = fixture_path(BASELINE_CORRIDOR_FILE)
BOM = "\ufeff".encode()  # the UTF-8 byte order mark some editors write at the start of a file
ROADWORKS = fixture_path(ROADWORKS_OVERLAY_FILE)
MAINTENANCE = fixture_path(MAINTENANCE_OVERLAY_FILE)


def run(*argv: object) -> int:
    return main([str(a) for a in argv])


def edited(text: str, old: str, new: str) -> str:
    """``text`` with its one ``old`` replaced by ``new``."""
    assert text.count(old) == 1
    return text.replace(old, new)


WALK_OVERLAYS = ("--overlay", ROADWORKS, "--overlay", MAINTENANCE)
WALK_BUILD = ("--station-id", 1001, "--timestamp", 1700000000000)


def readme_walk(directory: Path) -> tuple[Path, Path, Path]:
    """The README walk on the bundled fixture with both overlays, run in ``directory``: its CSV and JSON profiles and
    its message text."""
    scores_csv, scores_json, text = directory / "scores.csv", directory / "scores.json", directory / "msg.ivim.txt"
    assert run("score", CORRIDOR, *WALK_OVERLAYS, "--out-csv", scores_csv, "--out-json", scores_json, "--pretty") == 0
    assert run("ivim", "build", scores_json, *WALK_BUILD, "--out", text) == 0
    return scores_csv, scores_json, text


class TestScoreCommand:
    def test_writes_profiles(self, tmp_path, capsys):
        out_csv = tmp_path / "p.csv"
        out_json = tmp_path / "p.json"
        assert run("score", CORRIDOR, "--out-csv", out_csv, "--out-json", out_json) == 0
        rows = out_csv.read_text().strip().split("\n")
        assert len(rows) == 1 + 240  # header + one row per segment
        doc = json.loads(out_json.read_text())
        assert len(doc["segments"]) == 240
        assert doc["weight_provenance"] == "builtin-fig2"

    def test_overlay_changes_only_its_rows(self, tmp_path):
        base_csv = tmp_path / "base.csv"
        rw_csv = tmp_path / "rw.csv"
        assert run("score", CORRIDOR, "--out-csv", base_csv, "--out-json", tmp_path / "b.json") == 0
        assert (
            run(
                "score", CORRIDOR, "--overlay", ROADWORKS,
                "--out-csv", rw_csv, "--out-json", tmp_path / "r.json",
            )
            == 0
        )
        base_rows = base_csv.read_text().strip().split("\n")[1:]
        rw_rows = rw_csv.read_text().strip().split("\n")[1:]
        differing = [i for i, (b, r) in enumerate(zip(base_rows, rw_rows)) if b != r]
        assert differing == list(range(110, 170))

    def test_every_overlay_is_read_before_any_is_applied(self, tmp_path, capsys):
        far = tmp_path / "far.json"
        far.write_text(json.dumps(dict(json.loads(ROADWORKS.read_text()), to_km=30.0)))
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        args = ("--out-csv", out_csv, "--out-json", out_json)
        assert run("score", CORRIDOR, "--overlay", ROADWORKS, "--overlay", MAINTENANCE, "--overlay", far, *args) == 2
        assert capsys.readouterr().err == (
            "error: overlay 'roadworks-km11-17' range [11.0, 30.0) km outside corridor [0, 24.0) km\n"
        )
        # the unreadable overlay after it is reported first, as an input error
        assert run("score", CORRIDOR, "--overlay", far, "--overlay", bad, *args) == 1
        assert capsys.readouterr().err.startswith(f"error: {bad}:")
        assert not out_csv.exists() and not out_json.exists()

    def test_missing_input_exits_3_without_outputs(self, tmp_path):
        out_csv = tmp_path / "p.csv"
        code = run("score", tmp_path / "absent.csv", "--out-csv", out_csv, "--out-json", tmp_path / "p.json")
        assert code == 3
        assert not out_csv.exists()

    def test_invalid_content_exits_1_without_outputs(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            '# {"corridor_id": "x", "length_km": 0.1, "segment_length_m": 100.0}\n'
            "segment_index,attribute,value\n0,hd-maps,3\n"
        )
        out_csv = tmp_path / "p.csv"
        assert run("score", bad, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 1
        assert not out_csv.exists()

    def test_oversized_csv_field_exits_1_without_outputs(self, tmp_path, capsys):
        corridor_csv = tmp_path / "c.csv"
        corridor_csv.write_text(CORRIDOR.read_text() + "0,hd-maps," + "2" * 200_000 + "\n")
        out_csv = tmp_path / "p.csv"
        assert run("score", corridor_csv, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 1
        assert capsys.readouterr().err.startswith(f"error: {corridor_csv}:line ")
        assert not out_csv.exists()

    def test_pretty_summary_of_an_empty_corridor(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            '# {"corridor_id": "stub", "length_km": 0, "segment_length_m": 100.0}\n'
            "segment_index,attribute,value\n"
        )
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        assert run("score", empty, "--pretty", "--out-csv", out_csv, "--out-json", out_json) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "corridor stub: 0.0 km",
            "  asd: no segments",
            "  aud: no segments",
            "  segments with no recommendation: 0",
        ]
        assert json.loads(out_json.read_text())["segments"] == []
        assert out_csv.read_text().count("\n") == 1

    def test_pretty_summary_of_the_fixture(self, tmp_path, capsys):
        args = ("--out-csv", tmp_path / "p.csv", "--out-json", tmp_path / "p.json")
        assert run("score", CORRIDOR, "--overlay", ROADWORKS, "--pretty", *args) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [
            "corridor D08-synthetic: 24.0 km",
            "  asd: min 46.10  max 86.23  mean 74.23",
            "  aud: min 47.29  max 84.58  mean 73.67",
            "  segments with no recommendation: 60",
        ]

    def test_sub_metre_segments_exit_2_without_outputs(self, tmp_path, capsys):
        corridor_csv = tmp_path / "c.csv"
        corridor_csv.write_text(
            '# {"corridor_id": "x", "length_km": 0.0004, "segment_length_m": 0.4}\n'
            "segment_index,attribute,value\n"
        )
        out_csv = tmp_path / "p.csv"
        assert run("score", corridor_csv, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 2
        assert capsys.readouterr().err == f"error: {corridor_csv}:line 1: segment_length_m must be at least 1 m, got 0.4\n"
        assert not out_csv.exists()

    def test_bad_threshold_exits_2(self, tmp_path):
        assert run("score", CORRIDOR, "--threshold", "0", "--out-csv", tmp_path / "a", "--out-json", tmp_path / "b") == 2

    def test_deterministic_outputs(self, tmp_path):
        for name in ("one", "two"):
            assert (
                run(
                    "score", CORRIDOR, "--overlay", MAINTENANCE,
                    "--out-csv", tmp_path / f"{name}.csv", "--out-json", tmp_path / f"{name}.json",
                )
                == 0
            )
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "two.json").read_bytes()

    def test_metadata_fallback_flags(self, tmp_path):
        from hri.taxonomy import attribute_ids

        rows = ["segment_index,attribute,value"]
        rows.extend(f"0,{attr},2" for attr in attribute_ids())
        bare = tmp_path / "bare.csv"
        bare.write_text("\n".join(rows) + "\n")
        out_json = tmp_path / "p.json"
        assert (
            run(
                "score", bare, "--corridor-id", "spur", "--length-km", 0.1,
                "--segment-length", 100, "--out-csv", tmp_path / "p.csv", "--out-json", out_json,
            )
            == 0
        )
        assert json.loads(out_json.read_text())["corridor_id"] == "spur"

    def test_metadata_flags_outside_the_header_rule_exit_2_without_outputs(self, tmp_path, capsys):
        bare = tmp_path / "bare.csv"
        bare.write_text("segment_index,attribute,value\n")
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        argv = ("score", bare, "--corridor-id", "x", "--length-km", "inf", "--out-csv", out_csv, "--out-json", out_json)
        assert run(*argv) == 2  # was a ParseError, exit 1
        assert capsys.readouterr().err == "error: <meta>: length_km must be at least 0 and finite in metres, got inf\n"
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize("flag", [("--corridor-id", "x"), ("--length-km", 0.1)], ids=["corridor-id", "length-km"])
    @pytest.mark.parametrize("corridor", ["bare", "fixture"])
    def test_lone_metadata_flag_exits_2_without_outputs(self, tmp_path, capsys, flag, corridor):
        # either flag was dropped: a bare file was refused for its missing metadata, the fixture read its own
        bare = tmp_path / "bare.csv"
        bare.write_text("segment_index,attribute,value\n")
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        argv = ("score", bare if corridor == "bare" else CORRIDOR, *flag, "--out-csv", out_csv, "--out-json", out_json)
        capsys.readouterr()
        assert run(*argv) == 2
        assert capsys.readouterr() == ("", "error: --corridor-id and --length-km must be given together\n")
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize(
        "corridor, given, code, outcome",
        [
            ("line", (), 0, "D08-synthetic"),
            ("line", ("--corridor-id", "D08-synthetic", "--length-km", 24), 0, "D08-synthetic"),
            ("line", ("--corridor-id", "other", "--length-km", 1), 2, "{line} has corridor_id 'D08-synthetic', <meta> "
             "has 'other'"),
            ("line", ("--corridor-id", "D08-synthetic", "--length-km", 24, "--segment-length", 50), 2,
             "{line} has segment_length_m 100.0, <meta> has 50.0"),
            ("line", ("--meta", "same.json"), 0, "D08-synthetic"),
            ("line", ("--meta", "side.json"), 2, "{line} has corridor_id 'D08-synthetic', {side} has 'side'"),
            ("line", ("--meta", "same.json", "--corridor-id", "D08-synthetic", "--length-km", 24), 2, "flags"),
            ("bare", ("--meta", "side.json", "--corridor-id", "side", "--length-km", 24), 2, "flags"),
            ("bare", ("--corridor-id", "spur", "--length-km", 24), 0, "spur"),
            ("bare", ("--meta", "side.json"), 0, "side"),
        ],
        ids=[
            "line", "line+flags", "line+other-flags", "line+other-segment-length", "line+meta", "line+other-meta",
            "line+meta+flags", "bare+meta+flags", "bare+flags", "bare+meta",
        ],
    )
    def test_metadata_from_one_place(self, tmp_path, capsys, corridor, given, code, outcome):
        # a sidecar or flags beside a metadata line were dropped without a word, and --meta beat the flags
        line, body = CORRIDOR.read_text().split("\n", 1)
        bare = tmp_path / "bare.csv"
        bare.write_text(body)
        side = tmp_path / "side.json"
        side.write_text(json.dumps({"corridor_id": "side", "length_km": 24, "segment_length_m": 100}))
        (tmp_path / "same.json").write_text(line.lstrip("# "))
        given = [tmp_path / arg if str(arg).endswith(".json") else arg for arg in given]
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        capsys.readouterr()
        argv = ("score", CORRIDOR if corridor == "line" else bare, *given, "--out-csv", out_csv, "--out-json", out_json)
        assert run(*argv) == code
        if code == 0:
            assert json.loads(out_json.read_text())["corridor_id"] == outcome
            return
        if outcome == "flags":
            problem = "--meta and --corridor-id/--length-km must not be given together"
        else:
            problem = "corridor metadata given twice: " + outcome.format(line=f"{CORRIDOR}:line 1", side=side)
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize(
        "asd_weight, code, problem",
        [
            ("nan", 1, "weight for 'lighting' is not finite"),
            ("inf", 1, "weight for 'lighting' is not finite"),
            ("-inf", 1, "weight for 'lighting' is not finite"),
            ("1e400", 1, "weight for 'lighting' is not finite"),
            # finite, but twice the group's weight sum overflows
            ("1e308", 2, "weight sum for group asd times 2 is not finite"),
        ],
    )
    def test_weights_that_are_not_finite_exit_without_outputs(self, tmp_path, capsys, asd_weight, code, problem):
        from hri.taxonomy import dump_weight_table

        lines = dump_weight_table(builtin_weight_table()).split("\n")
        line = next(number for number, text in enumerate(lines, start=1) if text.startswith("lighting,"))
        lines[line - 1] = f"lighting,{asd_weight},0.95"
        weights = tmp_path / "w.csv"
        weights.write_text("\n".join(lines))
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        argv = ["score", CORRIDOR, "--weights", weights, "--out-csv", out_csv, "--out-json", out_json, "--pretty"]
        assert run(*argv) == code
        err = capsys.readouterr().err
        where = f"{weights}:line {line}: " if code == 1 else ""
        assert err == f"error: {where}{problem}\n"
        assert not out_csv.exists() and not out_json.exists()

    @pytest.mark.parametrize(
        "edit, problem",
        [
            ("drop", "no weight for (asd, lighting)"),
            ("negative", "weight -0.5 for (asd, lighting) is negative"),
        ],
    )
    def test_weights_that_fail_the_table_rules_exit_2_without_outputs(self, tmp_path, capsys, edit, problem):
        from hri.taxonomy import dump_weight_table

        lines = [
            line if not line.startswith("lighting,") else "" if edit == "drop" else "lighting,-0.5,0.95"
            for line in dump_weight_table(builtin_weight_table()).split("\n")
        ]
        weights = tmp_path / "w.csv"
        weights.write_text("\n".join(lines))
        out_csv, out_json = tmp_path / "p.csv", tmp_path / "p.json"
        assert run("score", CORRIDOR, "--weights", weights, "--out-csv", out_csv, "--out-json", out_json) == 2
        assert capsys.readouterr().err == f"error: weight table {weights}: {problem}\n"
        assert not out_csv.exists() and not out_json.exists()

    def test_custom_weights_via_env(self, tmp_path, monkeypatch):
        from hri.taxonomy import dump_weight_table

        weights_path = tmp_path / "weights.csv"
        weights_path.write_text(dump_weight_table(builtin_weight_table()))
        monkeypatch.setenv("HRI_WEIGHTS", str(weights_path))
        out_json = tmp_path / "p.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", out_json) == 0
        assert json.loads(out_json.read_text())["weight_provenance"] == "custom"


class TestSurveyCommand:
    def test_reproduces_builtin_weights_from_20_respondents(self, tmp_path):
        out_weights = tmp_path / "weights.csv"
        assert (
            run(
                "survey",
                fixture_path(SURVEY20_RATINGS_FILE),
                fixture_path(SURVEY20_RESPONDENTS_FILE),
                "--out-weights", out_weights,
                "--out-diff", tmp_path / "diff.csv",
                "--out-days", tmp_path / "days.csv",
            )
            == 0
        )
        table = parse_weight_table(out_weights.read_text())
        assert dict(table.weights) == dict(builtin_weight_table().weights)

    def test_day_means_from_17_respondents(self, tmp_path):
        from hri.fixtures import SURVEY17_RATINGS_FILE, SURVEY17_RESPONDENTS_FILE

        assert (
            run(
                "survey",
                fixture_path(SURVEY17_RATINGS_FILE),
                fixture_path(SURVEY17_RESPONDENTS_FILE),
                "--out-weights", tmp_path / "w.csv",
                "--out-diff", tmp_path / "diff.csv",
                "--out-days", tmp_path / "days.csv",
            )
            == 0
        )
        days = (tmp_path / "days.csv").read_text()
        assert "europe,day3,1.70" in days
        assert "usa,day3,0.33" in days

    def test_weight_table_from_17_respondents_is_read_back_by_score(self, tmp_path):
        from hri.fixtures import SURVEY17_RATINGS_FILE, SURVEY17_RESPONDENTS_FILE

        weights = tmp_path / "survey17.weights.csv"
        argv = [
            "survey", fixture_path(SURVEY17_RATINGS_FILE), fixture_path(SURVEY17_RESPONDENTS_FILE),
            "--out-weights", weights, "--out-diff", tmp_path / "diff.csv", "--out-days", tmp_path / "days.csv",
        ]
        assert run(*argv) == 0
        out_json = tmp_path / "p.json"
        outputs = ["--out-csv", tmp_path / "p.csv", "--out-json", out_json]
        assert run("score", CORRIDOR, "--weights", weights, *outputs, "--pretty") == 0
        assert json.loads(out_json.read_text())["weight_provenance"] == "custom"

    def test_single_all_two_respondent(self, tmp_path):
        from hri.taxonomy import attribute_ids

        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,europe,5,5,2,2,2\n"
        )
        lines = ["respondent_id,attribute,group,rating"]
        for attr in attribute_ids():
            lines.append(f"r1,{attr},asd,2")
            lines.append(f"r1,{attr},aud,2")
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("\n".join(lines) + "\n")
        out_weights = tmp_path / "weights.csv"
        assert (
            run(
                "survey", ratings, respondents,
                "--out-weights", out_weights,
                "--out-diff", tmp_path / "d.csv",
                "--out-days", tmp_path / "days.csv",
            )
            == 0
        )
        table = parse_weight_table(out_weights.read_text())
        assert all(w == 2.0 for w in table.weights.values())

    def test_pretty_prints_each_attribute(self, tmp_path, capsys):
        argv = [
            "survey", fixture_path(SURVEY20_RATINGS_FILE), fixture_path(SURVEY20_RESPONDENTS_FILE),
            "--out-weights", tmp_path / "w.csv", "--out-diff", tmp_path / "d.csv", "--out-days", tmp_path / "y.csv",
        ]
        assert run(*argv) == 0
        plain = capsys.readouterr().out
        assert run(*argv, "--pretty") == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] + "\n" == plain  # the line that names the outputs, then the table
        assert lines[1].split() == ["attribute", "asd", "aud", "diff"]
        table = builtin_weight_table()
        rows = {line.split()[0]: line.split()[1:] for line in lines[2:] if line}
        assert list(rows) == list(table.attribute_ids_present())
        asd, aud = AutomationLevelGroup.ASD, AutomationLevelGroup.AUD
        lighting = [table.lookup(asd, "lighting"), table.lookup(aud, "lighting")]
        assert rows["lighting"] == [f"{w:.2f}" for w in (*lighting, lighting[1] - lighting[0])]

    def test_empty_ratings_exits_1(self, tmp_path):
        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,europe,5,5,2,2,2\n"
        )
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("")
        assert run("survey", ratings, respondents, "--out-weights", tmp_path / "w.csv") == 1
        assert not (tmp_path / "w.csv").exists()


class TestSensitivityCommand:
    def test_emits_six_rows(self, capsys):
        assert run("sensitivity") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "scenario,group,score,readiness_class"
        assert len(lines) == 7
        values = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[2]) for r in lines[1:]}
        assert values[("compliant-no-hd", "aud")] == 66.0
        assert values[("degraded-with-hd", "aud")] > values[("degraded-no-hd", "aud")]
        assert values[("degraded-with-hd", "asd")] > values[("degraded-no-hd", "asd")]

    def test_json_format_file_output(self, tmp_path):
        out = tmp_path / "sens.json"
        assert run("sensitivity", "--format", "json", "--out", out) == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 6
        assert {row["scenario"] for row in rows} == {
            "compliant-no-hd", "degraded-with-hd", "degraded-no-hd",
        }

    def test_category_override(self, capsys):
        assert run("sensitivity", "--degraded", "road-markings-signage=0") == 0
        out = capsys.readouterr().out
        assert "degraded-no-hd" in out

    def test_bad_override_exits_2(self):
        assert run("sensitivity", "--degraded", "weather=1") == 2

    def test_override_level_that_is_not_a_number_exits_2(self, capsys):
        assert run("sensitivity", "--degraded", "road-markings-signage=x") == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: bad degraded level in 'road-markings-signage=x'\n")

    @pytest.mark.parametrize("level", ["+1", "0_1", "١"])
    def test_override_level_int_reads_but_no_writer_gives_exits_2(self, capsys, level):
        override = f"road-markings-signage={level}"
        assert run("sensitivity", "--degraded", override) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: bad degraded level in {override!r}\n")

    def test_override_level_with_blanks_or_a_leading_zero_reads_as_written(self, capsys):
        assert run("sensitivity", "--degraded", "road-markings-signage=1") == 0
        written = capsys.readouterr().out
        for level in (" 1 ", "01"):
            assert run("sensitivity", "--degraded", f"road-markings-signage={level}") == 0
            assert capsys.readouterr().out == written

    def test_pretty_prints_each_row_after_the_table(self, capsys):
        assert run("sensitivity") == 0
        table = capsys.readouterr().out
        assert run("sensitivity", "--pretty") == 0
        out = capsys.readouterr().out
        assert out.startswith(table)
        lines = out[len(table):].strip("\n").split("\n")
        assert lines[0].split() == ["scenario", "group", "score", "class"]
        rows = [row.split(",") for row in table.strip().split("\n")[1:]]
        assert [line.split() for line in lines[1:]] == rows

    @pytest.mark.parametrize(
        "override, message",
        [
            ("road-markings-signage=3", "degraded level for road-markings-signage must be 0, 1 or 2, got 3"),
            ("preloaded-hd-maps=1", "degraded level given for non-physical category 'preloaded-hd-maps'"),
        ],
    )
    def test_override_rejected_by_config_exits_2(self, override, message, capsys):
        assert run("sensitivity", "--degraded", override) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestIvimCommands:
    def build_profile(self, tmp_path) -> Path:
        out_json = tmp_path / "profile.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", out_json) == 0
        return out_json

    def test_build_encode_decode_round_trip(self, tmp_path, capsys):
        profile = self.build_profile(tmp_path)
        text_path = tmp_path / "msg.ivim.txt"
        assert (
            run(
                "ivim", "build", profile,
                "--station-id", 1001, "--timestamp", 1700000000000, "--out", text_path,
            )
            == 0
        )
        text = text_path.read_text()
        assert "zone_count: 1" in text
        assert "zone.0.allowed_sae_levels: 1,2,3,4" in text

        bin_path = tmp_path / "msg.ivim"
        assert run("ivim", "encode", text_path, "--out", bin_path) == 0
        capsys.readouterr()
        assert run("ivim", "decode", bin_path) == 0
        decoded_text = capsys.readouterr().out
        assert decoded_text == text

    def test_corridor_with_a_tail_under_half_a_metre_builds_a_message(self, tmp_path, capsys):
        # 200.4 m at 100 m: a third segment of 0.4 m, in another class than the second, whose zone
        # would end where it starts if its end were only rounded
        segments = [SegmentObservation(i, i * 100.0, 100.0, dict.fromkeys(attribute_ids(), 2 - i)) for i in range(3)]
        corridor_csv, profile = tmp_path / "tail.csv", tmp_path / "tail.json"
        corridor_csv.write_text(dump_corridor(CorridorProfile("tail", 0.2004, 100.0, segments)))
        assert run("score", corridor_csv, "--out-csv", tmp_path / "tail.scores.csv", "--out-json", profile) == 0
        text_path, bin_path = tmp_path / "tail.ivim.txt", tmp_path / "tail.ivim"
        assert run("ivim", "build", profile, "--station-id", 1, "--timestamp", 1, "--out", text_path) == 0
        assert run("ivim", "encode", text_path, "--out", bin_path) == 0
        capsys.readouterr()
        assert run("ivim", "decode", bin_path) == 0
        assert capsys.readouterr().out == text_path.read_text()
        zones = decode(bin_path.read_bytes()).av.zones
        assert [(zone.start_m, zone.end_m) for zone in zones] == [(0, 100), (100, 200), (200, 201)]

    def test_build_with_reference_point(self, tmp_path):
        profile = self.build_profile(tmp_path)
        text_path = tmp_path / "msg.ivim.txt"
        assert (
            run(
                "ivim", "build", profile,
                "--station-id", 7, "--timestamp", 1, "--ref-lat", 45.607, "--ref-lon", 8.7,
                "--out", text_path,
            )
            == 0
        )
        assert "latitude_e7: 456070000" in text_path.read_text()

    def test_inspect_summarizes(self, tmp_path, capsys):
        bin_path = tmp_path / "m.ivim"
        bin_path.write_bytes(encode(one_zone_message()))
        assert run("ivim", "inspect", bin_path) == 0
        out = capsys.readouterr().out
        assert "station 1001" in out
        assert "1 zone(s)" in out

    def test_decode_truncated_reports_offset(self, tmp_path, capsys):
        bad = tmp_path / "m.ivim"
        bad.write_bytes(encode(one_zone_message())[:20])
        assert run("ivim", "decode", bad) == 1
        assert "offset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("asd_class", None),
            ("asd_class", 3),
            ("aud_class", ["x"]),
            ("segment_index", float("inf")),
            ("segment_index", 2.7),
            ("allowed_sae_levels", [1.9, 2.2]),
        ],
    )
    def test_build_rejects_malformed_profile_exits_1(self, tmp_path, capsys, field, value):
        profile = self.build_profile(tmp_path)
        doc = json.loads(profile.read_text())
        doc["segments"][5][field] = value
        # json.dumps writes inf as "Infinity"; the profile under test says 1e400, which json reads as inf
        profile.write_text(json.dumps(doc).replace("Infinity", "1e400"))
        with pytest.raises(ParseError, match="bad score profile: "):
            load_score_profile_json(profile)
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        assert run("ivim", "build", profile, "--station-id", 1, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profile}:") and "bad score profile: " in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "lat, lon", [("nan", "0"), ("inf", "0"), ("0", "-inf"), ("1e305", "0")]
    )
    def test_build_refuses_reference_point_that_is_not_finite_exits_2(self, tmp_path, capsys, lat, lon):
        profile = self.build_profile(tmp_path)
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        argv = ["ivim", "build", profile, "--station-id", 1, f"--ref-lat={lat}", f"--ref-lon={lon}", "--out", out]
        assert run(*argv) == 2
        option, degrees = ("--ref-lat", lat) if lat != "0" else ("--ref-lon", lon)
        err = capsys.readouterr().err
        assert err == f"error: {option} must be finite in 1e-7 degrees, got {float(degrees)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("given", ["--ref-lat", "--ref-lon"])
    def test_build_with_half_a_reference_point_exits_2(self, tmp_path, capsys, given):
        profile = self.build_profile(tmp_path)
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        assert run("ivim", "build", profile, "--station-id", 1, given, 45.0, "--out", out) == 2
        assert capsys.readouterr().err == "error: --ref-lat and --ref-lon must be given together\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["m.ivim.txt", "m.txt"])
    def test_encode_without_out_writes_beside_the_input(self, tmp_path, capsys, name):
        text_in = tmp_path / name
        text_in.write_text(to_canonical_text(one_zone_message()))
        assert run("ivim", "encode", text_in) == 0
        payload = encode(one_zone_message())
        assert capsys.readouterr().out == f"wrote {tmp_path / 'm.ivim'} ({len(payload)} bytes)\n"
        assert (tmp_path / "m.ivim").read_bytes() == payload

    def test_decode_out_writes_the_text(self, tmp_path, capsys):
        bin_in, out = tmp_path / "m.ivim", tmp_path / "back.txt"
        bin_in.write_bytes(encode(one_zone_message()))
        assert run("ivim", "decode", bin_in, "--out", out) == 0
        assert capsys.readouterr().out == f"wrote {out}\n"
        assert out.read_text() == to_canonical_text(one_zone_message())

    def test_build_error_names_the_profile_once(self, tmp_path, capsys):
        profile = self.build_profile(tmp_path)
        doc = json.loads(profile.read_text())
        del doc["segments"][3]["start_m"]
        profile.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("ivim", "build", profile, "--station-id", 1, "--out", tmp_path / "m.ivim.txt") == 1
        assert capsys.readouterr().err == f"error: {profile}: bad score profile: missing field 'start_m'\n"

    def test_build_rejects_class_that_disagrees_with_score_exits_2(self, tmp_path, capsys):
        profile = self.build_profile(tmp_path)
        doc = json.loads(profile.read_text())
        assert doc["segments"][7]["aud_class"] == "highly-likely"
        doc["segments"][7]["aud_class"] = "may-be"
        profile.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ValidationError, match="segment 7: aud_class 'may-be' does not match aud_score"):
            load_score_profile_json(profile)
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        assert run("ivim", "build", profile, "--station-id", 1, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {profile}: segment 7: aud_class 'may-be'") and "(highly-likely)" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda segs: segs.__setitem__(4, dict(segs[4], segment_index=5)), "segment 5: segment_index 5 at position 4"),
            (lambda segs: segs.__delitem__(4), "segment 5: segment_index 5 at position 4"),
            (lambda segs: segs.insert(3, segs.pop(4)), "segment 4: segment_index 4 at position 3"),
            (lambda segs: segs[6].update(length_m=100.5), "segment 6: length_m 100.5 != segment_length_m 100.0"),
            (lambda segs: segs[6].update(start_m=600.001), "segment 6: start_m 600.001 != segment_index * segment_length_m (600.0)"),
            (
                lambda segs: segs[7].update(allowed_sae_levels=[]),
                "segment 7: allowed_sae_levels [] do not match the scores at threshold 66.0",
            ),
            (lambda segs: segs[6].update(start_m=math.nan), "segment 6: start_m nan != segment_index * segment_length_m (600.0)"),
        ],
        ids=["gapped", "missing", "unordered", "length", "start", "levels", "nan-start"],
    )
    def test_build_rejects_segment_off_the_grid_exits_2(self, tmp_path, capsys, edit, message):
        profile = self.build_profile(tmp_path)
        doc = json.loads(profile.read_text())
        edit(doc["segments"])
        profile.write_text(json.dumps(doc, indent=2) + "\n")
        with pytest.raises(ValidationError) as raised:
            load_score_profile_json(profile)
        assert str(raised.value) == f"{profile}: {message}"
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        assert run("ivim", "build", profile, "--station-id", 1, "--out", out) == 2
        assert capsys.readouterr().err == f"error: {profile}: {message}\n"
        assert not out.exists()

    def test_build_refuses_level_sets_that_follow_both_rules_exits_2(self, tmp_path, capsys):
        # an all-1 segment scores exactly 50 in both groups: its set is [1, 2, 3, 4] under >= and [] under >
        corridor = tmp_path / "ones.csv"
        segments = [SegmentObservation(i, i * 100.0, 100.0, dict.fromkeys(attribute_ids(), 1)) for i in range(2)]
        corridor.write_text(dump_corridor(CorridorProfile("ones", 0.2, 100.0, segments)))
        profile = tmp_path / "ones.json"
        argv = ["score", corridor, "--threshold", 50, "--out-csv", tmp_path / "ones.scores.csv", "--out-json", profile]
        assert run(*argv) == 0
        doc = json.loads(profile.read_text())
        assert [segment["allowed_sae_levels"] for segment in doc["segments"]] == [[1, 2, 3, 4]] * 2
        doc["segments"][1]["allowed_sae_levels"] = []
        profile.write_text(json.dumps(doc, indent=2) + "\n")
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        assert run("ivim", "build", profile, "--station-id", 1, "--out", out) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            f"error: {profile}: segment 1: allowed_sae_levels [] follow score > threshold 50.0, "
            "but segment 0's follow score >= threshold\n"
        )
        assert not out.exists()

    def test_build_refuses_length_past_the_header_rule_exits_2(self, tmp_path, capsys):
        profile = self.build_profile(tmp_path)
        text = profile.read_text()
        assert '"length_km": 24.0,' in text
        profile.write_text(text.replace('"length_km": 24.0,', '"length_km": 1e400,'))  # json reads 1e400 as inf
        capsys.readouterr()
        out = tmp_path / "m.ivim.txt"
        assert run("ivim", "build", profile, "--station-id", 1, "--out", out) == 2
        message = "length_km must be at least 0 and finite in metres, got inf"
        assert capsys.readouterr().err == f"error: {profile}: {message}\n"
        assert not out.exists()

    def test_build_deterministic_with_timestamp(self, tmp_path):
        profile = self.build_profile(tmp_path)
        paths = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert (
                run("ivim", "build", profile, "--station-id", 1, "--timestamp", 123456, "--out", out)
                == 0
            )
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]


class TestSimulateRsuCommand:
    def test_dry_run_emissions(self, tmp_path, capsys):
        msg_path = tmp_path / "m.ivim"
        msg_path.write_bytes(encode(one_zone_message()))
        assert (
            run(
                "simulate-rsu", "--message", msg_path, "--dry-run",
                "--period", 0.01, "--count", 3, "--timestamp", 1700000000000,
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.strip().split("\n") if l]
        assert len(lines) == 4  # three emissions plus the cancellation
        statuses = [decode(bytes.fromhex(l)).management.ivi_status for l in lines]
        assert statuses == [IviStatus.NEW, IviStatus.UPDATE, IviStatus.UPDATE, IviStatus.CANCELLATION]

    def test_accepts_canonical_text_message(self, tmp_path, capsys):
        from hri.ivim import to_canonical_text

        msg_path = tmp_path / "m.txt"
        msg_path.write_text(to_canonical_text(one_zone_message()))
        assert (
            run(
                "simulate-rsu", "--message", msg_path, "--dry-run",
                "--period", 0.01, "--count", 1, "--timestamp", 5,
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.strip().split("\n") if l]
        assert len(lines) == 2

    def test_builds_from_profile(self, tmp_path, capsys):
        out_json = tmp_path / "profile.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", out_json) == 0
        capsys.readouterr()  # drop the score command's status line
        assert (
            run(
                "simulate-rsu", "--profile", out_json, "--dry-run",
                "--period", 0.01, "--count", 1, "--timestamp", 9, "--station-id", 42,
            )
            == 0
        )
        lines = [l for l in capsys.readouterr().out.strip().split("\n") if l]
        assert decode(bytes.fromhex(lines[0])).header.station_id == 42

    def test_requires_exactly_one_input(self, tmp_path):
        assert run("simulate-rsu", "--dry-run") == 2

    def test_requires_target_or_dry_run(self, tmp_path):
        msg_path = tmp_path / "m.ivim"
        msg_path.write_bytes(encode(one_zone_message()))
        assert run("simulate-rsu", "--message", msg_path) == 2

    @pytest.mark.parametrize(
        "option, problem",
        [
            (["--period", "nan"], "broadcast period must be positive and at most"),
            (["--period", "inf"], "broadcast period must be positive and at most"),
            (["--period", "1e300"], "broadcast period must be positive and at most"),
            (["--period", "0.0004"], "broadcast period must be at least 0.001 s, got 0.0004"),
            (["--target", "127.0.0.1:70000"], "port 70000 in '127.0.0.1:70000' is above 65535"),
            (["--bind", "127.0.0.1:70000"], "port 70000 in '127.0.0.1:70000' is above 65535"),
            (["--target", "127.0.0.1:\u00b2"], "expected host:port, got '127.0.0.1:\u00b2'"),
        ],
        ids=[
            "period-nan", "period-inf", "period-1e300", "period-sub-millisecond",
            "target-port", "bind-port", "target-superscript-two",
        ],
    )
    def test_options_out_of_range_exit_2(self, tmp_path, capsys, option, problem):
        msg_path = tmp_path / "m.ivim"
        msg_path.write_bytes(encode(one_zone_message()))
        assert run("simulate-rsu", "--message", msg_path, "--dry-run", "--count", 2, *option) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {problem}") and "Traceback" not in captured.err
        assert captured.out == ""

    def test_bad_period_exits_2(self, tmp_path):
        msg_path = tmp_path / "m.ivim"
        msg_path.write_bytes(encode(one_zone_message()))
        assert run("simulate-rsu", "--message", msg_path, "--dry-run", "--period", 0) == 2

    def test_sigint_sends_cancellation(self, tmp_path):
        msg_path = tmp_path / "m.ivim"
        msg_path.write_bytes(encode(one_zone_message()))
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "hri.cli", "simulate-rsu",
                "--message", str(msg_path), "--dry-run",
                "--period", "0.2", "--timestamp", "1700000000000",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            lines = [proc.stdout.readline().strip() for _ in range(2)]
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=15)
        except Exception:
            proc.kill()
            raise
        remaining = [l for l in out.strip().split("\n") if l]
        all_lines = lines + remaining
        assert proc.returncode == 0
        final = decode(bytes.fromhex(all_lines[-1]))
        assert final.management.ivi_status is IviStatus.CANCELLATION


class TestJsonNumbers:
    """Where a JSON input documents a number, a string or a bool is an input
    error (exit 1): ``float`` and ``int`` would read ``"1.5"`` and ``true``.
    So is a fractional index or level, a NaN score, a class that is not a
    band's name, a segment that is not an object and a level set that is
    not a list."""

    @pytest.mark.parametrize(
        "field, spell, text",
        [
            ("segment_index", str, "segment_index '1' is not a number"),
            ("segment_index", bool, "segment_index True is not a number"),  # true loaded as index 1
            ("segment_index", lambda index: 2.5, "segment_index 2.5 is not an integer"),
            ("asd_score", str, "asd_score '83.11688311688313' is not a number"),
            ("aud_score", str, "aud_score '82.29166666666669' is not a number"),
            ("asd_score", lambda score: math.nan, "readiness score nan outside [0, 100]"),
            ("asd_class", lambda name: 5, "readiness class must be a string, got 5"),
            ("aud_class", lambda name: "x", "unknown readiness class 'x' (expected unlikely, may-be or highly-likely)"),
            ("start_m", str, "start_m '100.0' is not a number"),
            ("length_m", str, "length_m '100.0' is not a number"),
            ("allowed_sae_levels", lambda levels: "".join(map(str, levels)), "allowed_sae_levels '1234' is not a list"),
            ("allowed_sae_levels", lambda levels: [True, *levels[1:]], "SAE level True is not a number"),
            ("allowed_sae_levels", lambda levels: [1.5, *levels[1:]], "SAE level 1.5 is not an integer"),
            ("segments", lambda segments: [segments[0], [1, 2]], "segment 1 is not an object"),
            ("segments", lambda segments: [1, *segments[1:]], "segment 0 is not an object"),
            ("segments", lambda segments: {"x": 1}, "segments must be a list"),  # its keys were read as segments
            ("length_km", str, "length_km '24.0' is not a number"),
            ("segment_length_m", str, "segment_length_m '100.0' is not a number"),
            ("threshold", str, "threshold '66.0' is not a number"),
            # null and other JSON values that are not numbers or lists are named as well
            ("asd_score", lambda score: None, "asd_score None is not a number"),
            ("segment_index", lambda index: None, "segment_index None is not a number"),
            ("start_m", lambda start: [start], "start_m [100.0] is not a number"),
            ("allowed_sae_levels", lambda levels: None, "allowed_sae_levels None is not a list"),
            ("allowed_sae_levels", lambda levels: 1.5, "allowed_sae_levels 1.5 is not a list"),
            ("length_km", lambda length: None, "length_km None is not a number"),
            # read with str: null loaded as the corridor 'None' and [1] as the provenance '[1]'
            ("corridor_id", lambda name: None, "corridor_id None is not a string"),
            ("weight_provenance", lambda name: [1], "weight_provenance [1] is not a string"),
            # json reads an integer literal as an int, which float() refuses past the float range
            ("length_km", lambda length: 10**400, "int too large to convert to float"),
        ],
    )
    def test_score_profile(self, tmp_path, capsys, field, spell, text):
        profile = tmp_path / "p.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", profile) == 0
        doc = json.loads(profile.read_text())
        item = doc if field in doc else doc["segments"][1]
        item[field] = spell(item[field])
        profile.write_text(json.dumps(doc))
        header = field in ("corridor_id", "length_km", "segment_length_m")  # read as the corridor CSV reads them
        message = f"corridor metadata: {text}" if header else f"bad score profile: {text}"
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            load_score_profile_json(profile)
        capsys.readouterr()
        assert run("ivim", "build", profile, "--station-id", 1, "--out", tmp_path / "m.ivim.txt") == 1
        assert capsys.readouterr().err == f"error: {profile}: {message}\n"
        assert not (tmp_path / "m.ivim.txt").exists()

    @pytest.mark.parametrize(
        "edit, text",
        [
            ({"from_km": "11.0"}, "from_km '11.0' is not a number"),
            ({"to_km": "17"}, "to_km '17' is not a number"),
            ({"to_km": True}, "to_km True is not a number"),
            ({"value": "2"}, "value '2' is not a number"),
            ({"value": True}, "value True is not a number"),  # true loaded as 1
            ({"from_km": None}, "from_km None is not a number"),
            ({"value": None}, "value None is not a number"),
            # an object loaded as no ops, and a name or an op field that is not a string was spelt with str
            ({"ops": {}}, "ops {} is not a list"),
            ({"ops": None}, "ops None is not a list"),
            ({"ops": "set"}, "ops 'set' is not a list"),
            ({"ops": [1]}, "ops[0] 1 is not an object"),
            ({"name": None}, "name None is not a string"),
            ({"name": 5}, "name 5 is not a string"),
            ({"op": None}, "op None is not a string"),
            ({"attribute": 5}, "attribute 5 is not a string"),
            (None, "the document is not an object"),  # the document is a list of the overlay
            ({"from_km": 10**400}, "int too large to convert to float"),  # float() refuses it
        ],
    )
    def test_overlay(self, tmp_path, capsys, edit, text):
        doc = json.loads(ROADWORKS.read_text())
        if edit is None:
            doc = [doc]
        elif {"op", "attribute", "value"} & edit.keys():
            doc["ops"][0].update(edit)
        else:
            doc.update(edit)
        overlay = tmp_path / "o.json"
        overlay.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(f"bad overlay: {text}") + "$"):
            load_overlay(overlay)
        out_csv = tmp_path / "p.csv"
        assert run("score", CORRIDOR, "--overlay", overlay, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 1
        assert capsys.readouterr().err == f"error: {overlay}: bad overlay: {text}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("length_km", "24.0"),
            ("segment_length_m", "100"),
            ("length_km", True),
            ("segment_length_m", None),
            ("corridor_id", None),  # loaded as the corridor 'None'
        ],
    )
    def test_corridor_metadata(self, tmp_path, capsys, field, value):
        meta = {"corridor_id": "D08-synthetic", "length_km": 24.0, "segment_length_m": 100.0, field: value}
        lines = CORRIDOR.read_text().split("\n")
        corridor_csv = tmp_path / "c.csv"
        corridor_csv.write_text("\n".join(["# " + json.dumps(meta), *lines[1:]]))
        kind = "a string" if field == "corridor_id" else "a number"
        message = f"corridor metadata: {field} {value!r} is not {kind}"
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            load_corridor(corridor_csv)
        out_csv = tmp_path / "p.csv"
        assert run("score", corridor_csv, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 1
        assert capsys.readouterr().err == f"error: {corridor_csv}:line 1: {message}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("field", ["length_km", "segment_length_m"])
    def test_corridor_metadata_integer_past_the_float_range(self, tmp_path, capsys, field):
        meta = {"corridor_id": "D08-synthetic", "length_km": 24.0, "segment_length_m": 100.0, field: 10**400}
        lines = CORRIDOR.read_text().split("\n")
        corridor_csv = tmp_path / "c.csv"
        corridor_csv.write_text("\n".join(["# " + json.dumps(meta), *lines[1:]]))
        message = "corridor metadata: int too large to convert to float"  # was an OverflowError traceback
        with pytest.raises(ParseError, match=re.escape(message) + "$"):
            load_corridor(corridor_csv)
        out_csv = tmp_path / "p.csv"
        assert run("score", corridor_csv, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 1
        assert capsys.readouterr().err == f"error: {corridor_csv}:line 1: {message}\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize(
        "edit, text",
        [
            ({"threshold": "100"}, "threshold '100' is not a number"),
            ({"level": True}, "level True is not a number"),
            ({"level": None}, "level None is not a number"),
            ({"threshold": 10**400}, "int too large to convert to float"),  # was an OverflowError traceback
        ],
    )
    def test_rubric(self, tmp_path, edit, text):  # no command reads a rubric: the library only
        doc = json.loads(fixture_path(RUBRIC_EXAMPLE_FILE).read_text())
        attr = next(iter(doc))
        doc[attr]["breakpoints"][1].update(edit)
        rubric = tmp_path / "r.json"
        rubric.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=re.escape(f"bad rubric for '{attr}': {text}") + "$"):
            load_rubric(rubric)

    @pytest.mark.parametrize("reader, field", [("overlay", "ops"), ("profile", "segments"), ("rubric", "breakpoints")])
    def test_missing_field_is_named(self, tmp_path, reader, field):
        # the text was Python's KeyError text, the field name alone: `bad overlay: 'ops'`
        profile = tmp_path / "p.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", profile) == 0
        rubric = fixture_path(RUBRIC_EXAMPLE_FILE)
        attr = next(iter(json.loads(rubric.read_text())))
        source, load, what = {
            "overlay": (ROADWORKS, load_overlay, "bad overlay"),
            "profile": (profile, load_score_profile_json, "bad score profile"),
            "rubric": (rubric, load_rubric, f"bad rubric for {attr!r}"),
        }[reader]
        doc = json.loads(source.read_text())
        del (doc[attr] if reader == "rubric" else doc)[field]
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as raised:
            load(path)
        assert str(raised.value) == f"{path}: {what}: missing field {field!r}"

    def test_score_profile_that_is_not_an_object(self, tmp_path, capsys):
        # was named as a corridor header without its fields, `corridor metadata must provide corridor_id, ...`
        profile = tmp_path / "p.json"
        profile.write_text("[1, 2]\n")
        capsys.readouterr()
        assert run("ivim", "build", profile, "--station-id", 1, "--out", tmp_path / "m.ivim.txt") == 1
        assert capsys.readouterr().err == f"error: {profile}: bad score profile: the document is not an object\n"
        assert not (tmp_path / "m.ivim.txt").exists()

    @pytest.mark.parametrize("reader", ["overlay", "metadata", "sidecar", "profile", "rubric"])
    def test_integer_longer_than_the_interpreter_converts(self, tmp_path, capsys, reader):
        """json reads an integer literal with int(), which refuses more than sys.get_int_max_str_digits() digits:
        an input error at the start of the literal (on the metadata line, its line), not a traceback."""
        long = "1" + "0" * 5000
        path, profile = tmp_path / "in", tmp_path / "p.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", profile) == 0
        meta, rows = CORRIDOR.read_text().split("\n", 1)
        (tmp_path / "rows.csv").write_text(rows)  # the corridor without its metadata line
        sidecar = json.dumps(json.loads(meta[2:]), indent=2)
        score = ["--out-csv", tmp_path / "out.csv", "--out-json", tmp_path / "out.json"]
        build = ["--station-id", 1, "--out", tmp_path / "out.txt"]
        length = '"length_km": 24.0'
        text, field, argv, where = {  # the text, the number replaced in it, the command and the literal's position
            "overlay": (
                ROADWORKS.read_text(), '"from_km": 11.0', ["score", CORRIDOR, "--overlay", path, *score],
                "line 3, column 14",
            ),
            "metadata": (CORRIDOR.read_text(), length, ["score", path, *score], "line 1"),
            "sidecar": (sidecar, length, ["score", tmp_path / "rows.csv", "--meta", path, *score], "line 3, column 16"),
            "profile": (profile.read_text(), length, ["ivim", "build", path, *build], "line 3, column 16"),
            "rubric": (fixture_path(RUBRIC_EXAMPLE_FILE).read_text(), '"threshold": 100', None, "line 11, column 22"),
        }[reader]
        path.write_text(text.replace(field, field.split()[0] + " " + long, 1))
        what = "metadata JSON" if reader == "metadata" else "JSON"
        error = f"{path}:{where}: invalid {what}: integer of more than {sys.get_int_max_str_digits()} digits"
        if argv is None:  # no command reads a rubric: the library only
            with pytest.raises(ParseError, match=re.escape(error) + "$"):
                load_rubric(path)
            return
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")
        assert set(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "out, text",
    [
        ("absent/p.csv", "[Errno 2] No such file or directory"),  # the temporary file cannot be made
        ("p.csv", "[Errno 21] Is a directory"),  # it cannot replace the output
    ],
)
def test_failed_output_write_names_the_output(tmp_path, capsys, out, text):
    (tmp_path / "p.csv").mkdir()
    out_csv = tmp_path / out
    assert run("score", CORRIDOR, "--out-csv", out_csv, "--out-json", tmp_path / "p.json") == 3
    assert capsys.readouterr().err == f"i/o error: {text}: '{out_csv}'\n"
    assert [path.name for path in tmp_path.rglob("*")] == ["p.csv"]  # the directory in the way, and no temporary file


@pytest.mark.parametrize(
    "argv",
    [
        ("score", CORRIDOR, "--out-csv", "p.csv", "--out-json", "absent/p.json"),
        (
            "survey", fixture_path(SURVEY20_RATINGS_FILE), fixture_path(SURVEY20_RESPONDENTS_FILE),
            "--out-weights", "w.csv", "--out-diff", "d.csv", "--out-days", "absent/days.csv",
        ),
    ],
    ids=["score", "survey"],
)
def test_failed_last_output_leaves_no_output(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 3
    assert capsys.readouterr().err == f"i/o error: [Errno 2] No such file or directory: '{argv[-1]}'\n"
    assert list(tmp_path.iterdir()) == []  # no output written before the last, and no temporary file


@pytest.mark.parametrize(
    "argv, path",
    [
        (("score", CORRIDOR, "--out-csv", "same.out", "--out-json", "./same.out"), "same.out"),
        (("score", CORRIDOR, "--out-csv", "same.out", "--out-json", "same.out"), "same.out"),
        (
            (
                "survey", fixture_path(SURVEY20_RATINGS_FILE), fixture_path(SURVEY20_RESPONDENTS_FILE),
                "--out-weights", "s.csv", "--out-diff", "s.csv", "--out-days", "days.csv",
            ),
            "s.csv",
        ),
    ],
    ids=["score", "score-same-name", "survey"],
)
def test_outputs_that_name_one_file_exit_2_without_outputs(tmp_path, capsys, monkeypatch, argv, path):
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: two outputs name one file: {path}\n"
    assert list(tmp_path.iterdir()) == []  # no output, and no temporary file


class TestInputsNoWriterGives:
    """Inputs in a form or a spelling that no writer gives. Rows and columns in another order read as the written
    ones; a fault exits 1 with the error line of the file's first fault, and no output."""

    def test_reordered_inputs_give_the_readme_walks_bytes(self, tmp_path):
        # corridor rows in reverse order go through the csv loop rather than the byte-slice kernel; a profile with
        # float indexes and reversed level lists has its columns converted
        scores_csv, scores_json, text = readme_walk(tmp_path)
        lines = CORRIDOR.read_text().rstrip("\n").split("\n")
        corridor_csv = tmp_path / "reversed.csv"
        corridor_csv.write_text("\n".join(lines[:4] + lines[:3:-1]) + "\n")  # the metadata, comments and header first
        out_csv, out_json = tmp_path / "reversed.scores.csv", tmp_path / "reversed.scores.json"
        argv = ["score", corridor_csv, *WALK_OVERLAYS, "--out-csv", out_csv, "--out-json", out_json, "--pretty"]
        assert run(*argv) == 0
        assert out_csv.read_bytes() == scores_csv.read_bytes()
        assert out_json.read_bytes() == scores_json.read_bytes()
        doc = json.loads(scores_json.read_text())
        for segment in doc["segments"]:
            segment["segment_index"] = float(segment["segment_index"])
            segment["allowed_sae_levels"].reverse()
        converted, out = tmp_path / "converted.json", tmp_path / "converted.ivim.txt"
        converted.write_text(json.dumps(doc, indent=2))
        assert run("ivim", "build", converted, *WALK_BUILD, "--out", out) == 0
        assert out.read_bytes() == text.read_bytes()

    def case(self, name: str, tmp_path: Path) -> tuple[list, str]:
        """The command of case ``name``, which reads the edited input ``tmp_path / "in"``, and its error after
        that path."""
        from hri.fixtures import SURVEY17_RATINGS_FILE, SURVEY17_RESPONDENTS_FILE

        path, score = tmp_path / "in", ["--out-csv", tmp_path / "out.csv", "--out-json", tmp_path / "out.json"]
        if name == "weights":
            # a weight that is not a number on line 2 and a field over csv's size limit on line 4: the table is read
            # as its rows are checked, so line 2 is reported
            path.write_text(WEIGHTS_HEADER + "\nlighting,high,1\nhd-maps,1,1\nlane-width,1," + "2" * 200_000)
            return ["score", CORRIDOR, "--weights", path, *score], "line 2: malformed weight for 'lighting'"
        if name == "expertise":
            # respondent r03 (line 4) with av_expertise 9, and an unknown attribute on line 2 of the ratings: the
            # respondents file is read whole first, each respondent built at its row, so its line 4 is reported
            respondents = fixture_path(SURVEY17_RESPONDENTS_FILE).read_text()
            path.write_text(edited(respondents, "\nr03,PhD Student,europe,3,", "\nr03,PhD Student,europe,9,"))
            ratings = tmp_path / "ratings.csv"
            text = fixture_path(SURVEY17_RATINGS_FILE).read_text()
            ratings.write_text(edited(text, "\nr01,lane-mark-retroreflectivity,", "\nr01,warp-drive,"))
            outputs = ["--out-weights", tmp_path / "w", "--out-diff", tmp_path / "d", "--out-days", tmp_path / "y"]
            return ["survey", ratings, path, *outputs], "line 4: av_expertise must be in [1, 5], got 9"
        if name == "index":
            # the corridor's rows reversed, so that the csv loop reads them, and the first index 10 written 1_0
            lines = CORRIDOR.read_text().rstrip("\n").split("\n")
            lines[4:] = lines[:3:-1]  # after the metadata line, two comment lines and the header
            line = next(number for number, text in enumerate(lines, start=1) if text.startswith("10,"))
            lines[line - 1] = "1_0," + lines[line - 1].removeprefix("10,")
            path.write_text("\n".join(lines) + "\n")
            return ["score", path, *score], f"line {line}: malformed segment index '1_0'"
        # the README walk's message with zone 4 moved 5 m forward, so that it does not start where zone 3 ends, or
        # with its station_id written with a sign and a `_`, or followed by a no-break space
        key, old, new, problem = {
            "gap": ("zone.4.start_m", "17000", "17005", "17: zone 4: start_m 17005 != previous zone end_m 17000"),
            "sign": ("station_id", "1001", "+0_1", "13: station_id must be an integer, got '+0_1'"),
            "nbsp": ("station_id", "1001", "1001\xa0", "13: station_id must be an integer, got '1001\\xa0'"),
        }[name]
        message = readme_walk(tmp_path)[2].read_text()
        path.write_text(edited(message, f"\n{key}: {old}\n", f"\n{key}: {new}\n"))
        line = message.split("\n").index(f"{key}: {old}") + 1
        return ["ivim", "encode", path, "--out", tmp_path / "out.ivim"], f"line {line}, column {problem}"

    @pytest.mark.parametrize("name", ["weights", "expertise", "index", "gap", "sign", "nbsp"])
    def test_first_fault_exits_1_without_outputs(self, tmp_path, capsys, name):
        argv, error = self.case(name, tmp_path)
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv) == 1
        assert capsys.readouterr() == ("", f"error: {tmp_path / 'in'}:{error}\n")
        assert set(tmp_path.iterdir()) == before


class TestNonUtf8Input:
    """A byte that is not UTF-8 in any file a command reads is an input error (exit 1) at its line and
    column, with no output; a leading BOM is dropped and line ends are read as ``Path.read_text`` reads them."""

    READERS = [
        "weights", "ratings", "respondents", "corridor", "reversed", "metadata", "overlay", "profile", "text", "message"
    ]

    def case(self, reader: str, tmp_path: Path) -> tuple[str, list]:
        """The valid text of the file that ``reader`` names, and a command that reads it from ``tmp_path / "in"``."""
        from hri.taxonomy import dump_weight_table

        path = tmp_path / "in"
        profile, text, stamp = tmp_path / "p.json", tmp_path / "m.ivim.txt", ["--timestamp", 1700000000000]
        build = ["--station-id", 1, *stamp]
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", profile) == 0
        assert run("ivim", "build", profile, *build, "--out", text) == 0
        ratings, respondents = fixture_path(SURVEY20_RATINGS_FILE), fixture_path(SURVEY20_RESPONDENTS_FILE)
        survey_outputs = ["--out-weights", tmp_path / "w", "--out-diff", tmp_path / "d", "--out-days", tmp_path / "y"]
        outputs = ["--out-csv", tmp_path / "out.csv", "--out-json", tmp_path / "out.json"]
        meta, rows = CORRIDOR.read_text().split("\n", 1)
        (tmp_path / "rows.csv").write_text(rows)  # the corridor without its metadata line
        sidecar = json.dumps(json.loads(meta[2:]), indent=2)
        lines = CORRIDOR.read_text().rstrip("\n").split("\n")
        lines[4:] = lines[:3:-1]  # the rows reversed after the metadata line, two comment lines and the header
        cases = {
            "weights": (dump_weight_table(builtin_weight_table()), ["score", CORRIDOR, "--weights", path, *outputs]),
            "ratings": (ratings.read_text(), ["survey", path, respondents, *survey_outputs]),
            "respondents": (respondents.read_text(), ["survey", ratings, path, *survey_outputs]),
            "corridor": (CORRIDOR.read_text(), ["score", path, *outputs]),
            "reversed": ("\n".join(lines) + "\n", ["score", path, *outputs]),  # read by the csv loop
            "metadata": (sidecar, ["score", tmp_path / "rows.csv", "--meta", path, *outputs]),
            "overlay": (ROADWORKS.read_text(), ["score", CORRIDOR, "--overlay", path, *outputs]),
            "profile": (profile.read_text(), ["ivim", "build", path, *build, "--out", tmp_path / "out.txt"]),
            "text": (text.read_text(), ["ivim", "encode", path, "--out", tmp_path / "out.ivim"]),
            "message": (text.read_text(), ["simulate-rsu", "--message", path, "--dry-run", "--count", 1, *stamp]),
        }
        return cases[reader]

    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_byte_exits_1_at_its_line_and_column(self, tmp_path, capsys, reader, newline):
        valid, argv = self.case(reader, tmp_path)
        first, rest = valid.replace("\n", newline).encode().split(newline.encode(), 1)
        (tmp_path / "in").write_bytes(first + newline.encode() + rest[:2] + b"\xff" + rest[2:])  # line 2, column 3
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {tmp_path / 'in'}:line 2, column 3: byte 0xff is not UTF-8 (invalid start byte)\n"
        assert out == "" and set(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("line", [1, 2])
    @pytest.mark.parametrize("reader", READERS)
    def test_bad_byte_after_a_bom_and_crlf_lines_is_placed_in_characters(self, tmp_path, capsys, reader, line):
        # the BOM is no character of line 1, a CRLF is one line end and the two-byte "\u00e9" one character
        valid, argv = self.case(reader, tmp_path)
        lines = valid.replace("\n", "\r\n").encode().split(b"\r\n")
        lines[line - 1] = "\u00e9".encode() + lines[line - 1][:1] + b"\xff" + lines[line - 1][1:]
        (tmp_path / "in").write_bytes(BOM + b"\r\n".join(lines))
        before = set(tmp_path.iterdir())
        capsys.readouterr()
        assert run(*argv) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {tmp_path / 'in'}:line {line}, column 3: byte 0xff is not UTF-8 (invalid start byte)\n"
        assert out == "" and set(tmp_path.iterdir()) == before

    def outcomes(self, tmp_path, capsys, argv, twins) -> list:
        """The standard output and the output files of ``argv`` run on each of ``twins`` written to ``in``."""
        results = []
        for data in twins:
            (tmp_path / "in").write_bytes(data)
            capsys.readouterr()
            assert run(*argv) == 0
            written = sorted(path for path in tmp_path.iterdir() if path.name.startswith(("out", "w", "d", "y")))
            results.append((capsys.readouterr().out, [path.read_bytes() for path in written]))
        return results

    @pytest.mark.parametrize("reader", READERS)
    def test_crlf_reads_as_lf(self, tmp_path, capsys, reader):
        valid, argv = self.case(reader, tmp_path)
        lf, crlf = self.outcomes(tmp_path, capsys, argv, [valid.encode(), valid.replace("\n", "\r\n").encode()])
        assert lf == crlf

    @pytest.mark.parametrize("reader", READERS)
    def test_bom_twins_read_as_the_lf_file(self, tmp_path, capsys, reader):
        # a BOM was refused, with a different text for each kind of file
        valid, argv = self.case(reader, tmp_path)
        twins = [valid.encode(), BOM + valid.encode(), BOM + valid.replace("\n", "\r\n").encode()]
        lf, *others = self.outcomes(tmp_path, capsys, argv, twins)
        assert others == [lf, lf]

    @pytest.mark.parametrize("chunk", range(1, 9))
    @pytest.mark.parametrize(
        "tail, problem",
        [
            (b"\xe2\x80A\n", "byte 0xe2 is not UTF-8 (invalid continuation byte)"),
            (b"\xf0\x9f\x98", "byte 0xf0 is not UTF-8 (unexpected end of data)"),
        ],
        ids=["invalid", "truncated"],
    )
    def test_sequence_across_check_chunks_is_placed_as_in_one(self, tmp_path, monkeypatch, chunk, tail, problem):
        # the check reads UTF8_CHUNK bytes at a time: with small chunks, the sequences before the bad one and the bad
        # one itself are cut at every offset
        from hri import _util

        monkeypatch.setattr(_util, "UTF8_CHUNK", chunk)
        path = tmp_path / "in"
        path.write_bytes("ab\n\u00e9\u2013\U0001f600".encode() + tail)
        with pytest.raises(ParseError) as raised:
            _util.read_input_bytes(path)
        assert str(raised.value) == f"{path}:line 2, column 4: {problem}"
        path.write_bytes("ab\n\u00e9\u2013\U0001f600\n".encode())
        assert _util.read_input(path) == "ab\n\u00e9\u2013\U0001f600\n"

    def test_rubric(self, tmp_path):  # no command reads a rubric: the library only
        rubric = tmp_path / "rubric.json"
        rubric.write_bytes(b'{\n  "lighting\xc3": {}\n}\n')
        with pytest.raises(ParseError) as raised:
            load_rubric(rubric)
        assert str(raised.value) == f"{rubric}:line 2, column 12: byte 0xc3 is not UTF-8 (invalid continuation byte)"


# every option read as a number, under each command that takes it, and those of them read as a float
NUMBER_OPTIONS = [
    ("sensitivity", "--degraded-level"),
    *(("score", option) for option in "--length-km --segment-length --threshold".split()),
    *(("ivim build", option) for option in "--station-id --timestamp --validity --ivi-id --ref-lat --ref-lon".split()),
    *(("simulate-rsu", option) for option in "--station-id --ivi-id --validity --count --timestamp --period".split()),
]
FLOAT_OPTIONS = {"--length-km", "--segment-length", "--threshold", "--ref-lat", "--ref-lon", "--period"}
NUMBERS_NO_WRITER_GIVES = {"arabic-indic": "\u0662", "underscore": "0_2"}  # int() and float() read both as 2


class TestUsage:
    """Usage errors exit 1 with the usage and ``error:`` on stderr; ``--help`` exits 0."""

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["ivim"],
            ["nope"],
            ["score"],
            ["score", "x", "--bogus"],
            ["score", "x", "--pre"],  # no abbreviation of --pretty
            ["ivim", "build", "p.json"],
            ["ivim", "build", "p.json", "--station-id", "x"],
            ["sensitivity", "--degraded-level", "3"],
            ["sensitivity", "--format", "xml"],
            # a number spelt as hri never writes it: the number rule refuses it
            *(
                pytest.param([*command.split(), option, value], id=f"{command}-{option}-{name}")
                for command, option in NUMBER_OPTIONS
                for name, value in NUMBERS_NO_WRITER_GIVES.items()
            ),
        ],
    )
    def test_usage_error_exits_1(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: hri") and "\nerror: " in captured.err
        assert captured.out == "" and list(tmp_path.iterdir()) == []
        if argv[-1:] and argv[-1] in NUMBERS_NO_WRITER_GIVES.values():
            kind = "float" if argv[-2] in FLOAT_OPTIONS else "int"
            assert captured.err.endswith(f"\nerror: argument {argv[-2]}: invalid {kind} value: {argv[-1]!r}\n")

    @pytest.mark.parametrize(
        "command",
        [[], ["score"], ["survey"], ["sensitivity"], ["ivim"], ["ivim", "build"], ["ivim", "encode"],
         ["ivim", "decode"], ["ivim", "inspect"], ["simulate-rsu"]],
    )
    def test_help_exits_0(self, capsys, command):
        assert main([*command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(" ".join(["usage: hri", *command])) and captured.err == ""

    def test_empty_weights_variable_means_builtin(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HRI_WEIGHTS", "")
        out_json = tmp_path / "p.json"
        assert run("score", CORRIDOR, "--out-csv", tmp_path / "p.csv", "--out-json", out_json) == 0
        assert json.loads(out_json.read_text())["weight_provenance"] == "builtin-fig2"

    def test_negative_reference_longitude(self, tmp_path):
        profile = TestIvimCommands().build_profile(tmp_path)
        out = tmp_path / "m.ivim.txt"
        argv = ["ivim", "build", profile, "--station-id", 7, "--ref-lat", 37.7, "--ref-lon", "-122.4", "--out", out]
        assert run(*argv) == 0
        assert "longitude_e7: -1224000000" in out.read_text()

    @pytest.mark.parametrize("argv", [["sensitivity"], ["score", "--help"]])
    def test_closed_stdout_exits_1_quietly(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone before the command writes, as under `| head`
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(hri.__file__).parent.parent), env.get("PYTHONPATH")]))
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "hri.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")

    def test_import_loads_no_click(self):
        code = "import hri.cli, sys\nassert not [m for m in sys.modules if m.partition('.')[0] == 'click']"
        assert loaded_after(code) == CLI_MODULES
