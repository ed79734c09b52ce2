from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hri.errors import ParseError, ValidationError
from hri.corridor import load_corridor
from hri.fixtures import (
    BASELINE_CORRIDOR_FILE,
    SURVEY17_RATINGS_FILE,
    SURVEY17_RESPONDENTS_FILE,
    SURVEY20_RATINGS_FILE,
    SURVEY20_RESPONDENTS_FILE,
    build_survey_responses,
    fixture_path,
    generate_baseline_corridor,
    rating_cell_plan,
)
from hri.survey import (
    DayService,
    Region,
    SurveyResponse,
    aggregate_mean_impact,
    grouped_mean,
    impact_difference,
    load_survey,
)
from hri.taxonomy import AutomationLevelGroup, WeightTable, attribute_ids, parse_weight_table

ASD = AutomationLevelGroup.ASD
AUD = AutomationLevelGroup.AUD


def response(rid, ratings, region=Region.OTHER, days=None):
    return SurveyResponse(
        respondent_id=rid,
        role="Researcher",
        region=region,
        av_expertise=3,
        cits_expertise=3,
        attribute_ratings=ratings,
        cits_day_ratings=days or {},
    )


class TestAggregateMeanImpact:
    def test_two_point_mean(self):
        responses = [
            response("a", {("hd-maps", AUD): 2, ("hd-maps", ASD): 1}),
            response("b", {("hd-maps", AUD): 1, ("hd-maps", ASD): 1}),
        ]
        table = aggregate_mean_impact(responses, attributes=["hd-maps"])
        assert table.lookup(AUD, "hd-maps") == 1.5
        assert table.provenance == "custom"

    def test_attributes_leave_out_the_other_ratings(self):
        responses = [
            response("a", {("hd-maps", AUD): 2, ("hd-maps", ASD): 1, ("lighting", AUD): 0, ("lighting", ASD): 0}),
            response("b", {("hd-maps", AUD): 1, ("hd-maps", ASD): 0, ("lighting", AUD): 2}),
        ]
        table = aggregate_mean_impact(responses, attributes=["hd-maps"])
        assert dict(table.weights) == {(ASD, "hd-maps"): 0.5, (AUD, "hd-maps"): 1.5}

    def test_constant_input(self):
        ratings = {(attr, group): 2 for attr in attribute_ids() for group in AutomationLevelGroup}
        table = aggregate_mean_impact([response("a", ratings)])
        assert all(w == 2.0 for w in table.weights.values())

    def test_20_respondent_reconstruction_is_exact(self, weights):
        table = aggregate_mean_impact(build_survey_responses(20))
        assert dict(table.weights) == dict(weights.weights)

    def test_17_respondent_reconstruction(self, weights):
        # Five target means have denominator 20 in lowest terms, so they
        # cannot be hit exactly with at most 17 integer ratings; everything
        # else must be exact.
        inexact = {
            (AUD, "vegetation-maintenance"),
            (AUD, "lane-mark-consistency"),
            (AUD, "sign-maintenance"),
            (AUD, "lighting"),
            (ASD, "horizontal-curvature"),
        }
        table = aggregate_mean_impact(build_survey_responses(17))
        for key, expected in weights.weights.items():
            if key in inexact:
                assert abs(table.weights[key] - expected) < 0.01
            else:
                assert table.weights[key] == expected

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError, match="empty response list"):
            aggregate_mean_impact([])

    def test_uncovered_pair_reported(self):
        responses = [response("a", {("hd-maps", AUD): 2})]
        with pytest.raises(ValidationError, match=r"\(asd, hd-maps\)"):
            aggregate_mean_impact(responses, attributes=["hd-maps"])

    def test_missing_ratings_excluded_from_denominator(self):
        responses = [
            response("a", {("hd-maps", AUD): 2, ("hd-maps", ASD): 0}),
            response("b", {("hd-maps", AUD): 2, ("hd-maps", ASD): 0}),
            response("c", {("hd-maps", ASD): 0}),  # did not rate the AUD cell
        ]
        table = aggregate_mean_impact(responses, attributes=["hd-maps"])
        assert table.lookup(AUD, "hd-maps") == 2.0

    @given(st.permutations(range(6)))
    def test_permutation_invariance(self, order):
        rng = random.Random(7)
        base = [
            response(
                f"r{i}",
                {
                    (attr, group): rng.choice((0, 1, 2))
                    for attr in ("hd-maps", "lighting")
                    for group in AutomationLevelGroup
                },
            )
            for i in range(6)
        ]
        shuffled = [base[i] for i in order]
        left = aggregate_mean_impact(base, attributes=("hd-maps", "lighting"))
        right = aggregate_mean_impact(shuffled, attributes=("hd-maps", "lighting"))
        assert dict(left.weights) == dict(right.weights)

    @settings(max_examples=200)
    @given(st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=30))
    def test_means_stay_on_rating_scale(self, ratings):
        responses = [
            response(f"r{i}", {("hd-maps", AUD): value, ("hd-maps", ASD): value})
            for i, value in enumerate(ratings)
        ]
        table = aggregate_mean_impact(responses, attributes=["hd-maps"])
        assert 0.0 <= table.lookup(AUD, "hd-maps") <= 2.0


class TestImpactDifference:
    def test_builtin_spot_values(self, weights):
        diffs = impact_difference(weights)
        assert diffs["hd-maps"] == pytest.approx(0.7, abs=1e-9)
        assert diffs["horizontal-curvature"] == pytest.approx(-0.15, abs=1e-9)

    def test_identical_groups_give_zero(self):
        table = WeightTable({(g, "hd-maps"): 1.3 for g in AutomationLevelGroup})
        assert impact_difference(table) == {"hd-maps": 0.0}

    def test_a_missing_group_weight_is_a_validation_error(self):
        table = WeightTable({(AUD, "hd-maps"): 1.3})
        with pytest.raises(ValidationError) as excinfo:
            impact_difference(table)
        assert str(excinfo.value) == "no weight for (asd, 'hd-maps')"

    def test_linear_in_per_respondent_differences(self):
        # with full coverage, diff(mean) == mean(per-respondent diffs)
        rng = random.Random(11)
        attrs = ("hd-maps", "lighting", "lane-width")
        responses = [
            response(
                f"r{i}",
                {(a, g): rng.choice((0, 1, 2)) for a in attrs for g in AutomationLevelGroup},
            )
            for i in range(9)
        ]
        diffs = impact_difference(aggregate_mean_impact(responses, attributes=attrs))
        for attr in attrs:
            per_resp = [
                r.attribute_ratings[(attr, AUD)] - r.attribute_ratings[(attr, ASD)]
                for r in responses
            ]
            assert diffs[attr] == pytest.approx(sum(per_resp) / len(per_resp), abs=1e-12)


class TestGroupedMean:
    def test_constructed_region_day_means(self):
        responses = build_survey_responses(17)
        means = grouped_mean(responses)
        assert means[(Region.EUROPE, DayService.DAY3)] == pytest.approx(1.70, abs=1e-9)
        assert round(means[(Region.USA, DayService.DAY3)], 2) == 0.33
        assert round(means[(Region.USA, DayService.DAY1)], 2) == 1.33

    def test_singleton_mean(self):
        responses = [
            response("a", {}, days={day: 1 for day in DayService}, region=Region.EUROPE)
        ]
        means = grouped_mean(responses)
        assert means == {(Region.EUROPE, day): 1.0 for day in DayService}

    def test_groups_without_data_absent(self):
        responses = [
            response("a", {}, days={DayService.DAY1: 2}, region=Region.EUROPE)
        ]
        means = grouped_mean(responses)
        assert (Region.USA, DayService.DAY1) not in means
        assert (Region.EUROPE, DayService.DAY2) not in means


class TestCellPlan:
    def test_exact_when_representable(self):
        n, total = rating_cell_plan(140, 17)  # mean 1.4 = 7/5
        assert (n, total) == (5, 7)

    def test_falls_back_to_nearest(self):
        n, total = rating_cell_plan(95, 17)  # mean 0.95 unreachable under 19 raters
        assert (n, total) == (17, 16)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=20))
    def test_plan_always_valid(self, cents, n_resp):
        n, total = rating_cell_plan(cents, n_resp)
        assert 1 <= n <= n_resp
        assert 0 <= total <= 2 * n


class TestSurveyFiles:
    def test_fixture_round_trip(self):
        loaded = load_survey(
            fixture_path(SURVEY17_RATINGS_FILE), fixture_path(SURVEY17_RESPONDENTS_FILE)
        )
        assert loaded == build_survey_responses(17)

    def test_bad_rating_has_line_number(self, tmp_path):
        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,europe,5,4,1,1,1\n"
        )
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            "respondent_id,attribute,group,rating\n"
            "r1,hd-maps,aud,2\n"
            "r1,hd-maps,asd,7\n"
        )
        with pytest.raises(ParseError, match="rating must be 0, 1 or 2, got 7") as excinfo:
            load_survey(ratings, respondents)
        assert excinfo.value.line == 3

    def test_unknown_respondent_rejected(self, tmp_path):
        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,europe,5,4,,,\n"
        )
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("respondent_id,attribute,group,rating\nr9,hd-maps,aud,2\n")
        with pytest.raises(ParseError, match="unknown respondent 'r9'") as excinfo:
            load_survey(ratings, respondents)
        assert excinfo.value.line == 2

    def test_duplicate_rating_rejected(self, tmp_path):
        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,usa,5,4,,,\n"
        )
        ratings = tmp_path / "ratings.csv"
        ratings.write_text(
            "respondent_id,attribute,group,rating\n"
            "r1,hd-maps,aud,2\n"
            "r1,hd-maps,aud,1\n"
        )
        with pytest.raises(ParseError, match="duplicate rating"):
            load_survey(ratings, respondents)

    def test_oversized_field_names_its_line(self, tmp_path):
        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,usa,5,4,,,\n"
        )
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("respondent_id,attribute,group,rating\nr1,hd-maps,aud," + "2" * 200_000 + "\n")
        with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as excinfo:
            load_survey(ratings, respondents)
        assert (excinfo.value.source, excinfo.value.line) == (str(ratings), 2)

    def test_empty_ratings_rejected(self, tmp_path):
        respondents = tmp_path / "resp.csv"
        respondents.write_text(
            "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3\n"
            "r1,Professor,usa,5,4,,,\n"
        )
        ratings = tmp_path / "ratings.csv"
        ratings.write_text("")
        with pytest.raises(ParseError, match="empty file"):
            load_survey(ratings, respondents)

    @pytest.mark.parametrize(
        "kind, respondents_rows, ratings_rows, line, message",
        [
            (
                "respondents", ["r1,Professor,europe,5,4,,,", "r1,Engineer,usa,3,3,,,"], ["r1,hd-maps,aud,2"],
                3, "duplicate respondent 'r1'",
            ),
            (
                "respondents", ["r1,Professor,europe,5,4,,,", "r2,Engineer,asia,3,3,,,"], ["r1,hd-maps,aud,2"],
                3, "unknown region 'asia' (expected europe, usa or other)",
            ),
            (
                "ratings", ["r1,Professor,europe,5,4,,,"], ["r1,hd-maps,aud,2", "r1,warp-drive,aud,2"],
                3, "unknown attribute 'warp-drive'",
            ),
            (
                "ratings", ["r1,Professor,europe,5,4,,,"], ["r1,hd-maps,aud,2", "r1,hd-maps,sae5,2"],
                3, "unknown automation-level group 'sae5' (expected asd or aud)",
            ),
            (
                "respondents", ["r1,Professor,europe,5,4,,,", "r2,Engineer,usa,3,9,,,"], ["r1,hd-maps,aud,2"],
                3, "cits_expertise must be in [1, 5], got 9",
            ),
        ],
        ids=["duplicate respondent", "unknown region", "unknown attribute", "unknown group", "expertise out of range"],
    )
    def test_fault_names_its_file_and_line(self, kind, respondents_rows, ratings_rows, line, message, tmp_path):
        respondents, ratings = tmp_path / "respondents.csv", tmp_path / "ratings.csv"
        respondents.write_text("\n".join([RESPONDENTS_HEADER, *respondents_rows]) + "\n")
        ratings.write_text("\n".join([RATINGS_HEADER, *ratings_rows]) + "\n")
        with pytest.raises(ParseError) as raised:
            load_survey(ratings, respondents)
        source = str(respondents if kind == "respondents" else ratings)
        assert (raised.value.source, raised.value.line) == (source, line)
        assert str(raised.value) == f"{source}:line {line}: {message}"

    @pytest.mark.parametrize(
        "respondents_rows, ratings_rows",
        [
            (["r1,Professor,europe,5,9,,,"], ["r1,warp-drive,aud,2"]),
            (["r1,Professor,europe,5,9,,,", "r2,Engineer,asia,3,3,,,"], ["r1,hd-maps,aud,2"]),
        ],
        ids=["before a ratings fault", "before a later respondents fault"],
    )
    def test_expertise_fault_is_reported_at_its_row(self, respondents_rows, ratings_rows, tmp_path):
        # each respondent is built as its row is read, so its expertise is checked there
        respondents, ratings = tmp_path / "respondents.csv", tmp_path / "ratings.csv"
        respondents.write_text("\n".join([RESPONDENTS_HEADER, *respondents_rows]) + "\n")
        ratings.write_text("\n".join([RATINGS_HEADER, *ratings_rows]) + "\n")
        with pytest.raises(ParseError) as raised:
            load_survey(ratings, respondents)
        assert str(raised.value) == f"{respondents}:line 2: cits_expertise must be in [1, 5], got 9"

    def test_bad_expertise_rejected(self):
        with pytest.raises(ValueError, match="av_expertise"):
            SurveyResponse(
                respondent_id="x",
                role="Researcher",
                region=Region.OTHER,
                av_expertise=6,
                cits_expertise=3,
            )


def test_committed_fixtures_match_their_generators():
    assert load_corridor(fixture_path(BASELINE_CORRIDOR_FILE)) == generate_baseline_corridor()
    for n, ratings, respondents in (
        (17, SURVEY17_RATINGS_FILE, SURVEY17_RESPONDENTS_FILE),
        (20, SURVEY20_RATINGS_FILE, SURVEY20_RESPONDENTS_FILE),
    ):
        assert load_survey(fixture_path(ratings), fixture_path(respondents)) == build_survey_responses(n)


WEIGHTS_HEADER = "attribute,asd_weight,aud_weight"
RESPONDENTS_HEADER = "respondent_id,role,region,av_expertise,cits_expertise,day1,day2,day3"
RATINGS_HEADER = "respondent_id,attribute,group,rating"
CORRIDOR_HEADER = "segment_index,attribute,value"
OVERSIZED = "2" * 200_000  # over csv's field size limit

# Per table: its header, a data row, a row with a bad value (and that value's error), and a row one field short.
TABLES = {
    "weights": (WEIGHTS_HEADER, "hd-maps,1,1", "lighting,high,1", "malformed weight for 'lighting'", "lane-width,1"),
    "respondents": (
        RESPONDENTS_HEADER, "r1,Professor,europe,5,4,1,1,1", "r2,Engineer,usa,five,4,,,", "malformed expertise value",
        "r3,Engineer,usa,5,4,,",
    ),
    "ratings": (RATINGS_HEADER, "r1,hd-maps,aud,2", "r1,lighting,asd,7", "rating must be 0, 1 or 2, got 7", "r1,lane-width,aud"),
    "corridor": (CORRIDOR_HEADER, "0,hd-maps,2", "0,lighting,7", "adequacy value must be 0, 1 or 2, got 7", "0,lane-width"),
}
CORRIDOR_META = {"corridor_id": "c", "length_km": 0.1, "segment_length_m": 100.0}  # for a text with no metadata line


def table_error(kind: str, text: str, tmp_path) -> ParseError:
    """The error of reading ``text`` as the ``kind`` table, with the other survey file valid."""
    respondents, ratings = tmp_path / "respondents.csv", tmp_path / "ratings.csv"
    respondents.write_text(RESPONDENTS_HEADER + "\nr1,Professor,europe,5,4,1,1,1\n")
    ratings.write_text(RATINGS_HEADER + "\nr1,hd-maps,aud,2\n")
    with pytest.raises(ParseError) as raised:
        if kind == "weights":
            parse_weight_table(text, source="w.csv")
        elif kind == "corridor":
            corridor = tmp_path / "corridor.csv"
            corridor.write_text(text)
            load_corridor(corridor, CORRIDOR_META)
        else:
            (respondents if kind == "respondents" else ratings).write_text(text)
            load_survey(ratings, respondents)
    return raised.value


class TestCsvTables:
    """The rules the corridor CSV, the weight table and both survey files share, each with the text and
    line it had when every reader checked its own header and field count; the first fault in the file
    is the one reported."""

    @pytest.mark.parametrize("kind", sorted(TABLES))
    @pytest.mark.parametrize(
        "fault",
        [
            "empty", "comments only", "wrong header", "wrong header then csv fault", "short row",
            "bad value then short row", "bad value then csv fault", "csv fault then bad value",
        ],
    )
    def test_faults_report_their_text_and_line(self, kind, fault, tmp_path):
        header, good, bad, bad_message, short = TABLES[kind]
        width = header.count(",") + 1
        empty = {"weights": "empty weight table", "corridor": "no data rows"}.get(kind, "empty file")
        oversized = "malformed CSV: field larger than field limit (131072)"
        text, line, message = {
            "empty": ("", None, empty),
            "comments only": ("# a comment\n\n  # another\n", None, empty),
            "wrong header": (f"# {kind}\n{header},extra\n{good}\n", 2, f"expected header {header!r}"),
            "wrong header then csv fault": (f"{header},extra\n{good},{OVERSIZED}\n", 1, f"expected header {header!r}"),
            "short row": (
                f"{header}\n{good}\n# a comment\n{short}\n", 4, f"expected {width} fields, got {width - 1}"
            ),
            "bad value then short row": (f"{header}\n{good}\n{bad}\n{short}\n", 3, bad_message),
            # csv reads the file as the rows are checked: an earlier bad value comes before a later csv fault
            "bad value then csv fault": (f"{header}\n{bad}\n{good}\n{good},{OVERSIZED}\n", 2, bad_message),
            "csv fault then bad value": (f"{header}\n{good}\n{good},{OVERSIZED}\n{bad}\n", 3, oversized),
        }[fault]
        error = table_error(kind, text, tmp_path)
        source = "w.csv" if kind == "weights" else str(tmp_path / f"{kind}.csv")
        expected = ParseError(message, source=source, line=line)
        assert (error.source, error.line, str(error)) == (source, line, str(expected))


class TestNumberRule:
    """A number in the weight table or a survey file is read as hri writes it: an integer is an optional '-' and
    ASCII digits, a real what float() reads from ASCII text without '_'; ASCII blanks around a number and
    leading zeros are allowed."""

    def test_padded_numbers_and_leading_zeros_read_as_written(self, tmp_path):
        table = parse_weight_table(f"{WEIGHTS_HEADER}\nlighting, 0.5 ,01\nhd-maps,\t1e0,.25 \n")
        assert dict(table.weights) == {
            (ASD, "lighting"): 0.5, (ASD, "hd-maps"): 1.0, (AUD, "lighting"): 1.0, (AUD, "hd-maps"): 0.25
        }
        respondents, ratings = tmp_path / "respondents.csv", tmp_path / "ratings.csv"
        respondents.write_text(f"{RESPONDENTS_HEADER}\nr1,Professor,europe, 05 ,004, 1 ,02,\n")
        ratings.write_text(f"{RATINGS_HEADER}\nr1,hd-maps,aud, 02 \nr1,lighting,asd,0\n")
        (loaded,) = load_survey(ratings, respondents)
        assert (loaded.av_expertise, loaded.cits_expertise) == (5, 4)
        assert loaded.cits_day_ratings == {DayService.DAY1: 1, DayService.DAY2: 2}
        assert loaded.attribute_ratings == {("hd-maps", AUD): 2, ("lighting", ASD): 0}

    @pytest.mark.parametrize("spelling", ["nan", "NaN", "inf", "-Infinity", " +inf "])
    def test_weights_that_are_not_finite_keep_their_text(self, spelling):
        with pytest.raises(ParseError) as raised:
            parse_weight_table(f"{WEIGHTS_HEADER}\nhd-maps,1,1\nlighting,0.5,{spelling}\n", source="w.csv")
        assert str(raised.value) == "w.csv:line 3: weight for 'lighting' is not finite"

    @pytest.mark.parametrize(
        "kind, row, message",
        [
            ("weights", "lighting,1_0,1", "malformed weight for 'lighting'"),
            ("weights", "lighting,1,٣", "malformed weight for 'lighting'"),  # an Arabic-Indic three
            ("respondents", "r2,Engineer,usa,+3,4,,,", "malformed expertise value"),
            ("respondents", "r2,Engineer,usa,3,0_4,,,", "malformed expertise value"),
            ("respondents", "r2,Engineer,usa,٣,4,,,", "malformed expertise value"),
            ("respondents", "r2,Engineer,usa,3,4,+1,,", "malformed rating '+1'"),
            ("respondents", "r2,Engineer,usa,3,4,,0_2,", "malformed rating '0_2'"),
            ("respondents", "r2,Engineer,usa,3,4,,,٢", "malformed rating '٢'"),
            ("ratings", "r1,lighting,asd,+2", "malformed rating '+2'"),
            ("ratings", "r1,lighting,asd,0_2", "malformed rating '0_2'"),
            ("ratings", "r1,lighting,asd,٢", "malformed rating '٢'"),
        ],
    )
    def test_numbers_that_no_writer_gives_are_refused_at_their_line(self, tmp_path, kind, row, message):
        header, good = TABLES[kind][:2]
        error = table_error(kind, f"{header}\n{good}\n{row}\n", tmp_path)
        source = "w.csv" if kind == "weights" else str(tmp_path / f"{kind}.csv")
        assert str(error) == str(ParseError(message, source=source, line=3))
