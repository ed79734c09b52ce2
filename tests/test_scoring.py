from __future__ import annotations

import json
import math
from dataclasses import replace
from types import MappingProxyType

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hri.corridor import MISSING, CorridorProfile, SegmentObservation, SegmentRows, apply_overlay
from hri.errors import ParseError, ValidationError
from hri.scoring import (
    CorridorAssessment,
    ReadinessClass,
    ReadinessScore,
    Recommendation,
    SegmentAssessment,
    SegmentColumns,
    SensitivityConfig,
    SensitivityScenario,
    classify,
    dump_score_profile_csv,
    dump_score_profile_json,
    load_score_profile_json,
    macro_sensitivity,
    recommend,
    score_corridor,
    score_segment,
)
from hri.taxonomy import (
    V_MAX,
    AutomationLevelGroup,
    MacroCategory,
    WeightTable,
    attribute_ids,
)

ASD = AutomationLevelGroup.ASD
AUD = AutomationLevelGroup.AUD


def obs(values, index=0, length_m=100.0):
    return SegmentObservation(index=index, start_m=index * length_m, length_m=length_m, values=values)


def table_for(attrs, asd_weights, aud_weights):
    weights = {}
    for group, values in ((ASD, asd_weights), (AUD, aud_weights)):
        for attr, w in zip(attrs, values):
            weights[(group, attr)] = w
    return WeightTable(weights)


def direct_ratio(weights, values, v_max=2):
    # independent evaluation of the weighted adequacy ratio
    num = sum(w * v for w, v in zip(weights, values))
    den = sum(w * v_max for w in weights)
    return 100.0 * num / den


def corridor_of(value_rows, corridor_id="c", length_km=None):
    """A 100 m-segment corridor with one values mapping per segment."""
    segments = tuple(obs(values, index=i) for i, values in enumerate(value_rows))
    if length_km is None:
        length_km = len(segments) / 10.0
    return CorridorProfile(corridor_id=corridor_id, length_km=length_km, segment_length_m=100.0, segments=segments)


def reference_score(table, group, values):
    """The weighted ratio summed afresh, in the table's order for the group."""
    numerator = 0.0
    denominator = 0.0
    for attr, weight in table.group_weights(group).items():
        numerator += weight * values[attr]
        denominator += weight * V_MAX
    return min(100.0, max(0.0, 100.0 * numerator / denominator))


@st.composite
def scoring_cases(draw):
    """A custom weight table whose groups list the attributes in different
    orders (zero weights included), a corridor whose attribute set may not
    match it, and a threshold rule."""
    k = draw(st.integers(min_value=1, max_value=6))
    attrs = [f"attr-{i}" for i in range(k)]
    weight = st.one_of(st.just(0.0), st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False))
    weights = {}
    for group in (ASD, AUD):
        for attr in draw(st.permutations(attrs)):
            weights[(group, attr)] = draw(weight)
    corridor_attrs = draw(st.sampled_from([attrs, attrs[1:], attrs + ["extra"]]))
    rows = draw(
        st.lists(
            st.lists(st.sampled_from([0, 1, 2]), min_size=len(corridor_attrs), max_size=len(corridor_attrs)),
            max_size=5,
        )
    )
    threshold = draw(st.one_of(st.sampled_from([33.0, 50.0, 66.0]), st.floats(0.01, 99.99)))
    inclusive = draw(st.booleans())
    profile = corridor_of([dict(zip(corridor_attrs, row)) for row in rows])
    return WeightTable(weights), profile, threshold, inclusive


class TestScoreSegment:
    def test_all_two_scores_100(self, weights):
        for two in (2, 2.0):  # an observation takes a value equal to 0, 1 or 2
            observation = obs({attr: two for attr in attribute_ids()})
            assert score_segment(observation, weights, AUD).value == 100.0

    def test_all_one_scores_50(self, weights):
        for one in (1, 1.0, True):
            observation = obs({attr: one for attr in attribute_ids()})
            assert score_segment(observation, weights, ASD).value == 50.0
            assert score_segment(observation, weights, AUD).value == 50.0

    def test_all_zero_scores_0(self, weights):
        observation = obs({attr: 0 for attr in attribute_ids()})
        assert score_segment(observation, weights, AUD).value == 0.0

    def test_missing_hd_maps_under_automated_weights(self, weights):
        values = {attr: 2 for attr in attribute_ids()}
        values["hd-maps"] = 0
        score = score_segment(obs(values), weights, AUD)
        # oracle: automated weight sum 24.0, hd-maps weight 1.6
        assert score.value == pytest.approx(100.0 * 22.4 / 24.0, abs=1e-6)

    def test_markings_only_under_assisted_weights(self, weights):
        markings = {
            "lane-mark-retroreflectivity",
            "lane-mark-contrast",
            "sign-retroreflectivity",
            "variable-message-signs",
            "lane-mark-width",
        }
        values = {attr: (2 if attr in markings else 0) for attr in attribute_ids()}
        score = score_segment(obs(values), weights, ASD)
        # oracle: assisted markings/signage weights sum to 4.7 of 19.25 total
        assert score.value == pytest.approx(100.0 * 4.7 / 19.25, abs=1e-6)

    def test_zero_weight_sum_rejected(self):
        table = table_for(["a", "b"], [0.0, 0.0], [1.0, 1.0])
        with pytest.raises(ValidationError, match="not positive"):
            score_segment(obs({"a": 2, "b": 2}), table, ASD)

    def test_attribute_mismatch_rejected(self, weights):
        with pytest.raises(ValidationError, match="attribute mismatch"):
            score_segment(obs({"hd-maps": 2}), weights, AUD)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda k: st.tuples(
                st.lists(
                    st.floats(0.0, 5.0, allow_nan=False, allow_infinity=False),
                    min_size=k,
                    max_size=k,
                ),
                st.lists(st.sampled_from([0, 1, 2]), min_size=k, max_size=k),
            )
        )
    )
    def test_bounded_and_matches_direct_evaluation(self, case):
        weights, values = case
        assume(sum(weights) > 0)
        attrs = [f"attr-{i}" for i in range(len(weights))]
        table = table_for(attrs, weights, weights)
        score = score_segment(obs(dict(zip(attrs, values))), table, ASD)
        assert 0.0 <= score.value <= 100.0
        assert score.value == pytest.approx(direct_ratio(weights, values), abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.floats(0.01, 5.0, allow_nan=False), min_size=3, max_size=5),
        st.lists(st.sampled_from([0, 1, 2]), min_size=5, max_size=5),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([0.1, 3.0, 17.0]),
    )
    def test_monotone_and_scale_invariant(self, weights, values, bump_index, scale):
        k = len(weights)
        values = values[:k]
        attrs = [f"attr-{i}" for i in range(k)]
        table = table_for(attrs, weights, weights)
        base = score_segment(obs(dict(zip(attrs, values))), table, ASD).value

        bumped = list(values)
        i = bump_index % k
        bumped[i] = min(2, bumped[i] + 1)
        bumped_score = score_segment(obs(dict(zip(attrs, bumped))), table, ASD).value
        assert bumped_score >= base - 1e-12

        scaled_table = table_for(attrs, [w * scale for w in weights], weights)
        scaled = score_segment(obs(dict(zip(attrs, values))), scaled_table, ASD).value
        assert scaled == pytest.approx(base, abs=1e-9)


class TestClassify:
    @pytest.mark.parametrize(
        ("value", "expected"),
        [
            (0.0, ReadinessClass.UNLIKELY),
            (32.99, ReadinessClass.UNLIKELY),
            (32.999, ReadinessClass.UNLIKELY),
            (33.0, ReadinessClass.MAY_BE),
            (65.99, ReadinessClass.MAY_BE),
            (66.0, ReadinessClass.HIGHLY_LIKELY),
            (78.0, ReadinessClass.HIGHLY_LIKELY),
            (100.0, ReadinessClass.HIGHLY_LIKELY),
        ],
    )
    def test_bands(self, value, expected):
        assert classify(value) is expected

    def test_accepts_score_objects(self):
        assert classify(ReadinessScore(group=ASD, value=78.0)) is ReadinessClass.HIGHLY_LIKELY

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            classify(101.0)

    def test_out_of_range_is_worded_as_the_loaders_word_it(self):
        with pytest.raises(ValueError) as raised:
            classify(101.0)
        assert str(raised.value) == "readiness score 101.0 outside [0, 100]"

    @given(st.floats(0.0, 100.0, allow_nan=False))
    def test_total_and_consistent_with_threshold(self, value):
        cls = classify(value)
        assert cls in ReadinessClass
        assert (cls is ReadinessClass.HIGHLY_LIKELY) == (value >= 66.0)


class TestRecommend:
    def scores(self, asd, aud):
        return {
            ASD: ReadinessScore(group=ASD, value=asd, segment_index=0),
            AUD: ReadinessScore(group=AUD, value=aud, segment_index=0),
        }

    def test_both_groups_pass(self):
        rec = recommend(self.scores(78, 72))
        assert rec.allowed_sae_levels == frozenset({1, 2, 3, 4})

    def test_neither_group_passes(self):
        rec = recommend(self.scores(50, 49))
        assert rec.allowed_sae_levels == frozenset()

    def test_only_assisted_passes(self):
        rec = recommend(self.scores(70, 60))
        assert rec.allowed_sae_levels == frozenset({1, 2})

    def test_threshold_inclusive_by_default(self):
        assert recommend(self.scores(66, 65.999)).allowed_sae_levels == frozenset({1, 2})
        assert recommend(self.scores(66, 66), threshold_inclusive=False).allowed_sae_levels == frozenset()

    def test_groups_evaluated_independently(self):
        rec = recommend(self.scores(60, 70))
        assert rec.allowed_sae_levels == frozenset({3, 4})

    def test_missing_group_rejected(self):
        with pytest.raises(ValidationError, match="missing score"):
            recommend({ASD: ReadinessScore(group=ASD, value=70.0)})

    @given(st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False))
    def test_levels_always_paired(self, asd, aud):
        rec = recommend(self.scores(asd, aud))
        assert rec.allowed_sae_levels in (
            frozenset(),
            frozenset({1, 2}),
            frozenset({3, 4}),
            frozenset({1, 2, 3, 4}),
        )


@st.composite
def registry_cases(draw):
    """A corridor over the registry's attributes, or over one of them, whose
    rows come from a pool of at most four, so rows repeat; and a weight table
    (zero and subnormal weights included) listing the attributes for both
    groups in one shuffled order or for each group in its own, with the
    corridor's rows in one of those orders or in another."""
    attrs = list(attribute_ids())
    if draw(st.booleans()):
        attrs = [draw(st.sampled_from(attrs))]
    weight = st.one_of(st.sampled_from([0.0, 5e-324, 2.2250738585072014e-308]), st.floats(0.0, 5.0))
    asd_order = draw(st.permutations(attrs))
    aud_order = asd_order if draw(st.booleans()) else draw(st.permutations(attrs))
    weights = {(group, attr): draw(weight) for group, order in ((ASD, asd_order), (AUD, aud_order)) for attr in order}
    row_order = draw(st.sampled_from([asd_order, aud_order, draw(st.permutations(attrs))]))
    value_rows = st.lists(st.sampled_from([0, 1, 2]), min_size=len(attrs), max_size=len(attrs))
    pool = draw(st.lists(value_rows, min_size=1, max_size=4))
    rows = draw(st.lists(st.sampled_from(pool), max_size=12))
    return WeightTable(weights), corridor_of([dict(zip(row_order, row)) for row in rows])


class TestScoreCorridor:
    def test_baseline_fixture_fully_ready(self, baseline_assessment):
        for seg in baseline_assessment.segments:
            assert seg.classes[ASD] is ReadinessClass.HIGHLY_LIKELY
            assert seg.classes[AUD] is ReadinessClass.HIGHLY_LIKELY
            assert seg.recommendation.allowed_sae_levels == frozenset({1, 2, 3, 4})

    def test_matches_per_segment_recompute(self, corridor, weights, baseline_assessment):
        for segment, assessed in zip(corridor.segments, baseline_assessment.segments):
            for group in (ASD, AUD):
                expected = direct_ratio(
                    list(weights.group_weights(group).values()),
                    [segment.values[a] for a in weights.group_weights(group)],
                )
                assert assessed.scores[group].value == pytest.approx(expected, abs=1e-9)

    def test_roadworks_drop_is_local(self, corridor, weights, roadworks):
        before = score_corridor(corridor, weights)
        after = score_corridor(apply_overlay(corridor, roadworks), weights)
        for b, a in zip(before.segments, after.segments):
            if 110 <= b.segment_index < 170:
                assert a.scores[AUD].value < b.scores[AUD].value
            else:
                assert a == b

    def test_segment_order_preserved(self, baseline_assessment):
        assert [seg.segment_index for seg in baseline_assessment.segments] == list(range(240))

    @settings(max_examples=300, deadline=None)
    @given(scoring_cases())
    def test_matches_score_segment_exactly(self, case):
        table, profile, threshold, inclusive = case
        try:
            expected = [{group: score_segment(seg, table, group) for group in (ASD, AUD)} for seg in profile.segments]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                score_corridor(profile, table, threshold=threshold, threshold_inclusive=inclusive)
            assert str(raised.value) == str(exc)
            return
        assessment = score_corridor(profile, table, threshold=threshold, threshold_inclusive=inclusive)
        assert len(assessment.segments) == len(expected)
        for seg, assessed, want in zip(profile.segments, assessment.segments, expected):
            for group in (ASD, AUD):
                assert assessed.scores[group].value == want[group].value
                assert assessed.scores[group].value == reference_score(table, group, seg.values)
                assert assessed.classes[group] is classify(want[group])
            assert assessed.recommendation == recommend(want, threshold, threshold_inclusive=inclusive)

    @settings(max_examples=300, deadline=None)
    @given(registry_cases())
    def test_matches_score_segment_bit_for_bit(self, case):
        table, profile = case
        try:
            expected = [[score_segment(seg, table, group).value for group in (ASD, AUD)] for seg in profile.segments]
        except ValidationError as exc:
            with pytest.raises(ValidationError) as raised:
                score_corridor(profile, table)
            assert str(raised.value) == str(exc)
            return
        segments = score_corridor(profile, table).segments
        scored = [[asd, aud] for asd, aud in zip(segments.asd_scores, segments.aud_scores)]
        assert [list(map(repr, pair)) for pair in scored] == [list(map(repr, pair)) for pair in expected]

    @pytest.mark.parametrize("zero", [ASD, AUD])
    def test_zero_weight_sum_message(self, zero):
        attrs = list(attribute_ids())
        table = WeightTable({(group, attr): 0.0 if group is zero else 1.0 for group in (ASD, AUD) for attr in attrs})
        profile = corridor_of([{attr: 2 for attr in attrs}] * 3)
        with pytest.raises(ValidationError) as raised:
            score_corridor(profile, table)
        assert str(raised.value) == f"weight sum for group {zero.value} is not positive"
        assert score_corridor(corridor_of([]), table).segments == ()  # no segment, no ratio to take

    @pytest.mark.parametrize("weight", [1e308, math.inf, math.nan])
    def test_weight_sum_not_finite_when_doubled_message(self, weight):
        attrs = list(attribute_ids())
        table = WeightTable({(group, attr): weight if group is AUD else 1.0 for group in (ASD, AUD) for attr in attrs})
        profile = corridor_of([{attr: 2 for attr in attrs}] * 3)
        for score in (lambda: score_corridor(profile, table), lambda: score_segment(profile.segments[0], table, AUD)):
            with pytest.raises(ValidationError) as raised:
                score()
            assert str(raised.value) == "weight sum for group aud times 2 is not finite"

    @pytest.mark.parametrize("empty_column", [False, True])
    def test_one_attribute_table_matches_score_segment(self, empty_column):
        table = table_for(["lighting"], [1.5], [0.7])
        profile = corridor_of([{"lighting": value} for value in (0, 1, 2, 1)])
        if empty_column:  # a column no segment has a value for, before the scored one
            rows = [bytes([MISSING, value]) for value in (0, 1, 2, 1)]
            profile = replace(profile, segments=SegmentRows(("lane-width", "lighting"), rows, 100.0))
        segments = score_corridor(profile, table).segments
        expected = [[score_segment(seg, table, group).value for group in (ASD, AUD)] for seg in profile.segments]
        assert [list(pair) for pair in zip(segments.asd_scores, segments.aud_scores)] == expected
        assert expected[1] == [50.0, 50.0]

    def test_attribute_mismatch_message(self, weights):
        values = {attr: 2 for attr in attribute_ids() if attr != "hd-maps"}
        values["potholes"] = 1
        with pytest.raises(ValidationError) as raised:
            score_corridor(corridor_of([values]), weights)
        assert str(raised.value) == (
            "attribute mismatch between observation and weights: "
            "weights missing for ['potholes']; observation missing ['hd-maps']"
        )


_PHYSICAL = [category for category in MacroCategory if category is not MacroCategory.PRELOADED_HD_MAPS]


class TestMacroSensitivity:
    def test_compliant_no_hd_automated_is_66(self):
        config = SensitivityConfig(scenario=SensitivityScenario.COMPLIANT_NO_HD)
        scores = macro_sensitivity(config)
        # oracle: 100 * (2*(1.1+1.5+0.7)) / (2*(1.1+1.5+0.7+1.7)) = 66.0
        assert scores[AUD].value == pytest.approx(66.0, abs=1e-9)
        assert scores[ASD].value == pytest.approx(75.0, abs=1e-9)

    def test_hd_maps_compensate_degradation(self):
        degraded_with = macro_sensitivity(
            SensitivityConfig(scenario=SensitivityScenario.DEGRADED_WITH_HD)
        )
        degraded_without = macro_sensitivity(
            SensitivityConfig(scenario=SensitivityScenario.DEGRADED_NO_HD)
        )
        gaps = {}
        for group in (ASD, AUD):
            assert degraded_with[group].value > degraded_without[group].value
            gaps[group] = degraded_with[group].value - degraded_without[group].value
        assert gaps[AUD] > gaps[ASD]

    def test_uniform_adequacy_one_scores_50(self):
        config = SensitivityConfig(
            scenario=SensitivityScenario.DEGRADED_NO_HD,
            degraded_levels={category: 1 for category in MacroCategory if category is not MacroCategory.PRELOADED_HD_MAPS},
        )
        values = config.category_values()
        values[MacroCategory.PRELOADED_HD_MAPS] = 1
        # evaluate directly with every category at 1
        from hri.taxonomy import macro_weight_table

        table = macro_weight_table()
        for group in (ASD, AUD):
            num = sum(table[(group, c)] * values[c] for c in MacroCategory)
            den = sum(table[(group, c)] * 2 for c in MacroCategory)
            assert 100.0 * num / den == pytest.approx(50.0, abs=1e-9)

    def test_degraded_level_zero_allowed(self):
        config = SensitivityConfig(
            scenario=SensitivityScenario.DEGRADED_NO_HD,
            degraded_levels={
                MacroCategory.ROAD_MARKINGS_SIGNAGE: 0,
                MacroCategory.ROAD_MAINTENANCE_MANAGEMENT: 0,
                MacroCategory.ROADWAY_DESIGN_SAFETY: 0,
            },
        )
        scores = macro_sensitivity(config)
        assert scores[AUD].value == 0.0

    @pytest.mark.parametrize("level", [1.0, True])
    def test_degraded_level_equal_to_an_int_scores_as_it(self, level):
        scored = {}
        for scenario in SensitivityScenario:
            scores = macro_sensitivity(SensitivityConfig(scenario, dict.fromkeys(_PHYSICAL, level)))
            expected = macro_sensitivity(SensitivityConfig(scenario, dict.fromkeys(_PHYSICAL, int(level))))
            scored[scenario] = [scores[group].value for group in (ASD, AUD)]
            assert scored[scenario] == [expected[group].value for group in (ASD, AUD)]
        assert scored[SensitivityScenario.DEGRADED_NO_HD] == pytest.approx([37.5, 33.0], abs=1e-9)

    def test_rejects_bad_levels(self):
        with pytest.raises(ValueError):
            SensitivityConfig(
                scenario=SensitivityScenario.DEGRADED_NO_HD,
                degraded_levels={MacroCategory.ROAD_MARKINGS_SIGNAGE: 3},
            )


class TestScoreProfiles:
    def test_csv_shape(self, baseline_assessment):
        lines = dump_score_profile_csv(baseline_assessment).strip().split("\n")
        assert lines[0] == "segment_index,start_km,asd_score,aud_score,asd_class,aud_class,allowed_levels"
        assert len(lines) == 1 + 240
        assert lines[1].startswith("0,0.000,")
        assert '"1,2,3,4"' in lines[1]

    def test_json_round_trip(self, baseline_assessment, tmp_path):
        path = tmp_path / "profile.json"
        path.write_text(dump_score_profile_json(baseline_assessment))
        assert load_score_profile_json(path) == baseline_assessment

    def test_json_carries_full_precision(self, baseline_assessment):
        doc = json.loads(dump_score_profile_json(baseline_assessment))
        raw = doc["segments"][0]["asd_score"]
        assert raw == baseline_assessment.segments[0].scores[ASD].value


class TestSegmentAssessmentStore:
    def store(self, asd=70.0, aud=40.0, levels=frozenset({1, 2}), index=4):
        return SegmentAssessment(
            segment_index=index, start_m=index * 100.0, length_m=100.0,
            asd_score=asd, aud_score=aud, allowed_sae_levels=levels,
        )

    def test_views_are_derived_from_the_store(self):
        seg = self.store()
        scores = {ASD: ReadinessScore(ASD, 70.0, 4), AUD: ReadinessScore(AUD, 40.0, 4)}
        assert type(seg.scores) is MappingProxyType and seg.scores == scores
        assert type(seg.classes) is MappingProxyType
        assert dict(seg.classes) == {ASD: ReadinessClass.HIGHLY_LIKELY, AUD: ReadinessClass.MAY_BE}
        assert seg.recommendation == Recommendation(4, frozenset({1, 2}))
        assert seg.recommendation == recommend(scores)
        assert seg.end_m == 500.0

    def test_level_sets_are_shared(self, baseline_assessment):
        shared = {id(seg.allowed_sae_levels) for seg in baseline_assessment.segments}
        assert len(shared) == 1
        assert self.store(levels={1, 2}).allowed_sae_levels is self.store(levels=[2, 1]).allowed_sae_levels
        assert recommend(self.store().scores).allowed_sae_levels is self.store().allowed_sae_levels

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"asd": 100.5}, "readiness score 100.5 outside [0, 100]"),
            ({"aud": -0.1}, "readiness score -0.1 outside [0, 100]"),
            ({"aud": float("nan")}, "readiness score nan outside [0, 100]"),
            ({"levels": frozenset({1, 3})}, "unpaired SAE levels [1, 3]"),
            ({"levels": frozenset({1})}, "unpaired SAE levels [1]"),
            ({"levels": frozenset({1, 2, 5, 6})}, "invalid SAE levels [1, 2, 5, 6]"),
        ],
    )
    def test_invariants_keep_their_texts(self, kwargs, message):
        with pytest.raises(ValueError) as raised:
            self.store(**kwargs)
        assert str(raised.value) == message
        if "levels" in kwargs:
            with pytest.raises(ValueError) as raised:
                Recommendation(0, kwargs["levels"])
            assert str(raised.value) == message

    def test_loader_accepts_integral_floats(self, baseline_assessment, tmp_path):
        doc = json.loads(dump_score_profile_json(baseline_assessment))
        doc["segments"][2]["segment_index"] = 2.0
        doc["segments"][2]["allowed_sae_levels"] = [1.0, 2.0, 3, 4]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert load_score_profile_json(path) == baseline_assessment

    @pytest.mark.parametrize("segment, field, value", [(0, "start_m", False), (1, "length_m", True)])
    def test_loader_refuses_a_bool_equal_to_the_grid(self, tmp_path, segment, field, value):
        # false == 0.0 is the first start, and true == 1.0 a length on a 1 m grid: still not numbers
        columns = SegmentColumns([50.0, 50.0], [50.0, 50.0], [0, 0], 1.0)
        doc = json.loads(dump_score_profile_json(CorridorAssessment("c", 0.002, 1.0, 66.0, "x", columns)))
        doc["segments"][segment][field] = value
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as raised:
            load_score_profile_json(path)
        assert str(raised.value) == f"{path}: bad score profile: {field} {value} is not a number"

    def test_loader_rechecks_levels_at_the_threshold(self, weights, tmp_path):
        # an all-1 segment scores exactly 50 in both groups: its levels differ under >= and >
        profile = corridor_of([{attr: 1 for attr in attribute_ids()}, {attr: 2 for attr in attribute_ids()}])
        path = tmp_path / "profile.json"
        for inclusive in (True, False):
            assessment = score_corridor(profile, weights, threshold=50.0, threshold_inclusive=inclusive)
            path.write_text(dump_score_profile_json(assessment))
            assert load_score_profile_json(path) == assessment
        doc = json.loads(path.read_text())
        doc["segments"][0]["allowed_sae_levels"] = [1, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as raised:
            load_score_profile_json(path)
        assert str(raised.value) == f"{path}: segment 0: allowed_sae_levels [1, 2] do not match the scores at threshold 50.0"

    @pytest.mark.parametrize("inclusive", [True, False])
    def test_loader_refuses_level_sets_that_follow_both_rules(self, weights, tmp_path, inclusive):
        # all-1 segments score exactly 50 in both groups: segment 2's set is written under the other rule
        assessment = score_corridor(corridor_of([dict.fromkeys(attribute_ids(), 1)] * 3), weights, threshold=50.0,
                                    threshold_inclusive=inclusive)
        doc = json.loads(dump_score_profile_json(assessment))
        doc["segments"][2]["allowed_sae_levels"] = [] if inclusive else [1, 2, 3, 4]
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError) as raised:
            load_score_profile_json(path)
        rules = (">", ">=") if inclusive else (">=", ">")
        assert str(raised.value) == (
            f"{path}: segment 2: allowed_sae_levels {doc['segments'][2]['allowed_sae_levels']} follow score {rules[0]} "
            f"threshold 50.0, but segment 0's follow score {rules[1]} threshold"
        )

    @pytest.mark.parametrize(
        "edit, error, message",
        [
            ({"segment_length_m": 0.4}, ValidationError, "segment_length_m must be at least 1 m, got 0.4"),
            ({"length_km": float("nan")}, ValidationError, "length_km must be at least 0 and finite in metres, got nan"),
            ({"length_km": 12.0}, ValidationError, "240 segments, expected 120 for 12.0 km at 100.0 m"),
            ({"segments": [5]}, ParseError, "bad score profile: segment 0 is not an object"),
            # an empty object or string loaded as no segments
            ({"segments": {}, "length_km": 0}, ParseError, "bad score profile: segments must be a list"),
            ({"segments": "", "length_km": 0}, ParseError, "bad score profile: segments must be a list"),
            ({"length_km": 0.25}, ValidationError, "240 segments, expected 3 for 0.25 km at 100.0 m"),
            # the header is read before the segments, and a null corridor_id was read as the corridor 'None'
            ({"corridor_id": None, "segments": [5]}, ParseError, "corridor metadata: corridor_id None is not a string"),
        ],
    )
    def test_loader_checks_the_corridor_geometry(self, baseline_assessment, tmp_path, edit, error, message):
        doc = dict(json.loads(dump_score_profile_json(baseline_assessment)), **edit)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(error) as raised:
            load_score_profile_json(path)
        assert str(raised.value) == f"{path}: {message}"

    def test_loader_reports_the_first_segment_with_a_score_out_of_range(self, baseline_assessment, tmp_path):
        # segment 1's aud score is at fault before segment 2's asd score, though asd is the first column
        doc = json.loads(dump_score_profile_json(baseline_assessment))
        doc["segments"][1]["aud_score"] = 100.5
        doc["segments"][2]["asd_score"] = -1.0
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as raised:
            load_score_profile_json(path)
        assert str(raised.value) == f"{path}: bad score profile: readiness score 100.5 outside [0, 100]"

    def test_loader_accepts_a_class_name_in_other_case(self, baseline_assessment, tmp_path):
        doc = json.loads(dump_score_profile_json(baseline_assessment))
        doc["segments"][0]["asd_class"] = " Highly-Likely "
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        assert load_score_profile_json(path) == baseline_assessment


class TestSegmentColumns:
    def test_columns_and_views(self, baseline_assessment):
        segments = baseline_assessment.segments
        assert type(segments) is SegmentColumns and len(segments) == 240
        assert segments.levels == bytes([3]) * 240
        assert segments[7] == SegmentAssessment(7, 700.0, 100.0, segments.asd_scores[7], segments.aud_scores[7], {1, 2, 3, 4})
        assert segments[-1].segment_index == 239 and segments[2:4] == (segments[2], segments[3])
        rebuilt = CorridorAssessment("c", 24.0, 100.0, 66.0, "x", tuple(segments))
        assert rebuilt.segments == segments and hash(rebuilt.segments) == hash(segments)

    @pytest.mark.parametrize("length_km, expected", [(0.25, 3), (30.0, 300)])
    def test_assessment_count_must_match_its_length(self, baseline_assessment, length_km, expected):
        # build_ivim cuts the last zone at length_km, so a count that disagrees with it must not get that far
        with pytest.raises(ValidationError) as raised:
            replace(baseline_assessment, length_km=length_km)
        assert str(raised.value) == f"corridor 'D08-synthetic': 240 segments, expected {expected} for {length_km} km at 100.0 m"

    @pytest.mark.parametrize(
        "length_km, segment_length_m, message",
        [
            (math.inf, 100.0, "length_km must be at least 0 and finite in metres, got inf"),  # was an OverflowError
            (math.nan, 100.0, "length_km must be at least 0 and finite in metres, got nan"),  # was a bare ValueError
            (-0.2, 100.0, "length_km must be at least 0 and finite in metres, got -0.2"),  # was "expected -2"
            (0.0, 0.5, "segment_length_m must be at least 1 m, got 0.5"),  # was accepted, though no loader reads it
            (1.0, math.inf, "segment_length_m must be at least 1 m, got inf"),  # was accepted as 0 segments
        ],
    )
    @pytest.mark.parametrize("kind", ["profile", "assessment"])
    def test_containers_hold_their_header_to_the_rule(
        self, corridor, baseline_assessment, kind, length_km, segment_length_m, message
    ):
        header = {"corridor_id": "x", "length_km": length_km, "segment_length_m": segment_length_m}
        good = corridor if kind == "profile" else baseline_assessment
        scoring = {} if kind == "profile" else {"threshold": 66.0, "weight_provenance": "w"}
        for make in (lambda: type(good)(segments=(), **scoring, **header), lambda: replace(good, **header)):
            with pytest.raises(ValidationError) as raised:
                make()
            assert str(raised.value) == f"corridor 'x': {message}"

    @pytest.mark.parametrize(
        "index, start_m, length_m, message",
        [
            (1, 0.0, 100.0, "segment 1: segment_index 1 at position 0"),
            (0, 0.0, 50.0, "segment 0: length_m 50.0 != segment_length_m 100.0"),
            (0, 0.5, 100.0, "segment 0: start_m 0.5 != segment_index * segment_length_m (0.0)"),
            (0, math.nan, 100.0, "segment 0: start_m nan != segment_index * segment_length_m (0.0)"),
            (0, 0.0, math.nan, "segment 0: length_m nan != segment_length_m 100.0"),
        ],
    )
    def test_segments_off_the_grid_rejected(self, index, start_m, length_m, message):
        segment = SegmentAssessment(index, start_m, length_m, 50.0, 50.0, frozenset())
        with pytest.raises(ValidationError) as raised:
            CorridorAssessment("c", 0.1, 100.0, 66.0, "x", (segment,))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "asd, aud, levels, message",
        [
            ([50.0], [50.0], [7], "level byte 7 is not the code of an allowed-level set 0..3"),
            ([50.0, 50.0], [50.0, 50.0], [3, 4], "level byte 4 is not the code of an allowed-level set 0..3"),
            ([150.0], [50.0], [0], "readiness score 150.0 outside [0, 100]"),
            ([50.0, 50.0], [50.0, -0.5], [0, 0], "readiness score -0.5 outside [0, 100]"),
            ([50.0, math.nan, 50.0], [50.0] * 3, [0] * 3, "readiness score nan outside [0, 100]"),
            ([50.0], [101], [0], "readiness score 101 outside [0, 100]"),
            ([50.0, 50.0], [math.inf, 1e308], [0, 0], "readiness score inf outside [0, 100]"),
            ([50.0, -1.0], [101.0, 50.0], [0, 0], "readiness score -1.0 outside [0, 100]"),
            ([50.0, 50.0], [50.0], [0, 0], "columns of unequal length: asd scores 2, aud scores 1, levels 2"),
        ],
        ids=[
            "level-7", "level-4", "score-150", "score-negative", "score-nan", "int-score-101", "non-finite",
            "asd-column-first", "lengths",
        ],
    )
    def test_columns_refuse_values_no_writer_can_use(self, asd, aud, levels, message):
        # a level byte of 7 would reach build_ivim and the JSON writer as an IndexError, and a score of 150.0,
        # NaN or inf would be written into a profile the loader refuses; bools, ints and the bounds load
        assert len(SegmentColumns([0, True, 100.0, 33.5], [False, 66, 0.0, 100], [0, 1, 2, 3], 100.0)) == 4
        with pytest.raises(ValueError) as raised:
            SegmentColumns(asd, aud, levels, 100.0)
        assert str(raised.value) == message

    def test_loader_accepts_integral_numbers_and_start_within_tolerance(self, baseline_assessment, tmp_path):
        doc = json.loads(dump_score_profile_json(baseline_assessment))
        doc["segments"][3].update(segment_index=3.0, length_m=100, start_m=300.0000004)
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(doc))
        loaded = load_score_profile_json(path)
        assert loaded == baseline_assessment
        assert loaded.segments[3].start_m == 300.0


def reference_profile_json(assessment):
    """The JSON score profile as ``json.dumps(doc, indent=2)`` writes it."""
    doc = {
        "corridor_id": assessment.corridor_id,
        "length_km": assessment.length_km,
        "segment_length_m": assessment.segment_length_m,
        "threshold": assessment.threshold,
        "weight_provenance": assessment.weight_provenance,
        "segments": [
            {
                "segment_index": seg.segment_index,
                "start_m": seg.start_m,
                "length_m": seg.length_m,
                "asd_score": seg.scores[ASD].value,
                "aud_score": seg.scores[AUD].value,
                "asd_class": seg.classes[ASD].value,
                "aud_class": seg.classes[AUD].value,
                "allowed_sae_levels": sorted(seg.recommendation.allowed_sae_levels),
            }
            for seg in assessment.segments
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


class TestJsonProfileLayout:
    def check(self, assessment, tmp_path):
        text = dump_score_profile_json(assessment)
        assert text == reference_profile_json(assessment)
        path = tmp_path / "profile.json"
        path.write_text(text, encoding="utf-8")
        assert load_score_profile_json(path) == assessment

    @pytest.mark.parametrize("overlays", [(), ("roadworks",), ("maintenance",), ("roadworks", "maintenance")])
    def test_fixture_with_overlays(self, corridor, weights, roadworks, maintenance, overlays, tmp_path):
        by_name = {"roadworks": roadworks, "maintenance": maintenance}
        profile = corridor
        for name in overlays:
            profile = apply_overlay(profile, by_name[name])
        self.check(score_corridor(profile, weights), tmp_path)

    def test_empty_level_set(self, weights, tmp_path):
        assessment = score_corridor(
            corridor_of([{attr: 0 for attr in attribute_ids()}, {attr: 2 for attr in attribute_ids()}]), weights
        )
        assert assessment.segments[0].recommendation.allowed_sae_levels == frozenset()
        self.check(assessment, tmp_path)

    def test_zero_segments(self, weights, tmp_path):
        assessment = score_corridor(corridor_of([]), weights)
        assert assessment.segments == ()
        self.check(assessment, tmp_path)

    def test_escaped_strings(self, weights, tmp_path):
        table = WeightTable(weights.weights, provenance='survey "2024" \\ Zürich')
        profile = corridor_of([{attr: 1 for attr in attribute_ids()}], corridor_id='A4 "north" \\ Brücke 路')
        self.check(score_corridor(profile, table), tmp_path)

    def columns_assessment(self, asd, aud, corridor_id="c", segment_length_m=100.0):
        n = len(asd)
        levels = [(a >= 66.0) + 2 * (u >= 66.0) for a, u in zip(asd, aud)]
        return CorridorAssessment(
            corridor_id, n * segment_length_m / 1000.0, segment_length_m, 66.0, "builtin",
            SegmentColumns(asd, aud, levels, segment_length_m),
        )

    def test_integer_scores_and_the_bounds(self, tmp_path):
        self.check(self.columns_assessment([0, 100, 0.0, 100.0, 66], [100.0, 0.0, 50, 65.99999999999999, 33.0]), tmp_path)

    def test_bool_scores(self):
        assessment = self.columns_assessment([True, 2.5, False], [False, 1, True])
        assert dump_score_profile_json(assessment) == reference_profile_json(assessment)

    def test_non_ascii_corridor_id(self, weights, tmp_path):
        profile = corridor_of([{attr: 2 for attr in attribute_ids()}], corridor_id="Autobahn Ö \U0001f697 \u00e9\u200b")
        self.check(score_corridor(profile, weights), tmp_path)

    @pytest.mark.parametrize("segments", [1, 4])
    def test_whole_number_starts_past_2_to_the_53(self, segments, tmp_path):
        # at 2**52 + 1 m a segment, segment 3 starts at an odd whole number past 2**53, which no float holds
        scores = [50.0] * segments
        self.check(self.columns_assessment(scores, scores, segment_length_m=2.0**52 + 1), tmp_path)

    def test_non_integral_segment_length(self, tmp_path):
        self.check(self.columns_assessment([12.5, 80.0, 66.0, 100.0], [0.0, 99.9, 70.1, 33.3], segment_length_m=33.3), tmp_path)

    def test_non_integral_length_and_int_threshold(self, weights, tmp_path):
        profile = corridor_of([{attr: (i + j) % 3 for j, attr in enumerate(attribute_ids())} for i in range(3)], length_km=0.25)
        self.check(score_corridor(profile, weights), tmp_path)
        self.check(score_corridor(profile, weights, threshold=70), tmp_path)
