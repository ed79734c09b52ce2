from __future__ import annotations

import pytest

from hri.errors import ParseError
from hri.taxonomy import (
    Attribute,
    AutomationLevelGroup,
    MacroCategory,
    WeightTable,
    attribute_by_id,
    attribute_ids,
    builtin_attribute_registry,
    builtin_weight_table,
    dump_weight_table,
    macro_weight_table,
    parse_weight_table,
    validate_weight_table,
)

ASD = AutomationLevelGroup.ASD
AUD = AutomationLevelGroup.AUD


class TestRegistry:
    def test_has_23_attributes(self):
        assert len(builtin_attribute_registry()) == 23

    def test_first_entry_is_markings_signage(self):
        assert builtin_attribute_registry()[0].category is MacroCategory.ROAD_MARKINGS_SIGNAGE

    def test_category_partition(self):
        counts = {category: 0 for category in MacroCategory}
        for attribute in builtin_attribute_registry():
            counts[attribute.category] += 1
        assert counts == {
            MacroCategory.ROAD_MARKINGS_SIGNAGE: 5,
            MacroCategory.ROAD_MAINTENANCE_MANAGEMENT: 6,
            MacroCategory.ROADWAY_DESIGN_SAFETY: 11,
            MacroCategory.PRELOADED_HD_MAPS: 1,
        }

    def test_categories_are_contiguous(self):
        seen: list[MacroCategory] = []
        for attribute in builtin_attribute_registry():
            if not seen or seen[-1] is not attribute.category:
                seen.append(attribute.category)
        assert len(seen) == 4  # each category appears as one contiguous block

    def test_id_round_trip(self):
        for attribute in builtin_attribute_registry():
            assert attribute_by_id(attribute.id) == attribute

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError, match="unknown attribute"):
            attribute_by_id("potholes")


class TestBuiltinWeights:
    def test_spot_values(self, weights):
        assert weights.lookup(AUD, "lane-mark-consistency") == 1.85
        assert weights.lookup(ASD, "rumble-stripes") == 0.2
        assert weights.lookup(AUD, "hd-maps") == 1.6

    def test_totality(self, weights):
        assert len(weights.weights) == 2 * 23

    def test_group_sums(self, weights):
        assert weights.group_sum(ASD) == pytest.approx(19.25, abs=1e-9)
        assert weights.group_sum(AUD) == pytest.approx(24.0, abs=1e-9)
        assert weights.group_sum(ASD) > 0
        assert weights.group_sum(AUD) > 0

    def test_aud_dominates_except_horizontal_curvature(self, weights):
        for attr in attribute_ids():
            asd_w = weights.lookup(ASD, attr)
            aud_w = weights.lookup(AUD, attr)
            if attr == "horizontal-curvature":
                assert aud_w < asd_w
            else:
                assert aud_w >= asd_w

    def test_provenance(self, weights):
        assert weights.provenance == "builtin-fig2"

    def test_valid(self, weights):
        assert validate_weight_table(weights) == []


class TestMacroWeights:
    def test_table_values(self):
        table = macro_weight_table()
        assert table[(AUD, MacroCategory.PRELOADED_HD_MAPS)] == 1.7
        assert table[(ASD, MacroCategory.ROADWAY_DESIGN_SAFETY)] == 0.5
        assert table[(ASD, MacroCategory.ROAD_MAINTENANCE_MANAGEMENT)] == 1.3
        assert len(table) == 8


class TestValidation:
    def test_missing_pair_reported(self, weights):
        trimmed = {k: v for k, v in weights.weights.items() if k != (AUD, "hd-maps")}
        issues = validate_weight_table(WeightTable(trimmed))
        assert [i.kind for i in issues] == ["missing"]
        assert issues[0].group is AUD
        assert issues[0].attribute_id == "hd-maps"

    def test_negative_weight_reported(self, weights):
        poisoned = dict(weights.weights)
        poisoned[(ASD, "lighting")] = -0.1
        issues = validate_weight_table(WeightTable(poisoned))
        assert [i.kind for i in issues] == ["negative"]

    def test_all_zero_group_reported(self, weights):
        flat = {k: (0.0 if k[0] is AUD else v) for k, v in weights.weights.items()}
        issues = validate_weight_table(WeightTable(flat))
        assert any(i.kind == "all-zero" and i.group is AUD for i in issues)


class TestWeightTableCsv:
    def test_round_trip(self, weights):
        parsed = parse_weight_table(dump_weight_table(weights))
        assert dict(parsed.weights) == dict(weights.weights)

    def test_unknown_attribute_rejected(self):
        text = "attribute,asd_weight,aud_weight\npotholes,1,1\n"
        with pytest.raises(ParseError, match="unknown attribute"):
            parse_weight_table(text)

    def test_duplicate_rejected(self):
        text = (
            "attribute,asd_weight,aud_weight\n"
            "hd-maps,1,1\n"
            "hd-maps,2,2\n"
        )
        with pytest.raises(ParseError, match="duplicate") as excinfo:
            parse_weight_table(text)
        assert excinfo.value.line == 3

    def test_bad_header_rejected(self):
        with pytest.raises(ParseError, match="header"):
            parse_weight_table("attr,a,b\nhd-maps,1,1\n")

    def test_oversized_field_names_its_line(self):
        text = "attribute,asd_weight,aud_weight\nhd-maps,1,1\nhd-maps," + "1" * 200_000 + ",1\n"
        with pytest.raises(ParseError, match="malformed CSV: field larger than field limit") as excinfo:
            parse_weight_table(text, source="w.csv")
        assert (excinfo.value.source, excinfo.value.line) == ("w.csv", 3)

    def test_malformed_number_rejected(self):
        with pytest.raises(ParseError, match="malformed weight"):
            parse_weight_table("attribute,asd_weight,aud_weight\nhd-maps,high,1\n")
