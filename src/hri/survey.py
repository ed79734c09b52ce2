"""Expert-survey ingestion and aggregation.

Responses rate how the absence or degradation of each infrastructure
attribute would affect automated-driving operation, separately for the
assisted (SAE 1-2) and automated (SAE 3-4) groups, on a 0/1/2 impact scale.
A second section rates how far cooperative Day 1/2/3 services could extend
vehicle capabilities.

Aggregation is plain arithmetic means. Missing ratings are excluded from
the denominator, never imputed as zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from ._util import BLANKS, check_adequacy, name_reader, parse_adequacy, parse_int, read_csv_table, read_input
from ._util import write_csv_table
from .errors import ValidationError
from .taxonomy import (
    PROVENANCE_CUSTOM,
    AutomationLevelGroup,
    WeightTable,
    attribute_ids,
    is_known_attribute,
)


class Region(Enum):
    EUROPE = "europe"
    USA = "usa"
    OTHER = "other"

    @classmethod
    def parse(cls, text: str) -> Region:
        return _read_region(text)


class DayService(Enum):
    DAY1 = "day1"
    DAY2 = "day2"
    DAY3 = "day3"


@dataclass(frozen=True)
class SurveyResponse:
    """One expert's profile and ratings. Attribute coverage may be partial."""

    respondent_id: str
    role: str
    region: Region
    av_expertise: int
    cits_expertise: int
    attribute_ratings: Mapping[tuple[str, AutomationLevelGroup], int] = field(default_factory=dict)
    cits_day_ratings: Mapping[DayService, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name, value in (("av_expertise", self.av_expertise), ("cits_expertise", self.cits_expertise)):
            if not 1 <= value <= 5:
                raise ValueError(f"{name} must be in [1, 5], got {value}")
        for key, rating in self.attribute_ratings.items():
            check_adequacy(rating, f"rating for {key}")
        for day, rating in self.cits_day_ratings.items():
            check_adequacy(rating, f"rating for {day.value}")
        object.__setattr__(self, "attribute_ratings", MappingProxyType(dict(self.attribute_ratings)))
        object.__setattr__(self, "cits_day_ratings", MappingProxyType(dict(self.cits_day_ratings)))


def aggregate_mean_impact(
    responses: Sequence[SurveyResponse],
    attributes: Iterable[str] | None = None,
) -> WeightTable:
    """Column means of attribute ratings, as a ``custom`` weight table.

    Every (attribute, group) cell must have at least one rating; uncovered
    cells are reported together in one error.
    """
    ids = tuple(attributes) if attributes is not None else attribute_ids()
    if not responses:
        raise ValidationError("cannot aggregate an empty response list")
    sums: dict[tuple[AutomationLevelGroup, str], int] = {}
    counts: dict[tuple[AutomationLevelGroup, str], int] = {}
    for response in responses:
        for (attr, group), rating in response.attribute_ratings.items():
            if attr not in ids:
                continue
            key = (group, attr)
            sums[key] = sums.get(key, 0) + rating
            counts[key] = counts.get(key, 0) + 1
    missing = [
        (group, attr)
        for attr in ids
        for group in AutomationLevelGroup
        if counts.get((group, attr), 0) == 0
    ]
    if missing:
        listed = ", ".join(f"({g.value}, {a})" for g, a in missing)
        raise ValidationError(f"no ratings for: {listed}")
    weights = {
        (group, attr): sums[(group, attr)] / counts[(group, attr)]
        for group in AutomationLevelGroup
        for attr in ids
    }
    return WeightTable(weights, provenance=PROVENANCE_CUSTOM)


def impact_difference(table: WeightTable) -> dict[str, float]:
    """Per-attribute automated-minus-assisted weight difference."""
    diffs: dict[str, float] = {}
    for attr in table.attribute_ids_present():
        try:
            aud = table.lookup(AutomationLevelGroup.AUD, attr)
            asd = table.lookup(AutomationLevelGroup.ASD, attr)
        except KeyError as exc:
            raise ValidationError(exc.args[0]) from None
        diffs[attr] = aud - asd
    return diffs


def grouped_mean(
    responses: Sequence[SurveyResponse],
) -> dict[tuple[Region, DayService], float]:
    """Mean Day-service rating per (region, day).

    Groups with no ratings at all are absent from the result rather than
    reported as zero.
    """
    sums: dict[tuple[Region, DayService], int] = {}
    counts: dict[tuple[Region, DayService], int] = {}
    for response in responses:
        for day, rating in response.cits_day_ratings.items():
            key = (response.region, day)
            sums[key] = sums.get(key, 0) + rating
            counts[key] = counts.get(key, 0) + 1
    return {key: sums[key] / counts[key] for key in sums}


# ---------------------------------------------------------------------------
# File interchange
#
# Ratings CSV: one row per (respondent, attribute, group, rating).
# Respondents CSV: respondent_id,role,region,av_expertise,cits_expertise,
# day1,day2,day3 (day cells may be empty when unanswered).
# ---------------------------------------------------------------------------

_read_region = name_reader(Region, "region")
_RATINGS_HEADER = ("respondent_id", "attribute", "group", "rating")
_RESPONDENTS_HEADER = ("respondent_id", "role", "region", "av_expertise", "cits_expertise", "day1", "day2", "day3")


def load_survey(
    ratings_path: str | Path,
    respondents_path: str | Path,
) -> list[SurveyResponse]:
    """Load responses from the two-file CSV form, strictly.

    Errors carry the offending file and line number; ratings must reference
    respondents declared in the sidecar file. Each respondent is built as its
    row is read, so the respondents file is checked whole before the ratings.
    """
    responses: dict[str, SurveyResponse] = {}  # by respondent_id, in file order
    ratings: dict[str, dict[tuple[str, AutomationLevelGroup], int]] = {}  # by respondent_id

    def read_respondent(row: list[str]) -> None:
        rid = row[0].strip(BLANKS)
        if rid in responses:
            raise ValueError(f"duplicate respondent {rid!r}")
        region = Region.parse(row[2])
        try:
            av_exp, cits_exp = parse_int(row[3]), parse_int(row[4])
        except ValueError:
            raise ValueError("malformed expertise value") from None
        cells = zip(DayService, (cell.strip(BLANKS) for cell in row[5:8]))
        days = {day: parse_adequacy(cell, "rating") for day, cell in cells if cell}
        responses[rid] = SurveyResponse(rid, row[1].strip(BLANKS), region, av_exp, cits_exp, cits_day_ratings=days)
        ratings[rid] = {}  # filled from the ratings file

    def read_rating(row: list[str]) -> None:
        rid = row[0].strip(BLANKS)
        if rid not in ratings:
            raise ValueError(f"unknown respondent {rid!r}")
        attr = row[1].strip(BLANKS)
        if not is_known_attribute(attr):
            raise ValueError(f"unknown attribute {attr!r}")
        group = AutomationLevelGroup.parse(row[2])
        key = (attr, group)
        if key in ratings[rid]:
            raise ValueError(f"duplicate rating for ({rid}, {attr}, {group.value})")
        ratings[rid][key] = parse_adequacy(row[3], "rating")

    for path, header, read_row in (
        (respondents_path, _RESPONDENTS_HEADER, read_respondent),
        (ratings_path, _RATINGS_HEADER, read_rating),
    ):
        read_csv_table(read_input(path), str(path), header, "empty file", read_row)
    return [replace(response, attribute_ratings=ratings[rid]) for rid, response in responses.items()]


def dump_impact_difference(diffs: Mapping[str, float]) -> str:
    """Difference report CSV, rounded to the 2-decimal display convention."""
    rows = ((attr, f"{diff:.2f}") for attr, diff in diffs.items())
    return write_csv_table(("attribute", "impact_difference"), rows)


def dump_grouped_means(means: Mapping[tuple[Region, DayService], float]) -> str:
    """Region/day mean report CSV, 2-decimal display rounding."""
    rows = (
        (region.value, day.value, f"{means[(region, day)]:.2f}")
        for region in Region
        for day in DayService
        if (region, day) in means
    )
    return write_csv_table(("region", "day_service", "mean_rating"), rows)
