"""Synthetic fixtures: a plausible 24 km corridor and constructed surveys.

The corridor is SYNTHETIC. The real campaign data behind the D08
Gallarate-Gattico assessment is not published, so this fixture is built to
land in the same readiness band (every baseline segment highly-likely for
both groups) while showing realistic km-scale variation. It is generated
deterministically; the committed CSV under ``data/fixtures`` must always
equal the generator output.

Survey fixtures are constructed backwards from the built-in weight table:
for each (attribute, group) cell the generator picks the smallest rater
subset whose integer ratings average exactly to the target weight. With 17
respondents four distinct target values (x.x5 weights, denominator 20) have
no exact rating multiset, so the 17-respondent fixture carries the closest
achievable means for those cells; 20 respondents reproduce every cell
exactly.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from .corridor import CorridorProfile, ScenarioOverlay, SegmentObservation, load_corridor, load_overlay
from .survey import DayService, Region, SurveyResponse
from .taxonomy import AutomationLevelGroup, attribute_ids, builtin_weight_table

_FIXTURE_DIR = "data/fixtures"

BASELINE_CORRIDOR_FILE = "d08_baseline.csv"
ROADWORKS_OVERLAY_FILE = "overlay_roadworks.json"
MAINTENANCE_OVERLAY_FILE = "overlay_maintenance.json"
SURVEY17_RATINGS_FILE = "survey17_ratings.csv"
SURVEY17_RESPONDENTS_FILE = "survey17_respondents.csv"
SURVEY20_RATINGS_FILE = "survey20_ratings.csv"
SURVEY20_RESPONDENTS_FILE = "survey20_respondents.csv"
RUBRIC_EXAMPLE_FILE = "rubric_markings.json"


def fixture_path(name: str) -> Path:
    """Filesystem path of a packaged fixture file."""
    return Path(str(resources.files("hri").joinpath(f"{_FIXTURE_DIR}/{name}")))


@lru_cache(maxsize=1)
def baseline_corridor() -> CorridorProfile:
    return load_corridor(fixture_path(BASELINE_CORRIDOR_FILE))


@lru_cache(maxsize=1)
def roadworks_overlay() -> ScenarioOverlay:
    return load_overlay(fixture_path(ROADWORKS_OVERLAY_FILE))


@lru_cache(maxsize=1)
def maintenance_overlay() -> ScenarioOverlay:
    return load_overlay(fixture_path(MAINTENANCE_OVERLAY_FILE))


# ---------------------------------------------------------------------------
# Corridor generator
# ---------------------------------------------------------------------------

CORRIDOR_ID = "D08-synthetic"
CORRIDOR_LENGTH_KM = 24.0
SEGMENT_LENGTH_M = 100.0

# Corridor-wide constants: no dedicated AV lane or road studs, mostly unlit,
# full HD-map coverage. Everything else starts from good condition.
_BASE_VALUES = {
    "lane-mark-retroreflectivity": 2,
    "lane-mark-contrast": 2,
    "sign-retroreflectivity": 2,
    "variable-message-signs": 1,
    "lane-mark-width": 2,
    "roadwork-sign-compliance": 2,
    "pavement-maintenance": 2,
    "vegetation-maintenance": 2,
    "lane-mark-consistency": 2,
    "lane-mark-maintenance": 2,
    "sign-maintenance": 2,
    "dedicated-av-lane": 0,
    "emergency-lane": 2,
    "lane-width": 2,
    "road-studs": 0,
    "lay-by": 1,
    "vertical-curvature": 2,
    "draining-pavement": 1,
    "guard-rail": 2,
    "lighting": 0,
    "rumble-stripes": 1,
    "horizontal-curvature": 2,
    "hd-maps": 2,
}


def generate_baseline_corridor() -> CorridorProfile:
    """Deterministically rebuild the synthetic baseline corridor."""
    count = int(CORRIDOR_LENGTH_KM * 1000 / SEGMENT_LENGTH_M)
    segments = []
    for i in range(count):
        values = dict(_BASE_VALUES)
        km = i // 10

        # km-scale character: alternating maintenance quality along the route
        block = km % 6
        if block == 0:
            values["lane-mark-contrast"] = 1
        elif block == 1:
            values["vegetation-maintenance"] = 1
        elif block == 2:
            values["draining-pavement"] = 2
            values["emergency-lane"] = 1
        elif block == 3:
            values["pavement-maintenance"] = 1
        elif block == 4:
            values["sign-retroreflectivity"] = 1
            values["draining-pavement"] = 2
        else:
            values["lay-by"] = 0
            values["vegetation-maintenance"] = 1

        # lit, curvy stretch around the tunnels (km 12-14)
        if 12 <= km < 14:
            values["lighting"] = 2
            values["horizontal-curvature"] = 1

        # short-scale jitter from routine wear
        if i % 10 in (3, 4):
            values["sign-maintenance"] = 1
        if i % 8 == 6:
            values["lane-mark-maintenance"] = 1
        if i % 12 in (0, 1):
            values["variable-message-signs"] = 2
        if i % 9 == 7:
            values["lane-mark-retroreflectivity"] = 1

        ordered = {attr: values[attr] for attr in attribute_ids()}
        segments.append(SegmentObservation(i, i * SEGMENT_LENGTH_M, SEGMENT_LENGTH_M, ordered))
    return CorridorProfile(CORRIDOR_ID, CORRIDOR_LENGTH_KM, SEGMENT_LENGTH_M, tuple(segments))


# ---------------------------------------------------------------------------
# Survey generator
# ---------------------------------------------------------------------------

_ROLES = (
    "Professor",
    "Postdoc",
    "PhD Student",
    "Technical Director",
    "Researcher",
    "R&D Manager",
    "Project Office",
)

# 17-respondent day-service ratings: Europe day3 averages 1.7 exactly, USA
# days average 4/3, 1 and 1/3 (displayed 1.33 / 1.00 / 0.33).
_DAY_RATINGS_17 = {
    Region.EUROPE: {
        DayService.DAY1: (2, 1, 1, 1, 1, 1, 1, 1, 2, 1),
        DayService.DAY2: (2, 2, 2, 2, 1, 1, 2, 2, 1, 1),
        DayService.DAY3: (2, 2, 2, 2, 2, 2, 2, 1, 1, 1),
    },
    Region.USA: {
        DayService.DAY1: (2, 1, 1),
        DayService.DAY2: (1, 1, 1),
        DayService.DAY3: (0, 0, 1),
    },
    Region.OTHER: {
        DayService.DAY1: (1, 1, 1, 1),
        DayService.DAY2: (1, 2, 1, 1),
        DayService.DAY3: (1, 1, 2, 1),
    },
}

_REGION_PLAN = {
    17: (Region.EUROPE,) * 10 + (Region.USA,) * 3 + (Region.OTHER,) * 4,
    20: (Region.EUROPE,) * 12 + (Region.USA,) * 3 + (Region.OTHER,) * 5,
}


def rating_cell_plan(weight_cents: int, n_respondents: int) -> tuple[int, int]:
    """Choose (rater count, rating sum) for one target mean.

    Prefers the smallest subset whose mean is exact; falls back to the
    closest achievable mean when no subset of integer 0/1/2 ratings can
    average to the target (e.g. weight 0.95 with at most 17 raters).
    """
    for n in range(1, n_respondents + 1):
        if (weight_cents * n) % 100 == 0:
            return n, weight_cents * n // 100
    best: tuple[float, int, int] | None = None
    for n in range(1, n_respondents + 1):
        k = min(2 * n, max(0, round(weight_cents * n / 100)))
        err = abs(k / n - weight_cents / 100)
        if best is None or err < best[0] - 1e-12:
            best = (err, n, k)
    assert best is not None
    return best[1], best[2]


def _spread_ratings(n: int, total: int) -> list[int]:
    # as many 2s as needed, then 1s, then 0s: n ratings summing to total
    twos = max(0, total - n)
    ones = total - 2 * twos
    return [2] * twos + [1] * ones + [0] * (n - twos - ones)


def build_survey_responses(n_respondents: int) -> list[SurveyResponse]:
    """Construct responses whose column means reproduce the built-in weight table.

    Exact for every cell whose target is representable with at most
    ``n_respondents`` integer ratings; closest-achievable otherwise.
    """
    table = builtin_weight_table()
    regions = _REGION_PLAN.get(
        n_respondents, tuple(Region.OTHER for _ in range(n_respondents))
    )
    ratings: list[dict[tuple[str, AutomationLevelGroup], int]] = [
        {} for _ in range(n_respondents)
    ]
    cell_idx = 0
    for attr in attribute_ids():
        for group in AutomationLevelGroup:
            weight = table.lookup(group, attr)
            cents = round(weight * 100)
            n, total = rating_cell_plan(cents, n_respondents)
            values = _spread_ratings(n, total)
            for j, value in enumerate(values):
                rater = (cell_idx + j) % n_respondents
                ratings[rater][(attr, group)] = value
            cell_idx += 1

    responses = []
    day_plan = _DAY_RATINGS_17 if n_respondents == 17 else None
    region_seen: dict[Region, int] = {}
    for i in range(n_respondents):
        region = regions[i]
        position = region_seen.get(region, 0)
        region_seen[region] = position + 1
        if day_plan is not None:
            days = {
                day: day_plan[region][day][position]
                for day in DayService
                if position < len(day_plan[region][day])
            }
        else:
            days = {day: 1 + (i + day_index) % 2 for day_index, day in enumerate(DayService)}
        responses.append(
            SurveyResponse(
                respondent_id=f"r{i + 1:02d}",
                role=_ROLES[i % len(_ROLES)],
                region=region,
                av_expertise=1 + (i % 5),
                cits_expertise=1 + ((i + 2) % 5),
                attribute_ratings=ratings[i],
                cits_day_ratings=days,
            )
        )
    return responses
