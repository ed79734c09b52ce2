"""Readiness scoring, classification and SAE-level recommendation.

The readiness score of a segment for an automation-level group is the
weighted adequacy ratio, in percent:

    score = 100 * sum_i(w_i * v_i) / sum_i(w_i * v_max)

with ``v_max = 2`` (the adequacy scale maximum) and the sum running over the
attribute set shared by the observation and the weight table. The score is
kept at full precision; only presentation layers round.

Scores fall into three uniform interpretation bands — unlikely [0, 33),
may-be [33, 66) and highly-likely [66, 100] — and a group's SAE level pair
is recommended when its score reaches the 66% threshold (inclusive, so the
recommendation rule agrees with the highly-likely lower bound).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from ._util import DEFAULT_THRESHOLD
from .errors import ParseError, ValidationError
from .taxonomy import (
    V_MAX,
    AutomationLevelGroup,
    MacroCategory,
    ReadinessClass,
    WeightTable,
    macro_weight_table,
)

if TYPE_CHECKING:
    from .corridor import CorridorProfile, SegmentObservation


@dataclass(frozen=True)
class ReadinessScore:
    """A readiness percentage for one group; ``segment_index`` is None for
    scores detached from a corridor (e.g. sensitivity scenarios)."""

    group: AutomationLevelGroup
    value: float
    segment_index: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 100.0:
            raise ValueError(f"readiness score {self.value} outside [0, 100]")


@dataclass(frozen=True)
class Recommendation:
    """Allowed SAE levels for one segment; levels always enter in group pairs."""

    segment_index: int | None
    allowed_sae_levels: frozenset[int]
    scores: Mapping[AutomationLevelGroup, ReadinessScore]

    def __post_init__(self) -> None:
        levels = self.allowed_sae_levels
        if (1 in levels) != (2 in levels) or (3 in levels) != (4 in levels):
            raise ValueError(f"unpaired SAE levels {sorted(levels)}")
        if not levels <= {1, 2, 3, 4}:
            raise ValueError(f"invalid SAE levels {sorted(levels)}")
        object.__setattr__(self, "allowed_sae_levels", frozenset(levels))
        object.__setattr__(self, "scores", _read_only(self.scores))


def _read_only(mapping: Mapping) -> Mapping:
    """A ``MappingProxyType`` is kept as given, so that a segment's assessment
    and recommendation can share one; any other mapping is copied into one."""
    return mapping if type(mapping) is MappingProxyType else MappingProxyType(dict(mapping))


class _WeightedRatio:
    """``100 * sum(w * v) / sum(w * V_MAX)`` over fixed ``(key, weight)`` pairs.

    Both sums run in the pairs' order, starting from 0.0, so a ratio
    resolved once and applied to many value mappings gives bit-for-bit the
    scores of summing afresh each time. ``label`` names the weight sum in the
    error raised when it is not positive.
    """

    def __init__(self, pairs, label: str) -> None:
        self.pairs = tuple(pairs)
        self.keys = frozenset(key for key, _ in self.pairs)
        self.label = label
        denominator = 0.0
        for _, weight in self.pairs:
            denominator += weight * V_MAX
        self.denominator = denominator

    def __call__(self, values: Mapping) -> float:
        if self.denominator <= 0.0:
            raise ValidationError(f"{self.label} is not positive")
        numerator = 0.0
        for key, weight in self.pairs:
            numerator += weight * values[key]
        # summation round-off can push the ratio a few ulp past its exact bounds
        return min(100.0, max(0.0, 100.0 * numerator / self.denominator))


def _group_ratio(weights: WeightTable, group: AutomationLevelGroup) -> _WeightedRatio:
    return _WeightedRatio(weights.group_weights(group).items(), f"weight sum for group {group.value}")


def _score(obs: SegmentObservation, ratio: _WeightedRatio, group: AutomationLevelGroup) -> ReadinessScore:
    if obs.values.keys() != ratio.keys:
        missing = set(obs.values) - ratio.keys
        extra = ratio.keys - set(obs.values)
        detail = []
        if missing:
            detail.append(f"weights missing for {sorted(missing)}")
        if extra:
            detail.append(f"observation missing {sorted(extra)}")
        raise ValidationError(
            f"attribute mismatch between observation and weights: {'; '.join(detail)}"
        )
    return ReadinessScore(group=group, value=ratio(obs.values), segment_index=obs.index)


def score_segment(
    obs: SegmentObservation,
    weights: WeightTable,
    group: AutomationLevelGroup,
) -> ReadinessScore:
    """Weighted adequacy ratio for one segment and group, in [0, 100].

    The observation and the weight table must cover the same attribute set;
    a zero weight sum (degenerate custom table) is an error.
    """
    return _score(obs, _group_ratio(weights, group), group)


def classify(score: ReadinessScore | float) -> ReadinessClass:
    """Band a score: [0,33) unlikely, [33,66) may-be, [66,100] highly-likely."""
    value = score.value if isinstance(score, ReadinessScore) else float(score)
    if not 0.0 <= value <= 100.0:
        raise ValueError(f"score {value} outside [0, 100]")
    if value < 33.0:
        return ReadinessClass.UNLIKELY
    if value < 66.0:
        return ReadinessClass.MAY_BE
    return ReadinessClass.HIGHLY_LIKELY


def recommend(
    scores: Mapping[AutomationLevelGroup, ReadinessScore],
    threshold: float = DEFAULT_THRESHOLD,
    *,
    threshold_inclusive: bool = True,
) -> Recommendation:
    """Allowed SAE levels from both group scores, evaluated independently.

    A group passing the threshold contributes its level pair; an empty set
    is a valid outcome (no recommendation).
    """
    for group in AutomationLevelGroup:
        if group not in scores:
            raise ValidationError(f"missing score for group {group.value}")
    levels: set[int] = set()
    for group, score in scores.items():
        passed = score.value >= threshold if threshold_inclusive else score.value > threshold
        if passed:
            levels.update(group.sae_levels)
    indexes = {score.segment_index for score in scores.values()}
    segment_index = indexes.pop() if len(indexes) == 1 else None
    return Recommendation(
        segment_index=segment_index,
        allowed_sae_levels=frozenset(levels),
        scores=scores,
    )


@dataclass(frozen=True)
class SegmentAssessment:
    """Scores, classes and recommendation for one segment."""

    segment_index: int
    start_m: float
    length_m: float
    scores: Mapping[AutomationLevelGroup, ReadinessScore]
    classes: Mapping[AutomationLevelGroup, ReadinessClass]
    recommendation: Recommendation

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", _read_only(self.scores))
        object.__setattr__(self, "classes", _read_only(self.classes))

    @property
    def end_m(self) -> float:
        return self.start_m + self.length_m


@dataclass(frozen=True)
class CorridorAssessment:
    """Per-segment assessment of a whole corridor, in segment order."""

    corridor_id: str
    length_km: float
    segment_length_m: float
    threshold: float
    weight_provenance: str
    segments: tuple[SegmentAssessment, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "segments", tuple(self.segments))


def score_corridor(
    profile: CorridorProfile,
    weights: WeightTable,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    threshold_inclusive: bool = True,
) -> CorridorAssessment:
    """Score, classify and recommend for every segment, preserving order."""
    ratios = {group: _group_ratio(weights, group) for group in AutomationLevelGroup}
    assessments = []
    for segment in profile.segments:
        scores = MappingProxyType({group: _score(segment, ratio, group) for group, ratio in ratios.items()})
        assessments.append(
            SegmentAssessment(
                segment_index=segment.index,
                start_m=segment.start_m,
                length_m=segment.length_m,
                scores=scores,
                classes=MappingProxyType({group: classify(score) for group, score in scores.items()}),
                recommendation=recommend(scores, threshold, threshold_inclusive=threshold_inclusive),
            )
        )
    return CorridorAssessment(
        corridor_id=profile.corridor_id,
        length_km=profile.length_km,
        segment_length_m=profile.segment_length_m,
        threshold=threshold,
        weight_provenance=weights.provenance,
        segments=tuple(assessments),
    )


# ---------------------------------------------------------------------------
# Macro-category sensitivity analysis
# ---------------------------------------------------------------------------


class SensitivityScenario(Enum):
    COMPLIANT_NO_HD = "compliant-no-hd"
    DEGRADED_WITH_HD = "degraded-with-hd"
    DEGRADED_NO_HD = "degraded-no-hd"


_PHYSICAL_CATEGORIES = (
    MacroCategory.ROAD_MARKINGS_SIGNAGE,
    MacroCategory.ROAD_MAINTENANCE_MANAGEMENT,
    MacroCategory.ROADWAY_DESIGN_SAFETY,
)

DEFAULT_DEGRADED_LEVELS: Mapping[MacroCategory, int] = MappingProxyType(
    {category: 1 for category in _PHYSICAL_CATEGORIES}
)


@dataclass(frozen=True)
class SensitivityConfig:
    """Scenario plus the adequacy assigned to degraded physical categories."""

    scenario: SensitivityScenario
    degraded_levels: Mapping[MacroCategory, int] = field(
        default_factory=lambda: dict(DEFAULT_DEGRADED_LEVELS)
    )

    def __post_init__(self) -> None:
        for category, level in self.degraded_levels.items():
            if category not in _PHYSICAL_CATEGORIES:
                name = getattr(category, "value", category)
                raise ValueError(f"degraded level given for non-physical category {name!r}")
            if level not in (0, 1, 2):
                raise ValueError(f"degraded level for {category.value} must be 0, 1 or 2")
        merged = dict(DEFAULT_DEGRADED_LEVELS)
        merged.update(self.degraded_levels)
        object.__setattr__(self, "degraded_levels", MappingProxyType(merged))

    def category_values(self) -> dict[MacroCategory, int]:
        if self.scenario is SensitivityScenario.COMPLIANT_NO_HD:
            values = {category: 2 for category in _PHYSICAL_CATEGORIES}
            hd = 0
        elif self.scenario is SensitivityScenario.DEGRADED_NO_HD:
            values = dict(self.degraded_levels)
            hd = 0
        else:
            values = dict(self.degraded_levels)
            hd = 2
        values[MacroCategory.PRELOADED_HD_MAPS] = hd
        return values


def macro_sensitivity(
    config: SensitivityConfig,
    macro_weights: Mapping[tuple[AutomationLevelGroup, MacroCategory], float] | None = None,
) -> dict[AutomationLevelGroup, ReadinessScore]:
    """Evaluate the readiness ratio over the four macro-categories.

    Category adequacy is fixed by the scenario (compliant physical
    categories at 2, degraded ones per config, HD maps 0 or 2); weights
    default to the built-in macro table.
    """
    weights = macro_weights if macro_weights is not None else macro_weight_table()
    values = config.category_values()
    result = {}
    for group in AutomationLevelGroup:
        ratio = _WeightedRatio(
            ((category, weights[(group, category)]) for category in MacroCategory),
            f"macro weight sum for group {group.value}",
        )
        result[group] = ReadinessScore(group=group, value=ratio(values))
    return result


# ---------------------------------------------------------------------------
# Score-profile interchange (the plotting substrate)
# ---------------------------------------------------------------------------

_PROFILE_HEADER = [
    "segment_index",
    "start_km",
    "asd_score",
    "aud_score",
    "asd_class",
    "aud_class",
    "allowed_levels",
]


def dump_score_profile_csv(assessment: CorridorAssessment) -> str:
    """CSV score profile; scores are display-rounded to two decimals."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_PROFILE_HEADER)
    for seg in assessment.segments:
        writer.writerow(
            [
                seg.segment_index,
                f"{seg.start_m / 1000.0:.3f}",
                f"{seg.scores[AutomationLevelGroup.ASD].value:.2f}",
                f"{seg.scores[AutomationLevelGroup.AUD].value:.2f}",
                seg.classes[AutomationLevelGroup.ASD].value,
                seg.classes[AutomationLevelGroup.AUD].value,
                ",".join(str(l) for l in sorted(seg.recommendation.allowed_sae_levels)),
            ]
        )
    return out.getvalue()


def _json_number(value: float) -> str:
    """A number exactly as ``json.dumps`` writes it."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def dump_score_profile_json(assessment: CorridorAssessment) -> str:
    """JSON score profile with full float precision.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\n"`` for
    the document of the README's "File formats" section, written directly
    because ``json`` skips its C encoder whenever ``indent`` is set.
    """
    asd, aud = AutomationLevelGroup.ASD, AutomationLevelGroup.AUD
    segments = []
    for seg in assessment.segments:
        levels = sorted(seg.recommendation.allowed_sae_levels)
        levels_json = (
            "[\n" + ",\n".join("        " + _json_number(level) for level in levels) + "\n      ]"
            if levels
            else "[]"
        )
        segments.append(
            "    {\n"
            f'      "segment_index": {_json_number(seg.segment_index)},\n'
            f'      "start_m": {_json_number(seg.start_m)},\n'
            f'      "length_m": {_json_number(seg.length_m)},\n'
            f'      "asd_score": {_json_number(seg.scores[asd].value)},\n'
            f'      "aud_score": {_json_number(seg.scores[aud].value)},\n'
            f'      "asd_class": {encode_basestring_ascii(seg.classes[asd].value)},\n'
            f'      "aud_class": {encode_basestring_ascii(seg.classes[aud].value)},\n'
            f'      "allowed_sae_levels": {levels_json}\n'
            "    }"
        )
    segments_json = "[\n" + ",\n".join(segments) + "\n  ]" if segments else "[]"
    return (
        "{\n"
        f'  "corridor_id": {encode_basestring_ascii(assessment.corridor_id)},\n'
        f'  "length_km": {_json_number(assessment.length_km)},\n'
        f'  "segment_length_m": {_json_number(assessment.segment_length_m)},\n'
        f'  "threshold": {_json_number(assessment.threshold)},\n'
        f'  "weight_provenance": {encode_basestring_ascii(assessment.weight_provenance)},\n'
        f'  "segments": {segments_json}\n'
        "}\n"
    )


_CLASS_BY_NAME = {readiness_class.value: readiness_class for readiness_class in ReadinessClass}


def _parse_class(text: str) -> ReadinessClass:
    try:
        return _CLASS_BY_NAME[text]
    except (KeyError, TypeError):  # not a canonical name: let parse() normalize it or explain
        if not isinstance(text, str):
            raise TypeError(f"readiness class must be a string, got {text!r}") from None
        return ReadinessClass.parse(text)


def load_score_profile_json(path: str | Path) -> CorridorAssessment:
    """Reconstruct an assessment from its JSON profile."""
    source = str(path)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source=source, line=exc.lineno, column=exc.colno) from None
    asd, aud = AutomationLevelGroup.ASD, AutomationLevelGroup.AUD
    try:
        segments = []
        for item in doc["segments"]:
            index = int(item["segment_index"])
            scores = MappingProxyType(
                {
                    asd: ReadinessScore(group=asd, value=float(item["asd_score"]), segment_index=index),
                    aud: ReadinessScore(group=aud, value=float(item["aud_score"]), segment_index=index),
                }
            )
            classes = MappingProxyType(
                {asd: _parse_class(item["asd_class"]), aud: _parse_class(item["aud_class"])}
            )
            recommendation = Recommendation(
                segment_index=index,
                allowed_sae_levels=frozenset(map(int, item["allowed_sae_levels"])),
                scores=scores,
            )
            segments.append(
                SegmentAssessment(
                    segment_index=index,
                    start_m=float(item["start_m"]),
                    length_m=float(item["length_m"]),
                    scores=scores,
                    classes=classes,
                    recommendation=recommendation,
                )
            )
        return CorridorAssessment(
            corridor_id=str(doc["corridor_id"]),
            length_km=float(doc["length_km"]),
            segment_length_m=float(doc["segment_length_m"]),
            threshold=float(doc.get("threshold", DEFAULT_THRESHOLD)),
            weight_provenance=str(doc.get("weight_provenance", "unknown")),
            segments=tuple(segments),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int() of 1e400
        raise ParseError(f"bad score profile: {exc}", source=source) from None
