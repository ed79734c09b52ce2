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
import operator
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
    readiness_band,
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


_ASD, _AUD = AutomationLevelGroup.ASD, AutomationLevelGroup.AUD
# the only valid allowed-level sets, indexed by ``asd_passes + 2 * aud_passes``
_LEVELS = (frozenset(), frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4}))
_SHARED_LEVELS = {levels: levels for levels in _LEVELS}


def _shared_levels(levels) -> frozenset[int]:
    """The shared instance of a valid level set; levels always enter in group pairs."""
    shared = _SHARED_LEVELS.get(frozenset(levels))
    if shared is None:
        if (1 in levels) != (2 in levels) or (3 in levels) != (4 in levels):
            raise ValueError(f"unpaired SAE levels {sorted(levels)}")
        raise ValueError(f"invalid SAE levels {sorted(levels)}")
    return shared


@dataclass(frozen=True)
class Recommendation:
    """Allowed SAE levels for one segment; levels always enter in group pairs."""

    segment_index: int | None
    allowed_sae_levels: frozenset[int]
    scores: Mapping[AutomationLevelGroup, ReadinessScore]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_sae_levels", _shared_levels(self.allowed_sae_levels))
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))


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


def _ratio_of(values: Mapping, ratio: _WeightedRatio) -> float:
    """``ratio(values)`` once the values cover exactly the ratio's attributes."""
    if values.keys() != ratio.keys:
        missing = set(values) - ratio.keys
        extra = ratio.keys - set(values)
        detail = []
        if missing:
            detail.append(f"weights missing for {sorted(missing)}")
        if extra:
            detail.append(f"observation missing {sorted(extra)}")
        raise ValidationError(
            f"attribute mismatch between observation and weights: {'; '.join(detail)}"
        )
    return ratio(values)


def score_segment(
    obs: SegmentObservation,
    weights: WeightTable,
    group: AutomationLevelGroup,
) -> ReadinessScore:
    """Weighted adequacy ratio for one segment and group, in [0, 100].

    The observation and the weight table must cover the same attribute set;
    a zero weight sum (degenerate custom table) is an error.
    """
    return ReadinessScore(group, _ratio_of(obs.values, _group_ratio(weights, group)), obs.index)


def classify(score: ReadinessScore | float) -> ReadinessClass:
    """Band a score: [0,33) unlikely, [33,66) may-be, [66,100] highly-likely."""
    return readiness_band(score.value if isinstance(score, ReadinessScore) else float(score))


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
    passes = operator.ge if threshold_inclusive else operator.gt
    asd_passes, aud_passes = passes(scores[_ASD].value, threshold), passes(scores[_AUD].value, threshold)
    indexes = {score.segment_index for score in scores.values()}
    return Recommendation(
        segment_index=indexes.pop() if len(indexes) == 1 else None,
        allowed_sae_levels=_LEVELS[asd_passes + 2 * aud_passes],
        scores=scores,
    )


@dataclass(frozen=True)
class SegmentAssessment:
    """One segment's two group scores and allowed SAE levels; ``scores``,
    ``classes`` and ``recommendation`` are derived from them on each access."""

    segment_index: int
    start_m: float
    length_m: float
    asd_score: float
    aud_score: float
    allowed_sae_levels: frozenset[int]

    def __post_init__(self) -> None:
        for score in (self.asd_score, self.aud_score):
            if not 0.0 <= score <= 100.0:
                raise ValueError(f"readiness score {score} outside [0, 100]")
        object.__setattr__(self, "allowed_sae_levels", _shared_levels(self.allowed_sae_levels))

    @property
    def end_m(self) -> float:
        return self.start_m + self.length_m

    @property
    def scores(self) -> Mapping[AutomationLevelGroup, ReadinessScore]:
        pairs = ((_ASD, self.asd_score), (_AUD, self.aud_score))
        return MappingProxyType({group: ReadinessScore(group, value, self.segment_index) for group, value in pairs})

    @property
    def classes(self) -> Mapping[AutomationLevelGroup, ReadinessClass]:
        return MappingProxyType({_ASD: readiness_band(self.asd_score), _AUD: readiness_band(self.aud_score)})

    @property
    def recommendation(self) -> Recommendation:
        return Recommendation(self.segment_index, self.allowed_sae_levels, self.scores)


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
    """Score both groups and recommend SAE levels for every segment, preserving order."""
    asd_ratio, aud_ratio = _group_ratio(weights, _ASD), _group_ratio(weights, _AUD)
    keys = asd_ratio.keys if asd_ratio.keys == aud_ratio.keys else None
    passes = operator.ge if threshold_inclusive else operator.gt
    assessments = []
    for segment in profile.segments:
        values = segment.values
        if values.keys() != keys:  # raises the error score_segment gives, group by group
            for ratio in (asd_ratio, aud_ratio):
                _ratio_of(values, ratio)
        asd_score, aud_score = asd_ratio(values), aud_ratio(values)
        assessments.append(
            SegmentAssessment(
                segment_index=segment.index,
                start_m=segment.start_m,
                length_m=segment.length_m,
                asd_score=asd_score,
                aud_score=aud_score,
                allowed_sae_levels=_LEVELS[passes(asd_score, threshold) + 2 * passes(aud_score, threshold)],
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
                f"{seg.asd_score:.2f}",
                f"{seg.aud_score:.2f}",
                readiness_band(seg.asd_score).value,
                readiness_band(seg.aud_score).value,
                ",".join(str(l) for l in sorted(seg.allowed_sae_levels)),
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
    segments = []
    for seg in assessment.segments:
        levels = sorted(seg.allowed_sae_levels)
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
            f'      "asd_score": {_json_number(seg.asd_score)},\n'
            f'      "aud_score": {_json_number(seg.aud_score)},\n'
            f'      "asd_class": {encode_basestring_ascii(readiness_band(seg.asd_score).value)},\n'
            f'      "aud_class": {encode_basestring_ascii(readiness_band(seg.aud_score).value)},\n'
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


def _json_int(value, name: str) -> int:
    """``int(value)``, refusing a number with a fractional part."""
    if type(value) is float and not value.is_integer():
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def load_score_profile_json(path: str | Path) -> CorridorAssessment:
    """Reconstruct an assessment from its JSON profile; each class must be the band of its score."""
    source = str(path)
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", source=source, line=exc.lineno, column=exc.colno) from None
    try:
        segments = []
        for item in doc["segments"]:
            index = _json_int(item["segment_index"], "segment_index")
            scores = (float(item["asd_score"]), float(item["aud_score"]))
            classes = (_parse_class(item["asd_class"]), _parse_class(item["aud_class"]))
            levels = frozenset([_json_int(level, "SAE level") for level in item["allowed_sae_levels"]])
            segment = SegmentAssessment(index, float(item["start_m"]), float(item["length_m"]), *scores, levels)
            for name, loaded, score in zip(("asd", "aud"), classes, scores):
                if loaded is not readiness_band(score):
                    raise ValidationError(
                        f"{source}: segment {index}: {name}_class {loaded.value!r} "
                        f"does not match {name}_score {score!r} ({readiness_band(score).value})"
                    )
            segments.append(segment)
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
