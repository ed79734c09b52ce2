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

An assessment stores its segments as columns (:class:`SegmentColumns`): the
ASD scores, the AUD scores and one level-set code per segment, with geometry
taken from the grid.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from ._util import ADEQUACY, BANDS, DEFAULT_THRESHOLD, LEVEL_CODES, LEVEL_SETS, V_MAX, AutomationLevelGroup
from ._util import MacroCategory, ReadinessClass, band_indexes, check_adequacy, check_scores, grid_error, hold_to_grid
from ._util import json_float, json_int, json_str, level_code, parse_json, read_header, read_input, readiness_band
from ._util import segment_count_error
from .errors import ParseError, ValidationError

if TYPE_CHECKING:
    from .corridor import CorridorProfile, SegmentObservation
    from .taxonomy import WeightTable


@dataclass(frozen=True)
class ReadinessScore:
    """A readiness percentage for one group; ``segment_index`` is None for
    scores detached from a corridor (e.g. sensitivity scenarios)."""

    group: AutomationLevelGroup
    value: float
    segment_index: int | None = None

    def __post_init__(self) -> None:
        check_scores((self.value,))


_ASD, _AUD = AutomationLevelGroup.ASD, AutomationLevelGroup.AUD


def _level_codes(asd_scores, aud_scores, threshold: float, passes) -> list[int]:
    """Each segment's level-set code: a group's level pair is allowed when ``passes(score, threshold)``."""
    return [passes(asd, threshold) + 2 * passes(aud, threshold) for asd, aud in zip(asd_scores, aud_scores)]


@dataclass(frozen=True)
class Recommendation:
    """Allowed SAE levels for one segment; levels always enter in group pairs."""

    segment_index: int | None
    allowed_sae_levels: frozenset[int]
    scores: Mapping[AutomationLevelGroup, ReadinessScore]

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_sae_levels", LEVEL_SETS[level_code(self.allowed_sae_levels)])
        object.__setattr__(self, "scores", MappingProxyType(dict(self.scores)))


class _WeightedRatio:
    """``100 * sum(w * v) / sum(w * V_MAX)`` over fixed ``(key, weight)`` pairs.

    Both sums run in the pairs' order, starting from 0.0, so a ratio
    resolved once and applied to many value rows gives bit-for-bit the
    scores of summing afresh each time. ``label`` names the weight sum in the
    error raised when it is not positive, or when twice it is not finite.
    """

    def __init__(self, pairs, label: str) -> None:
        self.pairs = tuple(pairs)
        self.keys = frozenset(key for key, _ in self.pairs)
        self.label = label
        # per pair, the terms ``(w * 0, w * 1, w * 2)`` that a value adds to the numerator
        self.terms = [tuple(weight * value for value in ADEQUACY) for _, weight in self.pairs]
        denominator = 0.0
        for terms in self.terms:
            denominator += terms[V_MAX]
        self.denominator = denominator

    def scores(self, rows) -> list[float]:
        """The ratio of each row of values, given in pair order as ints 0, 1 or 2; a weight sum that is not
        positive, or not finite when doubled, gives no ratio and is refused."""
        if not 0.0 < self.denominator < math.inf:
            problem = "is not positive" if self.denominator <= 0.0 else f"times {V_MAX} is not finite"
            raise ValidationError(f"{self.label} {problem}")
        scores = []
        for row in rows:
            numerator = 0.0
            for terms, value in zip(self.terms, row):
                numerator += terms[value]
            ratio = 100.0 * numerator / self.denominator
            # round-off can push the ratio a few ulp past its bounds: min/max without the calls (NaN, -0.0 give 0.0)
            ratio = ratio if ratio > 0.0 else 0.0
            scores.append(ratio if ratio < 100.0 else 100.0)
        return scores

    def __call__(self, values: Mapping) -> float:
        """The ratio of ``values``, once they cover exactly the ratio's keys."""
        if values.keys() != self.keys:
            missing = set(values) - self.keys
            extra = self.keys - set(values)
            detail = []
            if missing:
                detail.append(f"weights missing for {sorted(missing)}")
            if extra:
                detail.append(f"observation missing {sorted(extra)}")
            raise ValidationError(f"attribute mismatch between observation and weights: {'; '.join(detail)}")
        # int: observations and sensitivity configurations take 2.0 and True, equal to 2 and 1
        (score,) = self.scores([[int(values[key]) for key, _ in self.pairs]])
        return score


def _group_ratio(weights: WeightTable, group: AutomationLevelGroup) -> _WeightedRatio:
    return _WeightedRatio(weights.group_weights(group).items(), f"weight sum for group {group.value}")


def score_segment(
    obs: SegmentObservation,
    weights: WeightTable,
    group: AutomationLevelGroup,
) -> ReadinessScore:
    """Weighted adequacy ratio for one segment and group, in [0, 100].

    The observation and the weight table must cover the same attribute set;
    a zero weight sum (degenerate custom table) is an error.
    """
    return ReadinessScore(group, _group_ratio(weights, group)(obs.values), obs.index)


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
    (code,) = _level_codes([scores[_ASD].value], [scores[_AUD].value], threshold, passes)
    indexes = {score.segment_index for score in scores.values()}
    return Recommendation(
        segment_index=indexes.pop() if len(indexes) == 1 else None,
        allowed_sae_levels=LEVEL_SETS[code],
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
        check_scores((self.asd_score,), (self.aud_score,))
        object.__setattr__(self, "allowed_sae_levels", LEVEL_SETS[level_code(self.allowed_sae_levels)])

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


_LEVEL_BYTES = bytes(range(len(LEVEL_SETS)))


class SegmentColumns(Sequence):
    """An assessment's segments as parallel columns: ``asd_scores`` and
    ``aud_scores``, and ``levels`` with one byte per segment, the index of its
    allowed-level set in ``LEVEL_SETS``. Segment ``i`` starts at
    ``i * segment_length_m``. Columns of unequal length, a level byte above 3
    and a score outside [0, 100], NaN included, are a ``ValueError``.

    ``len`` reads the column length; indexing builds a :class:`SegmentAssessment`.
    """

    __slots__ = ("asd_scores", "aud_scores", "levels", "segment_length_m")

    def __init__(self, asd_scores, aud_scores, levels, segment_length_m: float) -> None:
        self.asd_scores = tuple(asd_scores)
        self.aud_scores = tuple(aud_scores)
        self.levels = bytes(levels)
        self.segment_length_m = segment_length_m
        if not len(self.asd_scores) == len(self.aud_scores) == len(self.levels):
            lengths = len(self.asd_scores), len(self.aud_scores), len(self.levels)
            raise ValueError("columns of unequal length: asd scores %d, aud scores %d, levels %d" % lengths)
        bad = self.levels.translate(None, _LEVEL_BYTES)
        if bad:
            raise ValueError(f"level byte {bad[0]} is not the code of an allowed-level set 0..3")
        check_scores(self.asd_scores)  # the asd column first, then the aud column
        check_scores(self.aud_scores)

    @classmethod
    def of(cls, segments: tuple[SegmentAssessment, ...], segment_length_m: float) -> SegmentColumns:
        """Columns of segments that lie on the grid, in order; else a ValidationError names the segment."""
        problem = grid_error(((seg.segment_index, seg.start_m, seg.length_m) for seg in segments), segment_length_m)
        if problem:
            raise ValidationError(problem)
        return cls(
            [seg.asd_score for seg in segments],
            [seg.aud_score for seg in segments],
            [LEVEL_CODES[seg.allowed_sae_levels] for seg in segments],
            segment_length_m,
        )

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, i):
        positions = range(len(self.levels))[i]  # the index of ``i``, or the indexes of a slice
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, positions))
        length = self.segment_length_m
        return SegmentAssessment(
            positions, positions * length, length, self.asd_scores[i], self.aud_scores[i], LEVEL_SETS[self.levels[i]]
        )

    def _key(self) -> tuple:
        return (self.asd_scores, self.aud_scores, self.levels, self.segment_length_m if self.levels else None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentColumns):
            return tuple(self) == other if isinstance(other, tuple) else NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"SegmentColumns({len(self.levels)} segments)"


@dataclass(frozen=True)
class CorridorAssessment:
    """Per-segment assessment of a whole corridor, in segment order.

    ``segments``, as many as ``length_km`` gives, may be given as a sequence
    of :class:`SegmentAssessment` on the ``segment_length_m`` grid; it is
    kept as :class:`SegmentColumns`.
    """

    corridor_id: str
    length_km: float
    segment_length_m: float
    threshold: float
    weight_provenance: str
    segments: SegmentColumns

    def __post_init__(self) -> None:
        hold_to_grid(self, SegmentColumns)


def score_corridor(
    profile: CorridorProfile,
    weights: WeightTable,
    *,
    threshold: float = DEFAULT_THRESHOLD,
    threshold_inclusive: bool = True,
) -> CorridorAssessment:
    """Score both groups and recommend SAE levels for every segment, preserving order."""
    ratios = (_group_ratio(weights, _ASD), _group_ratio(weights, _AUD))
    segments = profile.segments
    rows = segments.rows
    columns, levels = [(), ()], ()  # the asd and aud scores, and the level codes
    if rows:
        # score_segment's attribute check, made once: every segment has the same attributes
        attributes = frozenset(segments.attributes)
        if not segments.complete or any(ratio.keys != attributes for ratio in ratios):
            for segment in segments:  # raises score_segment's error for the first segment it rejects
                for ratio in ratios:
                    ratio(segment.values)
        slot_of = {attr: slot for slot, attr in enumerate(segments.attributes)}
        distinct = list(dict.fromkeys(rows))  # each distinct row is scored once per group
        for group, ratio in enumerate(ratios):
            slots = [slot_of[key] for key, _ in ratio.pairs]
            ordered = distinct  # rows already in pair order are scored as they are
            if slots != list(range(len(slots))):
                ordered = [[row[slot] for slot in slots] for row in distinct]
            score_of = dict(zip(distinct, ratio.scores(ordered)))
            columns[group] = list(map(score_of.__getitem__, rows))
        levels = _level_codes(*columns, threshold, operator.ge if threshold_inclusive else operator.gt)
    return CorridorAssessment(
        corridor_id=profile.corridor_id,
        length_km=profile.length_km,
        segment_length_m=profile.segment_length_m,
        threshold=threshold,
        weight_provenance=weights.provenance,
        segments=SegmentColumns(*columns, levels, profile.segment_length_m),
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
            check_adequacy(level, f"degraded level for {category.value}")
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


def macro_sensitivity(config: SensitivityConfig) -> dict[AutomationLevelGroup, ReadinessScore]:
    """Evaluate the readiness ratio over the four macro-categories.

    Category adequacy is fixed by the scenario (compliant physical
    categories at 2, degraded ones per config, HD maps 0 or 2); the weights
    are the built-in macro table.
    """
    from .taxonomy import macro_weight_table  # here, so that scoring a profile loads no weight-table module

    weights = macro_weight_table()
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

_PROFILE_HEADER = "segment_index,start_km,asd_score,aud_score,asd_class,aud_class,allowed_levels\n"
_CSV_ROW = "%d,%.3f,%.2f,%.2f,%s,%s,%s\n"
_LEVELS_CSV = tuple(f'"{",".join(map(str, sorted(levels)))}"' if levels else "" for levels in LEVEL_SETS)
_CLASS_NAMES = [band.value for band in BANDS]


def _class_names(scores) -> map:
    """The name of each score's band."""
    return map(_CLASS_NAMES.__getitem__, band_indexes(scores))


def dump_score_profile_csv(assessment: CorridorAssessment) -> str:
    """CSV score profile; scores are display-rounded to two decimals.

    The text is what ``csv.writer`` writes for these rows: only the level
    lists, which hold commas, are quoted.
    """
    segments = assessment.segments
    length = segments.segment_length_m
    rows = [
        _CSV_ROW % (index, index * length / 1000.0, asd, aud, asd_class, aud_class, _LEVELS_CSV[code])
        for index, asd, aud, asd_class, aud_class, code in zip(
            range(len(segments)),
            segments.asd_scores,
            segments.aud_scores,
            _class_names(segments.asd_scores),
            _class_names(segments.aud_scores),
            segments.levels,
        )
    ]
    return _PROFILE_HEADER + "".join(rows)


def _json_number(value: float) -> str:
    """A number exactly as ``json.dumps`` writes it."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value)


def _json_numbers(column) -> map:
    """``_json_number`` of each value, with ``float.__repr__`` straight when all are finite floats."""
    if {*map(type, column)} <= {float} and math.isfinite(sum(column)):
        return map(float.__repr__, column)
    return map(_json_number, column)


_SEGMENT_JSON = (
    "    {\n"
    '      "segment_index": %s,\n'
    '      "start_m": %s,\n'
    '      "length_m": %s,\n'
    '      "asd_score": %s,\n'
    '      "aud_score": %s,\n'
    '      "asd_class": "%s",\n'
    '      "aud_class": "%s",\n'
    '      "allowed_sae_levels": %s\n'
    "    }"
)
_LEVELS_JSON = tuple(
    "[\n" + ",\n".join(f"        {level}" for level in sorted(levels)) + "\n      ]" if levels else "[]"
    for levels in LEVEL_SETS
)


def dump_score_profile_json(assessment: CorridorAssessment) -> str:
    """JSON score profile with full float precision.

    The text is byte-identical to ``json.dumps(doc, indent=2) + "\n"`` for
    the document of the README's "File formats" section, written directly
    because ``json`` skips its C encoder whenever ``indent`` is set. Each
    segment is the template's constant pieces joined with one value from
    each column.
    """
    segments = assessment.segments
    n, length = len(segments), segments.segment_length_m
    columns = (
        map(str, range(n)),
        _json_numbers([index * length for index in range(n)]),
        # length_m: the same text in every segment, written into the constant pieces below
        _json_numbers(segments.asd_scores),
        _json_numbers(segments.aud_scores),
        _class_names(segments.asd_scores),
        _class_names(segments.aud_scores),
        map(_LEVELS_JSON.__getitem__, segments.levels),
    )
    first, *pieces = (_SEGMENT_JSON % ("%s", "%s", _json_number(length), *["%s"] * 5)).split("%s")
    parts = [repeat(first)]
    for column, piece in zip(columns, pieces):
        parts += (column, repeat(piece))
    segments_json = "[\n" + ",\n".join(map("".join, zip(*parts))) + "\n  ]" if n else "[]"
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


# a segment lacking several of these fields is reported as lacking the first
_SEGMENT_FIELDS = operator.itemgetter(
    "segment_index", "asd_score", "aud_score", "asd_class", "aud_class", "allowed_sae_levels", "start_m", "length_m"
)
_LEVEL_LISTS = tuple(sorted(levels) for levels in LEVEL_SETS)


def _typed(column: tuple, kind: type, convert, name: str) -> tuple:
    """``column`` when each value has the writer's type ``kind``, else ``convert(value, name)`` of each."""
    return column if {*map(type, column)} <= {kind} else tuple(map(convert, column, repeat(name)))


def load_score_profile_json(path: str | Path) -> CorridorAssessment:
    """Reconstruct an assessment from its JSON profile.

    The document is checked column by column, in this order: the header, by
    :func:`read_header`; each other field's type, the class names and level
    lists included (a column not already of the type the writer gives it is
    converted, so integral floats, class names in other case and level lists
    in any order load); the scores in [0, 100]; each class the band of its
    score; each segment at its position on the ``segment_length_m`` grid; each
    level set the one its scores give at ``threshold`` (under one rule for the
    whole profile, ``>=`` or ``>``, which it does not record); and as many
    segments as ``length_km`` gives. A check that fails walks its column and
    reports the first segment at fault, so of several faults the one reported
    is the first of the first check that fails.
    """
    source = str(path)
    doc = parse_json(read_input(path), source)
    corridor_id, length_km, segment_length_m = read_header(doc, source)
    try:
        segments = doc["segments"]
        if not isinstance(segments, list):
            raise TypeError("segments must be a list")
        for position, segment in enumerate(segments):
            if type(segment) is not dict:
                raise TypeError(f"segment {position} is not an object")
        columns = list(zip(*map(_SEGMENT_FIELDS, segments))) or [()] * 8
        indexes, asd, aud, asd_classes, aud_classes, listed, starts, lengths = columns
        indexes = _typed(indexes, int, json_int, "segment_index")
        asd, aud, starts, lengths = (
            _typed(column, float, json_float, name)
            for column, name in ((asd, "asd_score"), (aud, "aud_score"), (starts, "start_m"), (lengths, "length_m"))
        )
        threshold = json_float(doc.get("threshold", DEFAULT_THRESHOLD), "threshold")
        weight_provenance = json_str(doc.get("weight_provenance", "unknown"), "weight_provenance")
        # class names other than the bands' are read here, and compared with the bands once the scores are checked
        named = asd_classes == tuple(_class_names(asd)) and aud_classes == tuple(_class_names(aud))
        classes = None if named else [list(map(ReadinessClass.parse, pair)) for pair in zip(asd_classes, aud_classes)]
        levels = inclusive = _level_codes(asd, aud, threshold, operator.ge)
        written = tuple(map(_LEVEL_LISTS.__getitem__, inclusive))  # the lists the writer gives under >=
        if listed != written or not {*map(type, chain.from_iterable(listed))} <= {int}:  # equal lists may hold bools
            # a string or a bool in a set is refused here, and the sets are checked after the grid
            for given in listed:
                if type(given) is not list:
                    raise TypeError(f"allowed_sae_levels {given!r} is not a list")
            levels = [level_code([json_int(level, "SAE level") for level in given]) for given in listed]
        check_scores(asd, aud)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad score profile: {exc}", source=source) from None
    for index, pair, loaded in zip(indexes, zip(asd, aud), classes or ()):  # no walk when every class is named
        for name, readiness_class, score in zip(("asd", "aud"), loaded, pair):
            if readiness_class is not readiness_band(score):
                raise ValidationError(
                    f"{source}: segment {index}: {name}_class {readiness_class.value!r} "
                    f"does not match {name}_score {score!r} ({readiness_band(score).value})"
                )
    problem = grid_error(zip(indexes, starts, lengths), segment_length_m)
    if problem:
        raise ValidationError(f"{source}: {problem}")
    if levels != inclusive:  # each other set must be the one the exclusive test gives, and all follow one rule
        exclusive = _level_codes(asd, aud, threshold, operator.gt)
        rule = None  # the first segment whose sets under >= and > differ, and the rule its set follows
        for index, (code, ge, gt) in enumerate(zip(levels, inclusive, exclusive)):
            if code != ge and code != gt:
                raise ValidationError(
                    f"{source}: segment {index}: allowed_sae_levels {sorted(LEVEL_SETS[code])} "
                    f"do not match the scores at threshold {threshold!r}"
                )
            follows = ">=" if code == ge else ">"
            if ge != gt and rule is None:
                rule = index, follows
            elif ge != gt and follows != rule[1]:
                raise ValidationError(
                    f"{source}: segment {index}: allowed_sae_levels {sorted(LEVEL_SETS[code])} follow score {follows} "
                    f"threshold {threshold!r}, but segment {rule[0]}'s follow score {rule[1]} threshold"
                )
    problem = segment_count_error(len(indexes), length_km, segment_length_m)
    if problem:
        raise ValidationError(f"{source}: {problem}")
    return CorridorAssessment(
        corridor_id=corridor_id,
        length_km=length_km,
        segment_length_m=segment_length_m,
        threshold=threshold,
        weight_provenance=weight_provenance,
        segments=SegmentColumns(asd, aud, levels, segment_length_m),
    )
