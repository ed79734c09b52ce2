"""Static ODD attribute registry and impact-weight tables.

The registry is the closed set of 23 static road-infrastructure attributes
rated by the expert survey, partitioned into four macro-categories
(5 markings/signage, 6 maintenance/management, 11 design/safety, 1 HD maps).
Weight tables map every (automation-level group, attribute) pair onto a
non-negative impact weight on the survey's 0..2 scale.

Everything here is immutable after construction and safe for concurrent
reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._util import BLANKS, parse_real, read_csv_table, read_input, write_csv_table
from ._util import (  # noqa: F401 - the score vocabulary, public at this path too
    BANDS, LEVEL_CODES, LEVEL_MASKS, LEVEL_SETS, V_MAX, AutomationLevelGroup, MacroCategory, ReadinessClass,
    band_indexes, check_scores, level_code, readiness_band,
)
from .errors import ValidationError

PROVENANCE_BUILTIN = "builtin-fig2"
PROVENANCE_CUSTOM = "custom"


@dataclass(frozen=True)
class Attribute:
    """One registered static infrastructure attribute."""

    id: str
    display_name: str
    category: MacroCategory


_RMS = MacroCategory.ROAD_MARKINGS_SIGNAGE
_RMM = MacroCategory.ROAD_MAINTENANCE_MANAGEMENT
_RDS = MacroCategory.ROADWAY_DESIGN_SAFETY
_HD = MacroCategory.PRELOADED_HD_MAPS

# Closed registry, in the survey chart's left-to-right order (categories are
# contiguous). Ids are stable kebab-case strings so corridor files stay
# human-editable and order-independent.
_REGISTRY: tuple[Attribute, ...] = (
    Attribute("lane-mark-retroreflectivity", "Lane marking retroreflectivity", _RMS),
    Attribute("lane-mark-contrast", "Lane marking contrast", _RMS),
    Attribute("sign-retroreflectivity", "Sign retroreflectivity", _RMS),
    Attribute("variable-message-signs", "Variable message signs", _RMS),
    Attribute("lane-mark-width", "Lane marking width", _RMS),
    Attribute("roadwork-sign-compliance", "Roadwork signage compliance", _RMM),
    Attribute("pavement-maintenance", "Pavement maintenance", _RMM),
    Attribute("vegetation-maintenance", "Vegetation maintenance", _RMM),
    Attribute("lane-mark-consistency", "Lane marking consistency", _RMM),
    Attribute("lane-mark-maintenance", "Lane marking maintenance", _RMM),
    Attribute("sign-maintenance", "Sign maintenance", _RMM),
    Attribute("dedicated-av-lane", "Dedicated AV lane", _RDS),
    Attribute("emergency-lane", "Emergency lane", _RDS),
    Attribute("lane-width", "Lane width", _RDS),
    Attribute("road-studs", "Road studs", _RDS),
    Attribute("lay-by", "Lay-by availability", _RDS),
    Attribute("vertical-curvature", "Vertical curvature", _RDS),
    Attribute("draining-pavement", "Draining pavement", _RDS),
    Attribute("guard-rail", "Guard rail", _RDS),
    Attribute("lighting", "Lighting", _RDS),
    Attribute("rumble-stripes", "Rumble stripes", _RDS),
    Attribute("horizontal-curvature", "Horizontal curvature", _RDS),
    Attribute("hd-maps", "Preloaded HD maps", _HD),
)

_BY_ID: Mapping[str, Attribute] = MappingProxyType({a.id: a for a in _REGISTRY})


def builtin_attribute_registry() -> tuple[Attribute, ...]:
    """Return the 23 registered attributes in canonical order."""
    return _REGISTRY


def attribute_ids() -> tuple[str, ...]:
    return tuple(a.id for a in _REGISTRY)


def attribute_by_id(attribute_id: str) -> Attribute:
    """Look up a registered attribute; raises ``KeyError`` for unknown ids."""
    try:
        return _BY_ID[attribute_id]
    except KeyError:
        raise KeyError(f"unknown attribute id {attribute_id!r}") from None


def is_known_attribute(attribute_id: str) -> bool:
    return attribute_id in _BY_ID


@dataclass(frozen=True)
class WeightTable:
    """Per-(group, attribute) impact weights with a provenance tag."""

    weights: Mapping[tuple[AutomationLevelGroup, str], float]
    provenance: str = PROVENANCE_CUSTOM

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", MappingProxyType(dict(self.weights)))

    def lookup(self, group: AutomationLevelGroup, attribute_id: str) -> float:
        try:
            return self.weights[(group, attribute_id)]
        except KeyError:
            raise KeyError(f"no weight for ({group.value}, {attribute_id!r})") from None

    def group_weights(self, group: AutomationLevelGroup) -> dict[str, float]:
        """Weights of one group, preserving the table's attribute order."""
        return {attr: w for (g, attr), w in self.weights.items() if g is group}

    def group_sum(self, group: AutomationLevelGroup) -> float:
        return sum(self.group_weights(group).values())

    def attribute_ids_present(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for (_, attr) in self.weights:
            seen.setdefault(attr)
        return tuple(seen)


@dataclass(frozen=True)
class WeightIssue:
    """One validation finding; ``kind`` is 'missing', 'negative' or 'all-zero'."""

    kind: str
    group: AutomationLevelGroup | None
    attribute_id: str | None
    detail: str


def validate_weight_table(table: WeightTable) -> list[WeightIssue]:
    """Check totality over the built-in attribute set, non-negativity and non-degenerate group sums.

    An empty report means the table is valid.
    """
    issues: list[WeightIssue] = []
    for group in AutomationLevelGroup:
        for attr in attribute_ids():
            if (group, attr) not in table.weights:
                issues.append(
                    WeightIssue("missing", group, attr, f"no weight for ({group.value}, {attr})")
                )
    for (group, attr), w in table.weights.items():
        if w < 0:
            issues.append(
                WeightIssue("negative", group, attr, f"weight {w} for ({group.value}, {attr}) is negative")
            )
    for group in AutomationLevelGroup:
        present = [w for (g, _), w in table.weights.items() if g is group]
        if present and all(w == 0 for w in present):
            issues.append(
                WeightIssue("all-zero", group, None, f"all weights for group {group.value} are zero")
            )
    return issues


_WEIGHT_HEADER = ("attribute", "asd_weight", "aud_weight")


def parse_weight_table(
    text: str,
    *,
    provenance: str = PROVENANCE_CUSTOM,
    source: str | None = None,
) -> WeightTable:
    """Parse the ``attribute,asd_weight,aud_weight`` CSV form.

    Lines starting with ``#`` are comments. Unknown attributes, duplicates,
    malformed numbers and weights that are not finite are rejected with
    their line number.
    """
    pairs: dict[str, tuple[float, float]] = {}  # (asd, aud) weights by attribute, in file order

    def read_row(row: list[str]) -> None:
        attr = row[0].strip(BLANKS)
        if not is_known_attribute(attr):
            raise ValueError(f"unknown attribute {attr!r}")
        if attr in pairs:
            raise ValueError(f"duplicate attribute {attr!r}")
        try:
            asd_w = parse_real(row[1])
            aud_w = parse_real(row[2])
        except ValueError:
            raise ValueError(f"malformed weight for {attr!r}") from None
        if not (math.isfinite(asd_w) and math.isfinite(aud_w)):
            raise ValueError(f"weight for {attr!r} is not finite")
        pairs[attr] = (asd_w, aud_w)

    read_csv_table(text, source, _WEIGHT_HEADER, "empty weight table", read_row)
    # Group-major, so that group_weights() follows file order per group.
    weights = {
        (group, attr): pair[slot]
        for slot, group in enumerate(AutomationLevelGroup)
        for attr, pair in pairs.items()
    }
    return WeightTable(weights, provenance=provenance)


def load_weight_table(path: str | Path) -> WeightTable:
    return parse_weight_table(read_input(path), source=str(path))


def dump_weight_table(table: WeightTable) -> str:
    """Render a table in the CSV interchange form (full float precision)."""
    asd, aud = AutomationLevelGroup.ASD, AutomationLevelGroup.AUD
    rows = ((attr, table.lookup(asd, attr), table.lookup(aud, attr)) for attr in table.attribute_ids_present())
    return write_csv_table(_WEIGHT_HEADER, rows)


@lru_cache(maxsize=1)
def builtin_weight_table() -> WeightTable:
    """The committed per-attribute survey means (provenance ``builtin-fig2``)."""
    text = resources.files("hri").joinpath("data/fig2_weights.csv").read_text(encoding="utf-8")
    table = parse_weight_table(text, provenance=PROVENANCE_BUILTIN, source="hri/data/fig2_weights.csv")
    issues = validate_weight_table(table)
    if issues:  # the committed file is valid by construction
        raise ValidationError(f"builtin weight table invalid: {issues[0].detail}")
    return table


# Macro-category survey means (provenance macro-table1): (asd, aud) per category.
_MACRO_WEIGHTS: Mapping[MacroCategory, tuple[float, float]] = MappingProxyType(
    {
        _RMS: (0.9, 1.1),
        _RMM: (1.3, 1.5),
        _RDS: (0.5, 0.7),
        _HD: (0.9, 1.7),
    }
)


@lru_cache(maxsize=1)
def macro_weight_table() -> Mapping[tuple[AutomationLevelGroup, MacroCategory], float]:
    """The eight averaged macro-category weights from the expert survey."""
    table = {}
    for group in AutomationLevelGroup:
        for category, (asd_w, aud_w) in _MACRO_WEIGHTS.items():
            table[(group, category)] = asd_w if group is AutomationLevelGroup.ASD else aud_w
    return MappingProxyType(table)
