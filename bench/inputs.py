"""Seeded benchmark inputs, built from the bundled synthetic corridor.

Every workload takes its inputs from here, and one seed gives the same
inputs. A corridor tiles the 240-segment baseline from
``hri.fixtures.generate_baseline_corridor()`` from a seeded offset, lets each
adequacy value wear down one level with a fixed probability, and adds seeded
roadworks or maintenance overlays on whole segments. The generator keeps its
own copy of the values, so checks can compare the program's output with an
expected value that did not come from the program.

Sizes and shapes are fixed; the seed only moves values and positions. Lengths
and overlay counts are stratified rather than drawn freely, so that two seeds
give workloads of the same size.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from hri import fixtures
from hri.taxonomy import attribute_ids

SEGMENT_M = 100.0
WEAR_PROBABILITY = 0.05

NETWORK_CORRIDORS = 24
NETWORK_MIN_SEGMENTS = 120  # 12 km
NETWORK_MAX_SEGMENTS = 255  # 25.5 km
NETWORK_MAX_OVERLAYS = 4
LONG_SEGMENTS = 10_000  # 1,000 km
LONG_OVERLAYS = 32
RSU_SEGMENTS = 6_000
RSU_MESSAGES = 6
RSU_MIN_ZONES = 3
RSU_MAX_ZONES = 255  # the u8 zone count of the wire format

# Attributes an overlay of each kind may touch, after the bundled fixtures.
_OVERLAY_POOLS = {
    "roadworks": (
        "lane-mark-consistency",
        "lane-mark-retroreflectivity",
        "lane-mark-maintenance",
        "lane-mark-contrast",
        "lane-mark-width",
        "horizontal-curvature",
        "roadwork-sign-compliance",
    ),
    "maintenance": (
        "pavement-maintenance",
        "lane-mark-maintenance",
        "sign-maintenance",
        "guard-rail",
        "road-studs",
        "rumble-stripes",
        "lighting",
        "emergency-lane",
        "vegetation-maintenance",
        "lane-mark-retroreflectivity",
    ),
}


@dataclass(frozen=True)
class OverlaySpec:
    """An overlay on the segments ``from_idx <= i < to_idx``."""

    name: str
    from_idx: int
    to_idx: int
    ops: tuple[tuple[str, str, int], ...]  # (op, attribute, value)

    def document(self) -> dict:
        return {
            "name": self.name,
            "from_km": self.from_idx * SEGMENT_M / 1000.0,
            "to_km": self.to_idx * SEGMENT_M / 1000.0,
            "ops": [{"op": op, "attribute": attr, "value": value} for op, attr, value in self.ops],
        }


@dataclass(frozen=True)
class CorridorSpec:
    """Values per segment, in registry attribute order, before overlays."""

    corridor_id: str
    values: tuple[tuple[int, ...], ...]
    overlays: tuple[OverlaySpec, ...]

    @property
    def segments(self) -> int:
        return len(self.values)

    @property
    def length_km(self) -> float:
        return self.segments * SEGMENT_M / 1000.0

    def expected_values(self, index: int) -> dict[str, int]:
        """Values of one segment after every overlay, applied in order."""
        values = dict(zip(attribute_ids(), self.values[index]))
        for overlay in self.overlays:
            if overlay.from_idx <= index < overlay.to_idx:
                for op, attr, value in overlay.ops:
                    values[attr] = value if op == "set" else min(values[attr], value)
        return values

    def csv_text(self) -> str:
        meta = {
            "corridor_id": self.corridor_id,
            "length_km": self.length_km,
            "segment_length_m": SEGMENT_M,
        }
        lines = ["# " + json.dumps(meta), "segment_index,attribute,value"]
        attrs = attribute_ids()
        for index, row in enumerate(self.values):
            lines.extend(f"{index},{attr},{value}" for attr, value in zip(attrs, row))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class CorridorFiles:
    """A corridor written to disk: the CSV and one JSON file per overlay."""

    spec: CorridorSpec
    csv_path: Path
    overlay_paths: tuple[Path, ...]


@lru_cache(maxsize=1)
def _baseline_rows() -> tuple[tuple[int, ...], ...]:
    profile = fixtures.generate_baseline_corridor()
    attrs = attribute_ids()
    return tuple(tuple(seg.values[attr] for attr in attrs) for seg in profile.segments)


def make_corridor(
    rng: random.Random, corridor_id: str, segments: int, overlays: int, max_overlay_segments: int
) -> CorridorSpec:
    base = _baseline_rows()
    offset = rng.randrange(len(base))
    rows = []
    for i in range(segments):
        row = base[(offset + i) % len(base)]
        rows.append(tuple(v - 1 if v and rng.random() < WEAR_PROBABILITY else v for v in row))
    specs = []
    for k in range(overlays):
        kind = rng.choice(sorted(_OVERLAY_POOLS))
        pool = _OVERLAY_POOLS[kind]
        span = rng.randint(5, min(max_overlay_segments, segments))
        start = rng.randrange(segments - span + 1)
        ops = tuple(
            ("set", attr, 0) if rng.random() < 0.5 else ("cap", attr, 1)
            for attr in rng.sample(pool, rng.randint(2, len(pool)))
        )
        specs.append(OverlaySpec(f"{kind}-{k}", start, start + span, ops))
    return CorridorSpec(corridor_id, tuple(rows), tuple(specs))


def network(seed: int) -> list[CorridorSpec]:
    """Corridors of 12-25.5 km with 0-4 overlays each, in a seeded order."""
    rng = random.Random(f"network-{seed}")
    width = NETWORK_MAX_SEGMENTS - NETWORK_MIN_SEGMENTS + 1
    plan = [
        (
            NETWORK_MIN_SEGMENTS + int((j + rng.random()) * width / NETWORK_CORRIDORS),
            j % (NETWORK_MAX_OVERLAYS + 1),
        )
        for j in range(NETWORK_CORRIDORS)
    ]
    rng.shuffle(plan)
    return [
        make_corridor(rng, f"net-{seed}-{j}", segments, overlays, 60)
        for j, (segments, overlays) in enumerate(plan)
    ]


def long_corridor(seed: int) -> CorridorSpec:
    """One 1,000 km corridor with tens of overlays of up to 20 km."""
    rng = random.Random(f"long-{seed}")
    return make_corridor(rng, f"long-{seed}", LONG_SEGMENTS, LONG_OVERLAYS, 200)


def rsu_corridor(seed: int) -> CorridorSpec:
    """The corridor whose prefixes give the RSU message set."""
    rng = random.Random(f"rsu-{seed}")
    return make_corridor(rng, f"rsu-{seed}", RSU_SEGMENTS, RSU_SEGMENTS // 100, 200)


def rsu_zone_targets(seed: int) -> list[int]:
    """Zone counts of the RSU message set: evenly spread from a few to 255."""
    rng = random.Random(f"rsu-zones-{seed}")
    step = (RSU_MAX_ZONES - RSU_MIN_ZONES) / (RSU_MESSAGES - 1)
    targets = [RSU_MIN_ZONES + round(k * step) for k in range(RSU_MESSAGES)]
    for k in range(1, RSU_MESSAGES - 1):
        targets[k] += rng.randint(-5, 5)
    return targets


def write_corridor(spec: CorridorSpec, directory: Path) -> CorridorFiles:
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{spec.corridor_id}.csv"
    csv_path.write_text(spec.csv_text(), encoding="utf-8")
    overlay_paths = []
    for k, overlay in enumerate(spec.overlays):
        path = directory / f"{spec.corridor_id}.overlay{k}.json"
        path.write_text(json.dumps(overlay.document(), indent=2) + "\n", encoding="utf-8")
        overlay_paths.append(path)
    return CorridorFiles(spec, csv_path, tuple(overlay_paths))


def zone_ends(assessment) -> list[int]:
    """Exclusive end index of each zone ``build_ivim`` would coalesce.

    Segments join a zone while their allowed levels and both classes stay
    the same. Used to size the RSU message set and to report the zone count
    of corridors too long to become one message.
    """
    ends = []
    previous = None
    for i, seg in enumerate(assessment.segments):
        key = (seg.recommendation.allowed_sae_levels, tuple(seg.classes.values()))
        if previous is not None and key != previous:
            ends.append(i)
        previous = key
    ends.append(len(assessment.segments))
    return ends


def zone_stats(counts: list[int]) -> dict[str, float]:
    return {"zones_median": statistics.median(counts), "zones_max": max(counts)}
