"""Corridor model: fixed-length segments with per-attribute adequacy values.

A corridor is a 1-D chainage model — an ordered, gap-free sequence of
segments (default 100 m) each carrying an adequacy value in {0,1,2} for
every registered attribute. Scenario overlays mutate adequacy over a km
range (roadworks, degraded maintenance) without touching geometry; rubrics
map raw field measurements onto the adequacy scale.

A profile stores its segments as rows (:class:`SegmentRows`): one attribute
order and one ``bytes`` row of values per segment, with geometry taken from
the grid. Profiles are immutable; overlay application returns a new profile.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, replace
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from ._util import DEFAULT_SEGMENT_LENGTH_M  # noqa: F401 - public at this path too
from ._util import ADEQUACY, BLANKS, GEOM_EPS as _GEOM_EPS, SLICE_SEGMENTS as _SLICE_SEGMENTS, check_adequacy
from ._util import expected_segment_count, grid_error
from ._util import hold_to_grid, json_fault, json_float, json_int, json_str, parse_adequacy, parse_int, parse_json
from ._util import read_csv_table, read_header, read_input, read_input_bytes, write_csv_table
from .errors import ParseError, ValidationError
from .taxonomy import attribute_ids, is_known_attribute

_VALUE_OF = {str(value): value for value in ADEQUACY}
_DIGITS = "".join(_VALUE_OF).encode()  # the written values, one byte each
MISSING = 0xFF
"""The row byte of an attribute that a segment has no value for."""
_ROW_BYTES = bytes([*ADEQUACY, MISSING])


@dataclass(frozen=True)
class SegmentObservation:
    """Adequacy values observed on one segment."""

    index: int
    start_m: float
    length_m: float
    values: Mapping[str, int]

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError(f"segment index must be non-negative, got {self.index}")
        if not self.length_m > 0:  # NaN included
            raise ValueError(f"segment length must be positive, got {self.length_m}")
        if not abs(self.start_m - self.index * self.length_m) <= _GEOM_EPS:
            raise ValueError(f"segment {self.index}: start_m {self.start_m} != index * length_m")
        for attr, value in self.values.items():
            if value not in ADEQUACY:  # the text names the attribute, so it is built only for a value off the scale
                check_adequacy(value, f"segment {self.index}: adequacy for {attr!r}")
        if type(self.values) is not MappingProxyType:
            object.__setattr__(self, "values", MappingProxyType(dict(self.values)))

    @property
    def end_m(self) -> float:
        return self.start_m + self.length_m


class SegmentRows(Sequence):
    """A corridor's segments as rows: ``rows[i]`` holds segment ``i``'s
    adequacy values in ``attributes`` order, one byte each (``MISSING`` where
    the segment has no value). Segment ``i`` starts at ``i * segment_length_m``.
    A row byte other than 0, 1, 2 and ``MISSING`` is a ``ValueError``.

    ``len`` reads the row count; indexing builds a :class:`SegmentObservation`.
    """

    __slots__ = ("attributes", "rows", "segment_length_m")

    def __init__(self, attributes: tuple[str, ...], rows: tuple[bytes, ...], segment_length_m: float) -> None:
        self.attributes = tuple(attributes)
        self.rows = tuple(rows)
        self.segment_length_m = segment_length_m
        bad = b"".join(self.rows).translate(None, _ROW_BYTES)
        if bad:
            raise ValueError(f"row byte {bad[0]} is not an adequacy value 0, 1 or 2, or MISSING")

    @classmethod
    def of(cls, segments: tuple[SegmentObservation, ...], segment_length_m: float) -> SegmentRows:
        """Rows of segments on the grid, else a ValidationError; attributes in the order the values first name them."""
        problem = grid_error(((seg.index, seg.start_m, seg.length_m) for seg in segments), segment_length_m)
        if problem:
            raise ValidationError(problem)
        order = tuple(dict.fromkeys(attr for segment in segments for attr in segment.values))
        slot_of = {attr: slot for slot, attr in enumerate(order)}
        rows = []
        for segment in segments:
            row = bytearray([MISSING]) * len(order)
            for attr, value in segment.values.items():
                row[slot_of[attr]] = int(value)
            rows.append(bytes(row))
        return cls(order, rows, segment_length_m)

    @property
    def complete(self) -> bool:
        """Whether every segment has a value for every attribute."""
        return bytes([MISSING]) not in b"".join(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        positions = range(len(self.rows))[i]  # the index of ``i``, or the indexes of a slice
        if isinstance(i, slice):
            return tuple(map(self.__getitem__, positions))
        row = self.rows[i]
        pairs = zip(self.attributes, row)
        values = dict(pairs) if MISSING not in row else {attr: value for attr, value in pairs if value != MISSING}
        length = self.segment_length_m
        return SegmentObservation(positions, positions * length, length, MappingProxyType(values))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SegmentRows):
            return tuple(self) == other if isinstance(other, tuple) else NotImplemented
        if (self.attributes, self.segment_length_m) == (other.attributes, other.segment_length_m):
            return self.rows == other.rows
        return tuple(self) == tuple(other)

    __hash__ = None  # like the observations, whose values are read-only mappings

    def __repr__(self) -> str:
        return f"SegmentRows({len(self.rows)} segments of {len(self.attributes)} attributes)"


@dataclass(frozen=True)
class CorridorProfile:
    """An ordered, contiguous partition of a corridor into segments.

    ``segments``, as many as ``length_km`` gives, may be given as a sequence
    of :class:`SegmentObservation` on the grid; it is kept as :class:`SegmentRows`.
    """

    corridor_id: str
    length_km: float
    segment_length_m: float
    segments: SegmentRows

    def __post_init__(self) -> None:
        hold_to_grid(self, SegmentRows)


@dataclass(frozen=True)
class OverlayOp:
    """One attribute mutation: ``set`` replaces, ``cap`` applies min(value, max)."""

    op: str
    attribute: str
    value: int

    def __post_init__(self) -> None:
        if self.op not in ("set", "cap"):
            raise ValueError(f"overlay op must be 'set' or 'cap', got {self.op!r}")
        check_adequacy(self.value, "overlay value")
        if not is_known_attribute(self.attribute):
            raise ValueError(f"unknown attribute {self.attribute!r}")

    def apply(self, value: int) -> int:
        return self.value if self.op == "set" else min(value, self.value)


@dataclass(frozen=True)
class ScenarioOverlay:
    """A named adequacy mutation over the half-open km range [from_km, to_km)."""

    name: str
    from_km: float
    to_km: float
    ops: tuple[OverlayOp, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "ops", tuple(self.ops))
        if not self.from_km < self.to_km:
            raise ValueError(f"overlay range [{self.from_km}, {self.to_km}) is empty or inverted")


def apply_overlay(profile: CorridorProfile, *overlays: ScenarioOverlay) -> CorridorProfile:
    """Return a new profile with the overlays applied in order, each to the segments it intersects.

    Segment intervals are half-open [start, end), so a km range partitions
    the corridor deterministically. Geometry is never changed; only the rows
    of intersecting segments are rewritten, each overlay in turn, into one
    row list: one call raises what one call per overlay would.
    """
    segments = profile.segments
    length = segments.segment_length_m
    slot_of = {attr: slot for slot, attr in enumerate(segments.attributes)}
    rows = list(segments.rows)
    # starts and ends grow with the index, so the segments that end after an overlay's start and start
    # before its end are one run of indexes
    indexes = range(len(rows))
    for overlay in overlays:
        if overlay.from_km < -_GEOM_EPS or overlay.to_km > profile.length_km + _GEOM_EPS:
            raise ValidationError(
                f"overlay {overlay.name!r} range [{overlay.from_km}, {overlay.to_km}) km "
                f"outside corridor [0, {profile.length_km}) km"
            )
        after_m = overlay.from_km * 1000.0 + _GEOM_EPS  # a segment must end after this
        before_m = overlay.to_km * 1000.0 - _GEOM_EPS  # and start before this
        ops = [(slot_of.get(op.attribute), op) for op in overlay.ops]
        first = bisect_right(indexes, after_m, key=lambda index: index * length + length)
        for index in range(first, bisect_left(indexes, before_m, key=lambda index: index * length)):
            row = bytearray(rows[index])
            for slot, op in ops:
                if slot is None or row[slot] == MISSING:
                    raise ValidationError(
                        f"overlay {overlay.name!r}: segment {index} has no value for {op.attribute!r}"
                    )
                row[slot] = op.apply(row[slot])
            rows[index] = bytes(row)
    return replace(profile, segments=SegmentRows(segments.attributes, rows, length))


# ---------------------------------------------------------------------------
# Rubrics: raw field measurement -> adequacy level
# ---------------------------------------------------------------------------

DIRECTION_HIGHER = "higher-is-better"
DIRECTION_LOWER = "lower-is-better"


@dataclass(frozen=True)
class RubricEntry:
    """Breakpoints mapping a raw measurement to an adequacy level.

    ``breakpoints`` are (threshold, level) pairs ordered by ascending
    threshold; the first threshold is None (unbounded below). Each interval
    is closed on its lower bound, so a measurement exactly on a threshold
    falls in the higher measurement interval. Levels must cover {0,1,2}
    exactly once, ascending for higher-is-better and descending otherwise.
    """

    direction: str
    breakpoints: tuple[tuple[float | None, int], ...]
    unit: str | None = None

    def __post_init__(self) -> None:
        if self.direction not in (DIRECTION_HIGHER, DIRECTION_LOWER):
            raise ValueError(f"unknown direction {self.direction!r}")
        object.__setattr__(self, "breakpoints", tuple(self.breakpoints))
        if len(self.breakpoints) != 3 or self.breakpoints[0][0] is not None:
            raise ValueError("rubric needs 3 breakpoints, the first with threshold null")
        thresholds = [t for t, _ in self.breakpoints[1:]]
        if any(t is None for t in thresholds) or not thresholds[0] < thresholds[1]:
            raise ValueError("rubric thresholds must be strictly increasing")
        levels = [level for _, level in self.breakpoints]
        expected = list(ADEQUACY) if self.direction == DIRECTION_HIGHER else list(reversed(ADEQUACY))
        if levels != expected:
            raise ValueError(
                f"rubric levels {levels} do not cover 0..2 in {self.direction} order"
            )

    def level_for(self, measurement: float) -> int:
        level = self.breakpoints[0][1]
        for threshold, candidate in self.breakpoints[1:]:
            if measurement >= threshold:
                level = candidate
        return level


def operationalize(
    raw: Mapping[str, float],
    rubric: Mapping[str, RubricEntry],
) -> dict[str, int]:
    """Map raw measurements onto adequacy values via the rubric; a NaN measurement is a ValidationError."""
    values: dict[str, int] = {}
    for attr, measurement in raw.items():
        entry = rubric.get(attr)
        if entry is None:
            raise ValidationError(f"no rubric entry for attribute {attr!r}")
        if measurement != measurement:  # NaN, which no threshold orders: level_for would give the first level
            raise ValidationError(f"measurement {measurement!r} for attribute {attr!r} is not a number")
        values[attr] = entry.level_for(measurement)
    return values


def load_rubric(path: str | Path) -> dict[str, RubricEntry]:
    """Load a rubric JSON file: {attribute: {direction, unit?, breakpoints: [{threshold, level}, ...]}}; a bad field
    is named."""
    source = str(path)
    doc = parse_json(read_input(path), source)
    if not isinstance(doc, dict):
        raise ParseError("rubric document must be a JSON object", source=source)
    rubric: dict[str, RubricEntry] = {}
    for attr, spec in doc.items():
        if not is_known_attribute(attr):
            raise ParseError(f"unknown attribute {attr!r}", source=source)
        try:
            if type(spec) is not dict:
                raise TypeError(f"entry {spec!r} is not an object")
            if type(spec["breakpoints"]) is not list:
                raise TypeError(f"breakpoints {spec['breakpoints']!r} is not a list")
            breakpoints = []
            for position, bp in enumerate(spec["breakpoints"]):
                if type(bp) is not dict:
                    raise TypeError(f"breakpoints[{position}] {bp!r} is not an object")
                threshold = None if bp["threshold"] is None else json_float(bp["threshold"], "threshold")
                breakpoints.append((threshold, json_int(bp["level"], "level")))
            unit = spec.get("unit")
            rubric[attr] = RubricEntry(
                direction=json_str(spec["direction"], "direction"),
                breakpoints=breakpoints,
                unit=None if unit is None else json_str(unit, "unit"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad rubric for {attr!r}: {json_fault(exc)}", source=source) from None
    return rubric


# ---------------------------------------------------------------------------
# Corridor CSV interchange
#
# Header: segment_index,attribute,value — one row per (segment, attribute).
# Metadata (corridor_id, length_km, segment_length_m) comes from a leading
# '# {json}' comment line or an explicit mapping/sidecar file.
# ---------------------------------------------------------------------------

_CORRIDOR_HEADER = ["segment_index", "attribute", "value"]
_PLAIN_HEADER = (",".join(_CORRIDOR_HEADER) + "\n").encode()
_CELL_OF_DIGIT = bytes.maketrans(_DIGITS, bytes(ADEQUACY))  # a written value -> its cell byte


def load_corridor(
    path: str | Path,
    meta: str | Path | Mapping | None = None,
) -> CorridorProfile:
    """Load a corridor CSV, enforcing attribute totality per segment.

    The metadata comes from a leading ``# {...}`` line of the CSV or from
    ``meta``, a JSON sidecar path or a mapping. Given in both places, they
    must agree field for field, else a ValidationError names both.
    """
    source = str(path)
    data = read_input_bytes(path)
    header = None  # (corridor_id, length_km, segment_length_m)
    newline = data.find(b"\n")  # not split: that would copy the whole file
    first_line = (data if newline < 0 else data[:newline]).decode().strip(BLANKS)
    if first_line.startswith("#"):
        candidate = first_line.lstrip("#").strip(BLANKS)
        if candidate.startswith("{"):
            doc = parse_json(candidate, source, what="metadata JSON", line=1)
            header = read_header(doc, source, line=1)
    if meta is not None:
        meta_source = "<meta>" if isinstance(meta, Mapping) else str(meta)
        doc = dict(meta) if isinstance(meta, Mapping) else parse_json(read_input(meta), meta_source)
        given = read_header(doc, meta_source)
        if header is not None and given != header:
            fields = zip(("corridor_id", "length_km", "segment_length_m"), header, given)
            name, ours, theirs = next(field for field in fields if field[1] != field[2])
            raise ValidationError(
                f"corridor metadata given twice: {source}:line 1 has {name} {ours!r}, {meta_source} has {theirs!r}"
            )
        header = given
    if header is None:
        raise ParseError("no metadata: expected a leading '# {json}' line or a sidecar", source=source)

    corridor_id, length_km, segment_length_m = header
    registry = attribute_ids()
    expected = expected_segment_count(length_km, segment_length_m)
    rows = _plain_rows(data, registry, expected)
    if rows is None:
        text = data.decode()
        del data  # the csv loop needs only the text, so the bytes are not held meanwhile
        rows = _csv_rows(text, source, registry, expected, length_km)
    segments = SegmentRows(registry, rows, segment_length_m)
    return CorridorProfile(corridor_id, length_km, segment_length_m, segments)


def _plain_rows(data: bytes, registry: tuple[str, ...], expected: int) -> list[bytes] | None:
    """The rows of corridor CSV bytes in the written form, or None for any other bytes.

    ``data`` holds no CR, as :func:`read_input_bytes` gives it. The written
    form is what :func:`dump_corridor` writes: ``#`` lines that csv reads as
    one record each, the header line, and then a body in the written order
    that :func:`_ordered_cells` checks as a whole. Such rows hold no quote
    or NUL, so csv splits them the same way, and each check of
    :func:`_csv_rows` holds. Other bytes, a body in another order among
    them, go to :func:`_csv_rows`, which reads their text or reports its
    first fault.
    """
    start = 0
    limit = csv.field_size_limit()
    while data.startswith(b"#", start):
        end = data.find(b"\n", start)
        if end < 0:
            return None
        comment = data[start:end]
        if b',"' in comment or b"\0" in comment or len(comment) > limit:
            return None  # csv could read a quoted field across lines, a NUL or an over-long field
        start = end + 1
    if not data.startswith(_PLAIN_HEADER, start):
        return None
    cells = _ordered_cells(data, registry, expected, start + len(_PLAIN_HEADER))
    if cells is None:
        return None
    width = len(registry)
    filled = bytes(cells)
    return [filled[cell : cell + width] for cell in range(0, len(filled), width)]


def _ordered_cells(data: bytes, registry: tuple[str, ...], expected: int, start: int = 0) -> bytearray | None:
    """The cells of the plain body that starts at byte ``start`` of ``data``
    in the written order, or None for any other body.

    The written order is one ``index,attribute,value`` line per cell by
    ascending index, each segment's lines in ``registry`` order, the last
    newline optional. The segments whose indexes have ``d`` digits form one
    run of equal-length blocks, in which each index digit, each value and
    every other byte sits at a fixed offset; so each run is checked with a
    few strided slices, not line by line, in slices of at most
    ``_SLICE_SEGMENTS`` segments. A slice is rebuilt from the written text
    of its indexes and attributes, with the values copied from ``data`` into
    their columns, and must equal ``data``'s bytes there; the values must be
    ``0``, ``1`` or ``2``.
    """
    width = len(registry)
    names = len("".join(registry).encode())
    runs = []  # (digits, first index, end index, first byte, block length)
    size = low = 0
    digits = 1
    while low < expected:  # the size of the written body, before anything sized by ``expected``
        high = min(10**digits, expected)
        block = width * (digits + 4) + names  # "i,attr,v\n" per attribute
        runs.append((digits, low, high, start + size, block))
        size += (high - low) * block
        low, digits = high, digits + 1
    if len(data) - start not in (size, size - 1):  # size - 1: no final newline
        return None
    cells = bytearray(expected * width)
    for digits, low, high, first, block in runs:
        lines = [f"{'0' * digits},{attr},0\n".encode() for attr in registry]
        template = b"".join(lines)
        for lo in range(low, high, _SLICE_SEGMENTS):
            hi = min(lo + _SLICE_SEGMENTS, high)
            begin = first + (lo - low) * block
            end = begin + (hi - lo) * block
            numbers = b"%d" * (hi - lo) % tuple(range(lo, hi))
            columns = [numbers[j::digits] for j in range(digits)]  # the j-th digit of each index
            run = bytearray(template) * (hi - lo)
            at = 0
            for slot, line in enumerate(lines):
                for j, column in enumerate(columns):
                    run[at + j :: block] = column
                at += len(line)
                values = data[begin + at - 2 : end : block]
                run[at - 2 :: block] = values
                cells[lo * width + slot : hi * width : width] = values
            if end > len(data):  # the last line without its newline
                del run[-1]
            if not data.startswith(run, begin):
                return None
    if cells.translate(None, _DIGITS):
        return None
    return cells.translate(_CELL_OF_DIGIT)


def _csv_rows(text: str, source: str, registry: tuple[str, ...], expected: int, length_km: float) -> list[bytes]:
    """The rows of any corridor CSV, read with csv; a ParseError names the first fault."""
    slot_of = {attr: slot for slot, attr in enumerate(registry)}
    blank = bytes([MISSING]) * len(registry)
    per_segment: dict[int, bytearray] = {}  # per segment, its values in registry order
    last_key = index = slots = None
    slot_for, value_for = slot_of.get, _VALUE_OF.get  # bound once: called for every row

    def read_row(row: list[str]) -> None:
        nonlocal last_key, index, slots
        key, attr, cell = row
        # a repeated index text is the previous row's segment, so it is parsed once
        if key != last_key:
            try:
                index = parse_int(key)
            except ValueError:
                raise ValueError(f"malformed segment index {key!r}") from None
            if index < 0:
                raise ValueError(f"negative segment index {index}")
            slots = per_segment.get(index)
            if slots is None:
                slots = per_segment[index] = bytearray(blank)
            last_key = key
        slot = slot_for(attr)
        if slot is None:
            attr = attr.strip(BLANKS)
            slot = slot_for(attr)
            if slot is None:
                raise ValueError(f"unknown attribute {attr!r}")
        value = value_for(cell)
        if value is None:
            value = parse_adequacy(cell, "adequacy value")
        if slots[slot] != MISSING:
            raise ValueError(f"duplicate row for segment {index}, attribute {registry[slot]!r}")
        slots[slot] = value

    read_csv_table(text, source, _CORRIDOR_HEADER, "no data rows", read_row)
    for index in range(expected):
        if index not in per_segment:
            raise ParseError(f"gap: segment {index} missing", source=source)
    if len(per_segment) > expected:
        raise ParseError(
            f"corridor length {length_km} km implies {expected} segments, "
            f"but segment {min(i for i in per_segment if i >= expected)} is present",
            source=source,
        )
    rows = []
    for index in range(expected):
        values = bytes(per_segment[index])
        if MISSING in values:
            missing = [attr for attr, value in zip(registry, values) if value == MISSING]
            raise ParseError(f"segment {index} missing attributes: {', '.join(missing)}", source=source)
        rows.append(values)
    return rows


def dump_corridor(profile: CorridorProfile) -> str:
    """Render a corridor CSV with a leading metadata comment line."""
    meta = {
        "corridor_id": profile.corridor_id,
        "length_km": profile.length_km,
        "segment_length_m": profile.segment_length_m,
    }
    rows = (
        (segment.index, attr, value)
        for segment in profile.segments
        for attr, value in segment.values.items()
    )
    return "# " + json.dumps(meta) + "\n" + write_csv_table(_CORRIDOR_HEADER, rows)


def load_overlay(path: str | Path) -> ScenarioOverlay:
    """Load an overlay JSON file: {name, from_km, to_km, ops: [{op, attribute, value}, ...]}; a bad field is named."""
    source = str(path)
    doc = parse_json(read_input(path), source)
    try:
        if type(doc) is not dict:
            raise TypeError("the document is not an object")
        if type(doc["ops"]) is not list:
            raise TypeError(f"ops {doc['ops']!r} is not a list")
        ops = []
        for position, op in enumerate(doc["ops"]):
            if type(op) is not dict:
                raise TypeError(f"ops[{position}] {op!r} is not an object")
            kind = json_str(op["op"], "op")
            attribute = json_str(op["attribute"], "attribute")
            ops.append(OverlayOp(kind, attribute, json_int(op["value"], "value")))
        return ScenarioOverlay(
            name=json_str(doc["name"], "name"),
            from_km=json_float(doc["from_km"], "from_km"),
            to_km=json_float(doc["to_km"], "to_km"),
            ops=ops,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad overlay: {json_fault(exc)}", source=source) from None
