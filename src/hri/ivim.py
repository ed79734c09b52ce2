"""Infrastructure-to-vehicle message (IVIM) model, builder and codec.

A message is a header plus a management container, optionally followed by a
geographic location container (reference point) and an automated-vehicle
container (ordered readiness zones with allowed SAE levels). Zones whose
level set is empty are carried too: "assessed, not suitable" is different
from "not covered".

Wire format (original, deterministic; NOT an ETSI ASN.1/UPER encoding —
field names follow the standardized container structure, but the byte
layout is this toolkit's own). Big-endian throughout, no padding. The layout
tables below declare each container's fields once, in wire order; README
"Wire format" gives their byte offsets. The header opens with the magic
'IVIM' and ends with the option flags (bit0 = location present, bit1 = AV
present), the message type is always 0x06, ivi_status codes are 0 = new,
1 = update, 2 = cancellation, a zone's level bitmask has bit0 = SAE1 ..
bit3 = SAE4, and a class code is the class's index in ``taxonomy.BANDS``.

Scores travel as fixed-point hundredths of a percent (cpct), floored so a
zone never claims more readiness than any of its coalesced segments.
Decoding is strict: bad magic, unknown flag bits, out-of-range values,
unpaired level bitmasks, a class other than its score's band, zone
disorder, truncation and trailing bytes are all rejected with the offending
byte offset.
"""

from __future__ import annotations

import math
import struct
from bisect import bisect_right
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, groupby
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, NamedTuple

from ._util import BAND_EDGES, BANDS, BLANKS, LEVEL_CODES, LEVEL_MASKS, LEVEL_SETS, ReadinessClass, band_indexes
from ._util import level_code, name_reader, parse_int
from .errors import DecodeError, ParseError, ValidationError

if TYPE_CHECKING:
    from .scoring import CorridorAssessment

MAGIC = b"IVIM"
MESSAGE_TYPE_IVIM = 0x06
DEFAULT_PROTOCOL_VERSION = 2

_FLAG_LOCATION = 0x01
_FLAG_AV = 0x02

_U8 = 0xFF
_CPCT_MAX = 100 * 100  # 100.00 %


class IviStatus(Enum):
    NEW = 0
    UPDATE = 1
    CANCELLATION = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> IviStatus:
        return _read_status(text)


@dataclass(frozen=True)
class IvimHeader:
    """Sending station id, protocol version and message type (always 0x06)."""

    station_id: int
    protocol_version: int = DEFAULT_PROTOCOL_VERSION
    message_type: int = MESSAGE_TYPE_IVIM


@dataclass(frozen=True)
class ManagementContainer:
    """Message id, issue time (ms since the Unix epoch), validity (s) and IVI status."""

    ivi_identification: int
    timestamp_ms: int
    validity_duration_s: int
    ivi_status: IviStatus


@dataclass(frozen=True)
class GeographicLocationContainer:
    """Zone reference point; chainage offsets in zones count from here."""

    latitude_e7: int
    longitude_e7: int


@dataclass(frozen=True)
class ZoneRecord:
    """One zone: chainage span (m), allowed SAE levels, and each group's class and score (cpct)."""

    start_m: int
    end_m: int
    allowed_sae_levels: frozenset[int]
    asd_class: ReadinessClass
    aud_class: ReadinessClass
    asd_score_cpct: int
    aud_score_cpct: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "allowed_sae_levels", frozenset(self.allowed_sae_levels))


@dataclass(frozen=True)
class AutomatedVehicleContainer:
    """The readiness zones, in chainage order."""

    zones: tuple[ZoneRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "zones", tuple(self.zones))


@dataclass(frozen=True)
class IvimMessage:
    """Header and management container, with optional location and automated-vehicle containers."""

    header: IvimHeader
    management: ManagementContainer
    location: GeographicLocationContainer | None = None
    av: AutomatedVehicleContainer | None = None


def levels_to_bitmask(levels: frozenset[int] | set[int]) -> int:
    return LEVEL_MASKS[level_code(levels)]


def bitmask_to_levels(mask: int) -> frozenset[int]:
    code = LEVEL_CODES.get(mask)
    if code is None:
        problem = "has unknown bits" if mask & ~LEVEL_MASKS[-1] else "breaks group pairing"
        raise ValueError(f"level bitmask 0x{mask:02x} {problem}")
    return LEVEL_SETS[code]


# the canonical text of each valid level set
_LEVEL_TEXTS = {levels: ",".join(map(str, sorted(levels))) or "none" for levels in LEVEL_SETS}


def _parse_levels(text: str) -> frozenset[int]:
    try:
        return frozenset() if text == "none" else frozenset(map(parse_int, text.split(",")))
    except ValueError:
        raise ValueError(f"bad allowed_sae_levels {text!r}") from None


class _Conversion(NamedTuple):
    """How a field that is not a plain integer travels; the readers raise a ``ValueError`` naming what they refuse."""

    to_wire: Callable
    from_wire: Callable
    to_text: Callable
    from_text: Callable


def _indexed(members: tuple, what: str, to_text: Callable, from_text: Callable) -> _Conversion:
    """The conversion of a field whose wire code is its index in ``members``."""
    def member(code: int):
        if code < len(members):
            return members[code]
        raise ValueError(f"unknown {what} code {code}")
    return _Conversion(members.index, member, to_text, from_text)


_read_status = name_reader(IviStatus, "ivi_status", attrgetter("label"))
_CLASS = _indexed(BANDS, "class", attrgetter("value"), ReadinessClass.parse)
_CONVERSIONS = {
    "ivi_status": _indexed(tuple(IviStatus), "ivi_status", attrgetter("label"), IviStatus.parse),
    "allowed_sae_levels": _Conversion(levels_to_bitmask, bitmask_to_levels, _LEVEL_TEXTS.__getitem__, _parse_levels),
    "asd_class": _CLASS,
    "aud_class": _CLASS,
}


class _Layout:
    """One container's wire layout, declared once as ``(name, struct code)`` entries in wire order. An entry adds
    ``low, high`` when the field's bounds are narrower than its unsigned wire width, or ``None`` when
    :func:`_problems` checks it another way. ``fields`` are the entries ``record`` holds; the others frame them."""

    def __init__(self, record: type, *entries) -> None:
        self.struct = struct.Struct(">" + "".join(code for _, code, *_ in entries))
        names = [name for name, *_ in entries]
        widths = [struct.calcsize(">" + code) for _, code, *_ in entries]
        self.offsets = dict(zip(names, accumulate(widths, initial=0)))
        self.fields = tuple(name for name in names if name in record.__dataclass_fields__)
        self.get = attrgetter(*self.fields) if self.fields else None
        self.ranges = tuple(
            (name, *(bounds or (0, (1 << 8 * width) - 1)))
            for (name, _, *bounds), width in zip(entries, widths)
            if name in self.fields and name not in _CONVERSIONS and bounds != [None]
        )
        # each field that is not a plain integer, by its index among the fields, and among the struct's values
        self.converted = [(self.fields.index(name), _CONVERSIONS[name]) for name in names if name in _CONVERSIONS]
        self.unpacked = [
            (i, self.offsets[name], _CONVERSIONS[name]) for i, name in enumerate(names) if name in _CONVERSIONS
        ]
        self.parsers = [(name, _CONVERSIONS[name].from_text if name in _CONVERSIONS else None) for name in self.fields]

    def pack(self, record) -> bytes:
        values = list(self.get(record))
        for i, conversion in self.converted:
            values[i] = conversion.to_wire(values[i])
        return self.struct.pack(*values)

    def unpack(self, data: bytes, offset: int, where: str = "") -> list:
        """The values at ``offset``; a converted field that does not read is a :class:`DecodeError` at its offset."""
        values = list(self.struct.unpack_from(data, offset))
        for i, at, conversion in self.unpacked:
            try:
                values[i] = conversion.from_wire(values[i])
            except ValueError as exc:
                raise DecodeError(f"{where}{exc}", offset=offset + at) from None
        return values

    def text(self, record, prefix: str = "") -> list[str]:
        values = list(self.get(record))
        for i, conversion in self.converted:
            values[i] = conversion.to_text(values[i])
        return [f"{prefix}{name}: {value}" for name, value in zip(self.fields, values)]

    def read(self, reader: _TextReader, prefix: str = "") -> list:
        return [reader.read(prefix + name, parse) for name, parse in self.parsers]


# message_type is checked against MESSAGE_TYPE_IVIM; the magic and the option flags frame the header's fields
_HEADER = _Layout(
    IvimHeader, ("magic", "4s"), ("protocol_version", "B"), ("message_type", "B", None), ("station_id", "I"),
    ("option_flags", "B"),
)
_MANAGEMENT = _Layout(
    ManagementContainer, ("ivi_identification", "H"), ("timestamp_ms", "Q"), ("validity_duration_s", "I"),
    ("ivi_status", "B"),
)
_LOCATION = _Layout(
    GeographicLocationContainer,
    ("latitude_e7", "i", -90 * 10**7, 90 * 10**7), ("longitude_e7", "i", -180 * 10**7, 180 * 10**7),
)
# the zone count opens the automated-vehicle container, whose zones follow it
_COUNT = _Layout(AutomatedVehicleContainer, ("zone_count", "B"))
_ZONE = _Layout(
    ZoneRecord, ("start_m", "I"), ("end_m", "I"), ("allowed_sae_levels", "B"), ("asd_class", "B"), ("aud_class", "B"),
    ("asd_score_cpct", "H", 0, _CPCT_MAX), ("aud_score_cpct", "H", 0, _CPCT_MAX),
)


def _out_of_range(record, ranges, zone: int | None = None):
    for field, low, high in ranges:
        value = getattr(record, field)
        if not low <= value <= high:
            where = "" if zone is None else f"zone {zone}: "
            bound = f"exceeds {high}" if value > high else f"is below {low}"
            yield zone, field, f"{where}{field} {value} {bound}"


def _problems(msg: IvimMessage):
    """Each invariant ``msg`` breaks, container by container, as
    ``(zone index or None, field, problem)``; the one checker behind
    :func:`validate_message`, :func:`decode` and :func:`from_canonical_text`."""
    yield from _out_of_range(msg.header, _HEADER.ranges)
    message_type = msg.header.message_type
    if message_type != MESSAGE_TYPE_IVIM:
        yield None, "message_type", f"unknown message type {message_type}, not the IVIM tag {MESSAGE_TYPE_IVIM}"
    m = msg.management
    yield from _out_of_range(m, _MANAGEMENT.ranges)
    if m.ivi_status in (IviStatus.NEW, IviStatus.UPDATE) and m.validity_duration_s == 0:
        yield None, "validity_duration_s", f"validity_duration_s must be positive for status {m.ivi_status.label}"
    if msg.location is not None:
        yield from _out_of_range(msg.location, _LOCATION.ranges)
    if msg.av is None:
        return
    zones = msg.av.zones
    if len(zones) > _U8:
        yield None, "zone_count", f"{len(zones)} zones exceed the u8 zone count"
    # a zone's ranges are its chainage, checked first, and its scores, checked last
    chainage, scores = _ZONE.ranges[:2], _ZONE.ranges[2:]
    previous_end = None
    for i, zone in enumerate(zones):
        at = f"zone {i}: "
        yield from _out_of_range(zone, chainage, i)
        if zone.start_m >= zone.end_m:
            yield i, "end_m", f"{at}start_m {zone.start_m} >= end_m {zone.end_m}"
        if previous_end is not None and zone.start_m != previous_end:  # zones tile: no gap, no overlap
            yield i, "start_m", f"{at}start_m {zone.start_m} != previous zone end_m {previous_end}"
        previous_end = zone.end_m
        try:
            level_code(zone.allowed_sae_levels)
        except ValueError as exc:
            yield i, "allowed_sae_levels", f"{at}{exc}"
        yield from _out_of_range(zone, scores, i)
        # each class is the band of its group's score; a score out of range has no band
        groups = ("asd", zone.asd_class, zone.asd_score_cpct), ("aud", zone.aud_class, zone.aud_score_cpct)
        for group, readiness_class, cpct in groups:
            if 0 <= cpct <= _CPCT_MAX:
                band = BANDS[bisect_right(BAND_EDGES, cpct / 100)]
                if readiness_class is not band:
                    problem = f"{group}_class {readiness_class.value!r} does not match {group}_score_cpct {cpct}"
                    yield i, f"{group}_class", f"{at}{problem} ({band.value})"


def validate_message(msg: IvimMessage) -> list[str]:
    """Return every structural invariant violation (empty list = valid)."""
    return [problem for _, _, problem in _problems(msg)]


def build_ivim(
    assessment: CorridorAssessment,
    *,
    station_id: int,
    timestamp_ms: int,
    validity_duration_s: int,
    ivi_identification: int = 1,
    location: GeographicLocationContainer | None = None,
) -> IvimMessage:
    """Build a message from a scored corridor.

    Adjacent segments with identical (allowed levels, assisted class,
    automated class) coalesce into one zone; zone scores are the minimum
    over the coalesced segments (floored to cpct), so a zone never
    overstates any segment it covers. Each zone starts where the previous
    one ends. The last zone ends at the corridor's end rounded to the metre,
    inside its last segment when the length is not a whole number of
    segments, and at least one metre after its start: when a tail under a
    metre rounds onto that start, the last zone ends up to 1 m past the
    rounded end (0.28752 km at 2.5 m ends in the zone 288-289).
    """
    segments = assessment.segments
    if not segments:
        raise ValidationError("cannot build a message from an empty assessment")

    asd_scores, aud_scores, length = segments.asd_scores, segments.aud_scores, segments.segment_length_m
    keys = zip(segments.levels, band_indexes(asd_scores), band_indexes(aud_scores))
    zones = []
    first = 0
    for (code, asd_band, aud_band), run in groupby(keys):
        end = first + len(list(run))
        zones.append(
            ZoneRecord(
                # where the previous zone ends: first * length can round to another metre than that end
                start_m=zones[-1].end_m if zones else 0,
                end_m=int(round((end - 1) * length + length)),
                allowed_sae_levels=LEVEL_SETS[code],
                asd_class=BANDS[asd_band],
                aud_class=BANDS[aud_band],
                asd_score_cpct=math.floor(min(asd_scores[first:end]) * 100.0),
                aud_score_cpct=math.floor(min(aud_scores[first:end]) * 100.0),
            )
        )
        first = end
    last = zones[-1]  # a tail under half a metre rounds to the last zone's start: it keeps one metre
    zones[-1] = replace(last, end_m=max(min(last.end_m, round(assessment.length_km * 1000)), last.start_m + 1))

    msg = IvimMessage(
        header=IvimHeader(station_id=station_id),
        management=ManagementContainer(
            ivi_identification=ivi_identification,
            timestamp_ms=timestamp_ms,
            validity_duration_s=validity_duration_s,
            ivi_status=IviStatus.NEW,
        ),
        location=location,
        av=AutomatedVehicleContainer(zones=tuple(zones)),
    )
    for _, _, problem in _problems(msg):
        raise ValidationError(f"built message is invalid: {problem}")
    return msg


def encode(msg: IvimMessage) -> bytes:
    """Deterministic binary form; refuses messages violating invariants."""
    issues = validate_message(msg)
    if issues:
        raise ValidationError("; ".join(issues))
    flags = 0
    if msg.location is not None:
        flags |= _FLAG_LOCATION
    if msg.av is not None:
        flags |= _FLAG_AV
    parts = [_HEADER.struct.pack(MAGIC, *_HEADER.get(msg.header), flags), _MANAGEMENT.pack(msg.management)]
    if msg.location is not None:
        parts.append(_LOCATION.pack(msg.location))
    if msg.av is not None:
        parts.append(_COUNT.struct.pack(len(msg.av.zones)))
        parts.extend(map(_ZONE.pack, msg.av.zones))
    return b"".join(parts)


def decode(data: bytes) -> IvimMessage:
    """Strict inverse of :func:`encode`; errors carry the byte offset."""
    offset = 0
    starts = {}  # the byte offset of each container taken; for the zones, of the last one

    def take(layout: _Layout, what: str, where: str = "") -> list:
        nonlocal offset
        if len(data) < offset + layout.struct.size:
            need = f"need {layout.struct.size} bytes for {what}, have {len(data) - offset}"
            raise DecodeError(f"truncated: {need}", offset=offset)
        values = layout.unpack(data, offset, where)
        starts[layout] = offset
        offset += layout.struct.size
        return values

    magic, *header, flags = take(_HEADER, "header")
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}", offset=0)
    if flags & ~(_FLAG_LOCATION | _FLAG_AV):
        raise DecodeError(f"unknown option flag bits in 0x{flags:02x}", offset=_HEADER.offsets["option_flags"])

    management = ManagementContainer(*take(_MANAGEMENT, "management container"))

    location = None
    if flags & _FLAG_LOCATION:
        location = GeographicLocationContainer(*take(_LOCATION, "location container"))

    av = None
    zones_at = offset + _COUNT.struct.size
    if flags & _FLAG_AV:
        (zone_count,) = take(_COUNT, "zone count")
        zones = [ZoneRecord(*take(_ZONE, f"zone {i}", f"zone {i}: ")) for i in range(zone_count)]
        av = AutomatedVehicleContainer(zones)

    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes", offset=offset)

    msg = IvimMessage(IvimHeader(**dict(zip(_HEADER.fields, header))), management, location, av)
    for zone, field, problem in _problems(msg):
        if zone is not None:
            raise DecodeError(problem, offset=zones_at + zone * _ZONE.struct.size + _ZONE.offsets[field])
        at = next(start + layout.offsets[field] for layout, start in starts.items() if field in layout.offsets)
        raise DecodeError(problem, offset=at)
    return msg


# ---------------------------------------------------------------------------
# Canonical text form
#
# One 'key: value' line per field, fixed key order, zones as zone.N.* keys.
# Blank lines and '#' comments are skipped on input and never emitted; the
# canonical rendering of a message is therefore unique.
# ---------------------------------------------------------------------------


def to_canonical_text(msg: IvimMessage) -> str:
    issues = validate_message(msg)
    if issues:
        raise ValidationError("; ".join(issues))
    lines = _HEADER.text(msg.header) + _MANAGEMENT.text(msg.management)
    if msg.location is not None:
        lines += _LOCATION.text(msg.location)
    if msg.av is not None:
        lines.append(f"zone_count: {len(msg.av.zones)}")
        for i, zone in enumerate(msg.av.zones):
            lines += _ZONE.text(zone, f"zone.{i}.")
    return "\n".join(lines) + "\n"


class _TextReader:
    """Sequential 'key: value' reader with line/column error positions."""

    def __init__(self, text: str, source: str | None) -> None:
        self.source = source
        self.items: list[tuple[int, str, str, str]] = []  # line, key, value, the line as written
        for line_num, raw in enumerate(text.split("\n"), start=1):
            stripped = raw.strip(BLANKS)
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in raw:
                raise ParseError("expected 'key: value'", source=source, line=line_num, column=1)
            key, _, value = raw.partition(":")
            self.items.append((line_num, key.strip(BLANKS), value.strip(BLANKS), raw))
        self.pos = 0

    def peek_key(self) -> str | None:
        if self.pos >= len(self.items):
            return None
        return self.items[self.pos][1]

    def read(self, key: str, parse=None):
        """The value of the next field, which must be ``key``, read by
        ``parse`` or else as an integer."""
        if self.pos >= len(self.items):
            last_line = self.items[-1][0] if self.items else 1
            raise ParseError(f"missing field {key!r}", source=self.source, line=last_line)
        line, actual, value, _ = self.items[self.pos]
        if actual != key:
            raise ParseError(f"expected field {key!r}, found {actual!r}", source=self.source, line=line, column=1)
        self.pos += 1
        try:
            return parse_int(value) if parse is None else parse(value)
        except ValueError as exc:
            problem = f"{key} must be an integer, got {value!r}" if parse is None else str(exc)
            raise self.error_at(key, problem) from None

    def error_at(self, key: str, problem: str) -> ParseError:
        """``problem`` at the value of the field ``key``, which has been read: at its first character."""
        line, value, raw = next((line, value, raw) for line, k, value, raw in self.items if k == key)
        column = raw.find(value, raw.index(":") + 1) + 1  # past the colon and the blanks before the value
        return ParseError(problem, source=self.source, line=line, column=column)

    def done(self) -> None:
        if self.pos != len(self.items):
            line, key, _, _ = self.items[self.pos]
            raise ParseError(f"unexpected field {key!r}", source=self.source, line=line, column=1)


def from_canonical_text(text: str, *, source: str | None = None) -> IvimMessage:
    reader = _TextReader(text, source)
    header = IvimHeader(**dict(zip(_HEADER.fields, _HEADER.read(reader))))
    management = ManagementContainer(*_MANAGEMENT.read(reader))

    location = None
    if reader.peek_key() == _LOCATION.fields[0]:
        location = GeographicLocationContainer(*_LOCATION.read(reader))

    av = None
    if reader.peek_key() == "zone_count":
        zone_count = reader.read("zone_count")
        if zone_count < 0:
            raise reader.error_at("zone_count", f"zone_count {zone_count} is negative")
        av = AutomatedVehicleContainer([ZoneRecord(*_ZONE.read(reader, f"zone.{i}.")) for i in range(zone_count)])
    reader.done()

    msg = IvimMessage(header=header, management=management, location=location, av=av)
    for zone, field, problem in _problems(msg):
        raise reader.error_at(field if zone is None else f"zone.{zone}.{field}", problem)
    return msg


def with_management(msg: IvimMessage, *, timestamp_ms: int, ivi_status: IviStatus) -> IvimMessage:
    """Copy of ``msg`` with a fresh management timestamp and status."""
    return replace(
        msg,
        management=replace(msg.management, timestamp_ms=timestamp_ms, ivi_status=ivi_status),
    )


def describe(msg: IvimMessage) -> str:
    """Human-readable summary (the 'inspect' view)."""
    lines = [
        f"station {msg.header.station_id}, protocol v{msg.header.protocol_version}",
        (
            f"series {msg.management.ivi_identification}, status {msg.management.ivi_status.label}, "
            f"timestamp {msg.management.timestamp_ms} ms, valid {msg.management.validity_duration_s} s"
        ),
    ]
    if msg.location is not None:
        lines.append(
            f"reference point {msg.location.latitude_e7 / 1e7:.7f}, "
            f"{msg.location.longitude_e7 / 1e7:.7f}"
        )
    if msg.av is None:
        lines.append("no automated-vehicle container")
    else:
        lines.append(f"{len(msg.av.zones)} zone(s):")
        lines.append("  start_km  end_km  levels     asd_class      aud_class      asd%    aud%")
        for zone in msg.av.zones:
            levels = ",".join(str(l) for l in sorted(zone.allowed_sae_levels)) or "-"
            lines.append(
                f"  {zone.start_m / 1000.0:8.3f}  {zone.end_m / 1000.0:6.3f}  {levels:<9}  "
                f"{zone.asd_class.value:<13}  {zone.aud_class.value:<13}  "
                f"{zone.asd_score_cpct / 100.0:6.2f}  {zone.aud_score_cpct / 100.0:6.2f}"
            )
    return "\n".join(lines) + "\n"
