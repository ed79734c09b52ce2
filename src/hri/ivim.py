"""Infrastructure-to-vehicle message (IVIM) model, builder and codec.

A message is a header plus a management container, optionally followed by a
geographic location container (reference point) and an automated-vehicle
container (ordered readiness zones with allowed SAE levels). Zones whose
level set is empty are carried too: "assessed, not suitable" is different
from "not covered".

Wire format (original, deterministic; NOT an ETSI ASN.1/UPER encoding —
field names follow the standardized container structure, but the byte
layout is this toolkit's own). Big-endian throughout, no padding:

    magic 'IVIM' (4 bytes)
    protocol_version   u8
    message_type       u8   (always 0x06)
    station_id         u32
    option_flags       u8   (bit0 = location present, bit1 = AV present)
    ivi_identification u16
    timestamp_ms       u64
    validity_duration_s u32
    ivi_status         u8   (0 = new, 1 = update, 2 = cancellation)
    [latitude_e7 i32, longitude_e7 i32]
    [zone_count u8, then per zone:
        start_m u32, end_m u32, levels_bitmask u8 (bit0 = SAE1 .. bit3 = SAE4),
        asd_class u8, aud_class u8, asd_score_cpct u16, aud_score_cpct u16]

Scores travel as fixed-point hundredths of a percent (cpct), floored so a
zone never claims more readiness than any of its coalesced segments.
Decoding is strict: bad magic, unknown flag bits, out-of-range values,
unpaired level bitmasks, zone disorder, truncation and trailing bytes are
all rejected with the offending byte offset.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from enum import Enum
from itertools import groupby
from typing import TYPE_CHECKING

from .errors import DecodeError, ParseError, ValidationError
from .taxonomy import BANDS, LEVEL_CODES, LEVEL_MASKS, LEVEL_SETS, ReadinessClass, band_indexes, level_code

if TYPE_CHECKING:
    from .scoring import CorridorAssessment

MAGIC = b"IVIM"
MESSAGE_TYPE_IVIM = 0x06
DEFAULT_PROTOCOL_VERSION = 2

_FLAG_LOCATION = 0x01
_FLAG_AV = 0x02

_U8 = 0xFF
_U16 = 0xFFFF
_U32 = 0xFFFF_FFFF
_U64 = 0xFFFF_FFFF_FFFF_FFFF

_LAT_MAX_E7 = 90 * 10**7
_LON_MAX_E7 = 180 * 10**7
_CPCT_MAX = 100 * 100  # 100.00 %

_HEADER = struct.Struct(">4sBBIB")
_MANAGEMENT = struct.Struct(">HQIB")
_LOCATION = struct.Struct(">ii")
_COUNT = struct.Struct(">B")
_ZONE = struct.Struct(">IIBBBHH")

# The checked integer fields of each container and their bounds: the wire
# width, a coordinate range, or 100.00 % for a zone score.
_HEADER_RANGES = (("protocol_version", 0, _U8), ("station_id", 0, _U32))
_MANAGEMENT_RANGES = (("ivi_identification", 0, _U16), ("timestamp_ms", 0, _U64), ("validity_duration_s", 0, _U32))
_LOCATION_RANGES = (("latitude_e7", -_LAT_MAX_E7, _LAT_MAX_E7), ("longitude_e7", -_LON_MAX_E7, _LON_MAX_E7))
_CHAINAGE_RANGES = (("start_m", 0, _U32), ("end_m", 0, _U32))
_SCORE_RANGES = (("asd_score_cpct", 0, _CPCT_MAX), ("aud_score_cpct", 0, _CPCT_MAX))

# The byte offset of each checked field: in the message (the zone count, the
# one field missing, sits just before the zones), and in a zone record.
_FIELD_OFFSETS = {
    "protocol_version": 4,
    "message_type": 5,
    "station_id": 6,
    "ivi_identification": 11,
    "timestamp_ms": 13,
    "validity_duration_s": 21,
    "latitude_e7": 26,
    "longitude_e7": 30,
}
_ZONE_FIELD_OFFSETS = {"start_m": 0, "end_m": 4, "allowed_sae_levels": 8, "asd_score_cpct": 11, "aud_score_cpct": 13}

_CLASS_CODES = {
    ReadinessClass.UNLIKELY: 0,
    ReadinessClass.MAY_BE: 1,
    ReadinessClass.HIGHLY_LIKELY: 2,
}
_CLASS_BY_CODE = {code: cls for cls, code in _CLASS_CODES.items()}


class IviStatus(Enum):
    NEW = 0
    UPDATE = 1
    CANCELLATION = 2

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "IviStatus":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(f"unknown ivi_status {text!r}") from None


@dataclass(frozen=True)
class IvimHeader:
    station_id: int
    protocol_version: int = DEFAULT_PROTOCOL_VERSION
    message_type: int = MESSAGE_TYPE_IVIM


@dataclass(frozen=True)
class ManagementContainer:
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
    zones: tuple[ZoneRecord, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "zones", tuple(self.zones))


@dataclass(frozen=True)
class IvimMessage:
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
    yield from _out_of_range(msg.header, _HEADER_RANGES)
    message_type = msg.header.message_type
    if message_type != MESSAGE_TYPE_IVIM:
        yield None, "message_type", f"unknown message type {message_type}, not the IVIM tag {MESSAGE_TYPE_IVIM}"
    m = msg.management
    yield from _out_of_range(m, _MANAGEMENT_RANGES)
    if m.ivi_status in (IviStatus.NEW, IviStatus.UPDATE) and m.validity_duration_s == 0:
        yield None, "validity_duration_s", f"validity_duration_s must be positive for status {m.ivi_status.label}"
    if msg.location is not None:
        yield from _out_of_range(msg.location, _LOCATION_RANGES)
    if msg.av is None:
        return
    zones = msg.av.zones
    if len(zones) > _U8:
        yield None, "zone_count", f"{len(zones)} zones exceed the u8 zone count"
    previous_end = None
    for i, zone in enumerate(zones):
        at = f"zone {i}: "
        yield from _out_of_range(zone, _CHAINAGE_RANGES, i)
        if zone.start_m >= zone.end_m:
            yield i, "end_m", f"{at}start_m {zone.start_m} >= end_m {zone.end_m}"
        if previous_end is not None and zone.start_m < previous_end:
            yield i, "start_m", f"{at}start_m {zone.start_m} overlaps or precedes previous zone end {previous_end}"
        previous_end = zone.end_m
        try:
            level_code(zone.allowed_sae_levels)
        except ValueError as exc:
            yield i, "allowed_sae_levels", f"{at}{exc}"
        yield from _out_of_range(zone, _SCORE_RANGES, i)


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
    ivi_status: IviStatus = IviStatus.NEW,
    protocol_version: int = DEFAULT_PROTOCOL_VERSION,
    location: GeographicLocationContainer | None = None,
) -> IvimMessage:
    """Build a message from a scored corridor.

    Adjacent segments with identical (allowed levels, assisted class,
    automated class) coalesce into one zone; zone scores are the minimum
    over the coalesced segments (floored to cpct), so a zone never
    overstates any segment it covers. The last zone ends at the corridor's
    end, inside its last segment when the length is not a whole number of
    segments.
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
                start_m=int(round(first * length)),
                end_m=int(round((end - 1) * length + length)),
                allowed_sae_levels=LEVEL_SETS[code],
                asd_class=BANDS[asd_band],
                aud_class=BANDS[aud_band],
                asd_score_cpct=math.floor(min(asd_scores[first:end]) * 100.0),
                aud_score_cpct=math.floor(min(aud_scores[first:end]) * 100.0),
            )
        )
        first = end
    zones[-1] = replace(zones[-1], end_m=min(zones[-1].end_m, round(assessment.length_km * 1000)))

    msg = IvimMessage(
        header=IvimHeader(station_id=station_id, protocol_version=protocol_version),
        management=ManagementContainer(
            ivi_identification=ivi_identification,
            timestamp_ms=timestamp_ms,
            validity_duration_s=validity_duration_s,
            ivi_status=ivi_status,
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
    parts = [
        _HEADER.pack(
            MAGIC,
            msg.header.protocol_version,
            msg.header.message_type,
            msg.header.station_id,
            flags,
        ),
        _MANAGEMENT.pack(
            msg.management.ivi_identification,
            msg.management.timestamp_ms,
            msg.management.validity_duration_s,
            msg.management.ivi_status.value,
        ),
    ]
    if msg.location is not None:
        parts.append(_LOCATION.pack(msg.location.latitude_e7, msg.location.longitude_e7))
    if msg.av is not None:
        parts.append(_COUNT.pack(len(msg.av.zones)))
        for zone in msg.av.zones:
            parts.append(
                _ZONE.pack(
                    zone.start_m,
                    zone.end_m,
                    levels_to_bitmask(zone.allowed_sae_levels),
                    _CLASS_CODES[zone.asd_class],
                    _CLASS_CODES[zone.aud_class],
                    zone.asd_score_cpct,
                    zone.aud_score_cpct,
                )
            )
    return b"".join(parts)


def decode(data: bytes) -> IvimMessage:
    """Strict inverse of :func:`encode`; errors carry the byte offset."""
    offset = 0

    def take(structure: struct.Struct, what: str):
        nonlocal offset
        if len(data) < offset + structure.size:
            raise DecodeError(
                f"truncated: need {structure.size} bytes for {what}, have {len(data) - offset}",
                offset=offset,
            )
        values = structure.unpack_from(data, offset)
        offset += structure.size
        return values

    magic, protocol_version, message_type, station_id, flags = take(_HEADER, "header")
    if magic != MAGIC:
        raise DecodeError(f"bad magic {magic!r}", offset=0)
    if flags & ~(_FLAG_LOCATION | _FLAG_AV):
        raise DecodeError(f"unknown option flag bits in 0x{flags:02x}", offset=10)

    ivi_identification, timestamp_ms, validity_duration_s, status_code = take(
        _MANAGEMENT, "management container"
    )
    try:
        ivi_status = IviStatus(status_code)
    except ValueError:
        raise DecodeError(f"unknown ivi_status code {status_code}", offset=offset - 1) from None

    location = None
    if flags & _FLAG_LOCATION:
        latitude_e7, longitude_e7 = take(_LOCATION, "location container")
        location = GeographicLocationContainer(latitude_e7=latitude_e7, longitude_e7=longitude_e7)

    av = None
    zones_at = offset + _COUNT.size
    if flags & _FLAG_AV:
        (zone_count,) = take(_COUNT, "zone count")
        zones = []
        for i in range(zone_count):
            start_m, end_m, mask, asd_code, aud_code, asd_cpct, aud_cpct = take(_ZONE, f"zone {i}")
            zone_offset = offset - _ZONE.size
            try:
                levels = bitmask_to_levels(mask)
            except ValueError as exc:
                raise DecodeError(f"zone {i}: {exc}", offset=zone_offset + 8) from None
            for code, at in ((asd_code, 9), (aud_code, 10)):
                if code not in _CLASS_BY_CODE:
                    raise DecodeError(f"zone {i}: unknown class code {code}", offset=zone_offset + at)
            zones.append(
                ZoneRecord(
                    start_m=start_m,
                    end_m=end_m,
                    allowed_sae_levels=levels,
                    asd_class=_CLASS_BY_CODE[asd_code],
                    aud_class=_CLASS_BY_CODE[aud_code],
                    asd_score_cpct=asd_cpct,
                    aud_score_cpct=aud_cpct,
                )
            )
        av = AutomatedVehicleContainer(zones=tuple(zones))

    if offset != len(data):
        raise DecodeError(f"{len(data) - offset} trailing bytes", offset=offset)

    msg = IvimMessage(
        header=IvimHeader(
            station_id=station_id,
            protocol_version=protocol_version,
            message_type=message_type,
        ),
        management=ManagementContainer(
            ivi_identification=ivi_identification,
            timestamp_ms=timestamp_ms,
            validity_duration_s=validity_duration_s,
            ivi_status=ivi_status,
        ),
        location=location,
        av=av,
    )
    for zone, field, problem in _problems(msg):
        if zone is None:
            raise DecodeError(problem, offset=_FIELD_OFFSETS.get(field, zones_at - _COUNT.size))
        raise DecodeError(problem, offset=zones_at + zone * _ZONE.size + _ZONE_FIELD_OFFSETS[field])
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
    lines = [
        f"protocol_version: {msg.header.protocol_version}",
        f"message_type: {msg.header.message_type}",
        f"station_id: {msg.header.station_id}",
        f"ivi_identification: {msg.management.ivi_identification}",
        f"timestamp_ms: {msg.management.timestamp_ms}",
        f"validity_duration_s: {msg.management.validity_duration_s}",
        f"ivi_status: {msg.management.ivi_status.label}",
    ]
    if msg.location is not None:
        lines.append(f"latitude_e7: {msg.location.latitude_e7}")
        lines.append(f"longitude_e7: {msg.location.longitude_e7}")
    if msg.av is not None:
        lines.append(f"zone_count: {len(msg.av.zones)}")
        for i, zone in enumerate(msg.av.zones):
            levels = ",".join(str(l) for l in sorted(zone.allowed_sae_levels)) or "none"
            lines.append(f"zone.{i}.start_m: {zone.start_m}")
            lines.append(f"zone.{i}.end_m: {zone.end_m}")
            lines.append(f"zone.{i}.allowed_sae_levels: {levels}")
            lines.append(f"zone.{i}.asd_class: {zone.asd_class.value}")
            lines.append(f"zone.{i}.aud_class: {zone.aud_class.value}")
            lines.append(f"zone.{i}.asd_score_cpct: {zone.asd_score_cpct}")
            lines.append(f"zone.{i}.aud_score_cpct: {zone.aud_score_cpct}")
    return "\n".join(lines) + "\n"


class _TextReader:
    """Sequential 'key: value' reader with line/column error positions."""

    def __init__(self, text: str, source: str | None) -> None:
        self.source = source
        self.items: list[tuple[int, str, str, int]] = []  # line, key, value, value column
        for line_num, raw in enumerate(text.split("\n"), start=1):
            stripped = raw.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if ":" not in raw:
                raise ParseError("expected 'key: value'", source=source, line=line_num, column=1)
            key, _, value = raw.partition(":")
            self.items.append((line_num, key.strip(), value.strip(), len(key) + 2))
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
        line, actual, value, column = self.items[self.pos]
        if actual != key:
            raise ParseError(
                f"expected field {key!r}, found {actual!r}", source=self.source, line=line, column=1
            )
        self.pos += 1
        try:
            return int(value) if parse is None else parse(value)
        except ValueError as exc:
            problem = f"{key} must be an integer, got {value!r}" if parse is None else str(exc)
            raise ParseError(problem, source=self.source, line=line, column=column) from None

    def error_at(self, key: str, problem: str) -> ParseError:
        """``problem`` at the value of the field ``key``, which has been read."""
        line, column = next((line, column) for line, k, _, column in self.items if k == key)
        return ParseError(problem, source=self.source, line=line, column=column)

    def done(self) -> None:
        if self.pos != len(self.items):
            line, key, _, _ = self.items[self.pos]
            raise ParseError(f"unexpected field {key!r}", source=self.source, line=line, column=1)


def _parse_levels(text: str) -> frozenset[int]:
    try:
        return frozenset() if text == "none" else frozenset(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"bad allowed_sae_levels {text!r}") from None


def from_canonical_text(text: str, *, source: str | None = None) -> IvimMessage:
    reader = _TextReader(text, source)
    header = IvimHeader(
        protocol_version=reader.read("protocol_version"),
        message_type=reader.read("message_type"),
        station_id=reader.read("station_id"),
    )
    management = ManagementContainer(
        ivi_identification=reader.read("ivi_identification"),
        timestamp_ms=reader.read("timestamp_ms"),
        validity_duration_s=reader.read("validity_duration_s"),
        ivi_status=reader.read("ivi_status", IviStatus.parse),
    )

    location = None
    if reader.peek_key() == "latitude_e7":
        location = GeographicLocationContainer(
            latitude_e7=reader.read("latitude_e7"), longitude_e7=reader.read("longitude_e7")
        )

    av = None
    if reader.peek_key() == "zone_count":
        zone_count = reader.read("zone_count")
        if zone_count < 0:
            raise reader.error_at("zone_count", f"zone_count {zone_count} is negative")
        zones = [
            ZoneRecord(
                start_m=reader.read(f"zone.{i}.start_m"),
                end_m=reader.read(f"zone.{i}.end_m"),
                allowed_sae_levels=reader.read(f"zone.{i}.allowed_sae_levels", _parse_levels),
                asd_class=reader.read(f"zone.{i}.asd_class", ReadinessClass.parse),
                aud_class=reader.read(f"zone.{i}.aud_class", ReadinessClass.parse),
                asd_score_cpct=reader.read(f"zone.{i}.asd_score_cpct"),
                aud_score_cpct=reader.read(f"zone.{i}.aud_score_cpct"),
            )
            for i in range(zone_count)
        ]
        av = AutomatedVehicleContainer(zones=tuple(zones))
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
