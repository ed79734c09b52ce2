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
from .taxonomy import BANDS, LEVEL_SETS, ReadinessClass, band_indexes

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
_ZONE = struct.Struct(">IIBBBHH")

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
    mask = 0
    for level in levels:
        if level not in (1, 2, 3, 4):
            raise ValueError(f"invalid SAE level {level}")
        mask |= 1 << (level - 1)
    return mask


def bitmask_to_levels(mask: int) -> frozenset[int]:
    if mask & ~0x0F:
        raise ValueError(f"level bitmask 0x{mask:02x} has unknown bits")
    levels = frozenset(level for level in (1, 2, 3, 4) if mask & (1 << (level - 1)))
    if (1 in levels) != (2 in levels) or (3 in levels) != (4 in levels):
        raise ValueError(f"level bitmask 0x{mask:02x} breaks group pairing")
    return levels


def validate_message(msg: IvimMessage) -> list[str]:
    """Return every structural invariant violation (empty list = valid)."""
    issues: list[str] = []
    h = msg.header
    if not 0 <= h.protocol_version <= _U8:
        issues.append(f"protocol_version {h.protocol_version} outside u8")
    if h.message_type != MESSAGE_TYPE_IVIM:
        issues.append(f"message_type 0x{h.message_type:02x} is not the IVIM tag 0x06")
    if not 0 <= h.station_id <= _U32:
        issues.append(f"station_id {h.station_id} outside u32")
    m = msg.management
    if not 0 <= m.ivi_identification <= _U16:
        issues.append(f"ivi_identification {m.ivi_identification} outside u16")
    if not 0 <= m.timestamp_ms <= _U64:
        issues.append(f"timestamp_ms {m.timestamp_ms} outside u64")
    if not 0 <= m.validity_duration_s <= _U32:
        issues.append(f"validity_duration_s {m.validity_duration_s} outside u32")
    if m.ivi_status in (IviStatus.NEW, IviStatus.UPDATE) and m.validity_duration_s <= 0:
        issues.append(f"validity_duration_s must be positive for status {m.ivi_status.label}")
    if msg.location is not None:
        loc = msg.location
        if not -_LAT_MAX_E7 <= loc.latitude_e7 <= _LAT_MAX_E7:
            issues.append(f"latitude_e7 {loc.latitude_e7} outside +/-90 degrees")
        if not -_LON_MAX_E7 <= loc.longitude_e7 <= _LON_MAX_E7:
            issues.append(f"longitude_e7 {loc.longitude_e7} outside +/-180 degrees")
    if msg.av is not None:
        zones = msg.av.zones
        if len(zones) > _U8:
            issues.append(f"{len(zones)} zones exceed the u8 zone count")
        previous_end = None
        for i, zone in enumerate(zones):
            if not 0 <= zone.start_m <= _U32 or not 0 <= zone.end_m <= _U32:
                issues.append(f"zone {i}: chainage outside u32")
                continue
            if zone.start_m >= zone.end_m:
                issues.append(f"zone {i}: start_m {zone.start_m} >= end_m {zone.end_m}")
            if previous_end is not None and zone.start_m < previous_end:
                issues.append(f"zone {i}: overlaps or precedes the previous zone")
            previous_end = zone.end_m
            try:
                levels_to_bitmask(zone.allowed_sae_levels)
            except ValueError as exc:
                issues.append(f"zone {i}: {exc}")
            if (1 in zone.allowed_sae_levels) != (2 in zone.allowed_sae_levels) or (
                3 in zone.allowed_sae_levels
            ) != (4 in zone.allowed_sae_levels):
                issues.append(f"zone {i}: unpaired SAE levels {sorted(zone.allowed_sae_levels)}")
            for name, cpct in (("asd", zone.asd_score_cpct), ("aud", zone.aud_score_cpct)):
                if not 0 <= cpct <= _CPCT_MAX:
                    issues.append(f"zone {i}: {name}_score_cpct {cpct} outside 0..10000")
    return issues


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
    overstates any segment it covers.
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
    issues = validate_message(msg)
    if issues:
        raise ValidationError(f"built message is invalid: {issues[0]}")
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
        parts.append(struct.pack(">B", len(msg.av.zones)))
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
    if message_type != MESSAGE_TYPE_IVIM:
        raise DecodeError(f"unknown message type 0x{message_type:02x}", offset=5)
    if flags & ~(_FLAG_LOCATION | _FLAG_AV):
        raise DecodeError(f"unknown option flag bits in 0x{flags:02x}", offset=10)

    ivi_identification, timestamp_ms, validity_duration_s, status_code = take(
        _MANAGEMENT, "management container"
    )
    status_offset = offset - 1
    try:
        ivi_status = IviStatus(status_code)
    except ValueError:
        raise DecodeError(f"unknown ivi_status code {status_code}", offset=status_offset) from None
    if ivi_status in (IviStatus.NEW, IviStatus.UPDATE) and validity_duration_s == 0:
        raise DecodeError(
            f"validity_duration_s must be positive for status {ivi_status.label}",
            offset=status_offset - 4,
        )

    location = None
    if flags & _FLAG_LOCATION:
        field_offset = offset
        latitude_e7, longitude_e7 = take(_LOCATION, "location container")
        if not -_LAT_MAX_E7 <= latitude_e7 <= _LAT_MAX_E7:
            raise DecodeError(f"latitude_e7 {latitude_e7} outside +/-90 degrees", offset=field_offset)
        if not -_LON_MAX_E7 <= longitude_e7 <= _LON_MAX_E7:
            raise DecodeError(
                f"longitude_e7 {longitude_e7} outside +/-180 degrees", offset=field_offset + 4
            )
        location = GeographicLocationContainer(latitude_e7=latitude_e7, longitude_e7=longitude_e7)

    av = None
    if flags & _FLAG_AV:
        (zone_count,) = take(struct.Struct(">B"), "zone count")
        zones = []
        previous_end = None
        for i in range(zone_count):
            zone_offset = offset
            start_m, end_m, mask, asd_code, aud_code, asd_cpct, aud_cpct = take(
                _ZONE, f"zone {i}"
            )
            if start_m >= end_m:
                raise DecodeError(f"zone {i}: start_m {start_m} >= end_m {end_m}", offset=zone_offset)
            if previous_end is not None and start_m < previous_end:
                raise DecodeError(
                    f"zone {i}: start_m {start_m} precedes previous zone end {previous_end}",
                    offset=zone_offset,
                )
            previous_end = end_m
            try:
                levels = bitmask_to_levels(mask)
            except ValueError as exc:
                raise DecodeError(f"zone {i}: {exc}", offset=zone_offset + 8) from None
            if asd_code not in _CLASS_BY_CODE:
                raise DecodeError(f"zone {i}: unknown class code {asd_code}", offset=zone_offset + 9)
            if aud_code not in _CLASS_BY_CODE:
                raise DecodeError(f"zone {i}: unknown class code {aud_code}", offset=zone_offset + 10)
            for name, cpct, at in (("asd", asd_cpct, 11), ("aud", aud_cpct, 13)):
                if cpct > _CPCT_MAX:
                    raise DecodeError(
                        f"zone {i}: {name}_score_cpct {cpct} exceeds 10000", offset=zone_offset + at
                    )
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

    return IvimMessage(
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

    def expect(self, key: str) -> tuple[int, str, int]:
        if self.pos >= len(self.items):
            last_line = self.items[-1][0] if self.items else 1
            raise ParseError(f"missing field {key!r}", source=self.source, line=last_line)
        line, actual, value, column = self.items[self.pos]
        if actual != key:
            raise ParseError(
                f"expected field {key!r}, found {actual!r}", source=self.source, line=line, column=1
            )
        self.pos += 1
        return line, value, column

    def expect_int(self, key: str, low: int, high: int) -> tuple[int, int]:
        line, value, column = self.expect(key)
        try:
            number = int(value)
        except ValueError:
            raise ParseError(
                f"{key} must be an integer, got {value!r}", source=self.source, line=line, column=column
            ) from None
        if not low <= number <= high:
            raise ParseError(
                f"{key} value {number} outside [{low}, {high}]",
                source=self.source,
                line=line,
                column=column,
            )
        return line, number

    def done(self) -> None:
        if self.pos != len(self.items):
            line, key, _, _ = self.items[self.pos]
            raise ParseError(f"unexpected field {key!r}", source=self.source, line=line, column=1)


def from_canonical_text(text: str, *, source: str | None = None) -> IvimMessage:
    reader = _TextReader(text, source)
    _, protocol_version = reader.expect_int("protocol_version", 0, _U8)
    type_line, message_type = reader.expect_int("message_type", 0, _U8)
    if message_type != MESSAGE_TYPE_IVIM:
        raise ParseError(
            f"message_type {message_type} is not the IVIM tag {MESSAGE_TYPE_IVIM}",
            source=source,
            line=type_line,
        )
    _, station_id = reader.expect_int("station_id", 0, _U32)
    _, ivi_identification = reader.expect_int("ivi_identification", 0, _U16)
    _, timestamp_ms = reader.expect_int("timestamp_ms", 0, _U64)
    validity_line, validity_duration_s = reader.expect_int("validity_duration_s", 0, _U32)
    status_line, status_text, status_column = reader.expect("ivi_status")
    try:
        ivi_status = IviStatus.parse(status_text)
    except ValueError as exc:
        raise ParseError(str(exc), source=source, line=status_line, column=status_column) from None
    if ivi_status in (IviStatus.NEW, IviStatus.UPDATE) and validity_duration_s == 0:
        raise ParseError(
            f"validity_duration_s must be positive for status {ivi_status.label}",
            source=source,
            line=validity_line,
        )

    location = None
    if reader.peek_key() == "latitude_e7":
        _, latitude_e7 = reader.expect_int("latitude_e7", -_LAT_MAX_E7, _LAT_MAX_E7)
        _, longitude_e7 = reader.expect_int("longitude_e7", -_LON_MAX_E7, _LON_MAX_E7)
        location = GeographicLocationContainer(latitude_e7=latitude_e7, longitude_e7=longitude_e7)

    av = None
    if reader.peek_key() == "zone_count":
        _, zone_count = reader.expect_int("zone_count", 0, _U8)
        zones = []
        previous_end = None
        for i in range(zone_count):
            start_line, start_m = reader.expect_int(f"zone.{i}.start_m", 0, _U32)
            end_line, end_m = reader.expect_int(f"zone.{i}.end_m", 0, _U32)
            if start_m >= end_m:
                raise ParseError(
                    f"zone {i}: start_m {start_m} >= end_m {end_m}", source=source, line=end_line
                )
            if previous_end is not None and start_m < previous_end:
                raise ParseError(
                    f"zone {i}: start_m {start_m} precedes previous zone end {previous_end}",
                    source=source,
                    line=start_line,
                )
            previous_end = end_m
            levels_line, levels_text, levels_column = reader.expect(f"zone.{i}.allowed_sae_levels")
            try:
                if levels_text == "none":
                    levels: frozenset[int] = frozenset()
                else:
                    levels = frozenset(int(part) for part in levels_text.split(","))
                levels_to_bitmask(levels)
            except ValueError:
                raise ParseError(
                    f"bad allowed_sae_levels {levels_text!r}",
                    source=source,
                    line=levels_line,
                    column=levels_column,
                ) from None
            if (1 in levels) != (2 in levels) or (3 in levels) != (4 in levels):
                raise ParseError(
                    f"zone {i}: unpaired SAE levels {sorted(levels)}",
                    source=source,
                    line=levels_line,
                    column=levels_column,
                )
            classes = {}
            for name in ("asd_class", "aud_class"):
                class_line, class_text, class_column = reader.expect(f"zone.{i}.{name}")
                try:
                    classes[name] = ReadinessClass.parse(class_text)
                except ValueError as exc:
                    raise ParseError(
                        str(exc), source=source, line=class_line, column=class_column
                    ) from None
            _, asd_cpct = reader.expect_int(f"zone.{i}.asd_score_cpct", 0, _CPCT_MAX)
            _, aud_cpct = reader.expect_int(f"zone.{i}.aud_score_cpct", 0, _CPCT_MAX)
            zones.append(
                ZoneRecord(
                    start_m=start_m,
                    end_m=end_m,
                    allowed_sae_levels=levels,
                    asd_class=classes["asd_class"],
                    aud_class=classes["aud_class"],
                    asd_score_cpct=asd_cpct,
                    aud_score_cpct=aud_cpct,
                )
            )
        av = AutomatedVehicleContainer(zones=tuple(zones))
    reader.done()

    return IvimMessage(
        header=IvimHeader(
            station_id=station_id, protocol_version=protocol_version, message_type=message_type
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
