from __future__ import annotations

import random
import struct
from dataclasses import replace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import random_message
from hri.errors import DecodeError, ParseError, ValidationError
from hri.ivim import (
    AutomatedVehicleContainer,
    GeographicLocationContainer,
    IviStatus,
    IvimHeader,
    IvimMessage,
    ManagementContainer,
    ZoneRecord,
    bitmask_to_levels,
    build_ivim,
    decode,
    describe,
    encode,
    from_canonical_text,
    levels_to_bitmask,
    to_canonical_text,
    validate_message,
    with_management,
)
from hri._util import ADEQUACY, expected_segment_count
from hri.corridor import CorridorProfile, OverlayOp, ScenarioOverlay, SegmentObservation, apply_overlay
from hri.scoring import ReadinessClass, classify, score_corridor
from hri.taxonomy import AutomationLevelGroup, attribute_ids, readiness_band

ASD = AutomationLevelGroup.ASD
AUD = AutomationLevelGroup.AUD

# hand-assembled wire image of the minimal message below:
# magic | ver 02 | type 06 | station 1001 | flags 00 | series 7 |
# timestamp 1700000000000 | validity 600 | status new
GOLDEN_MINIMAL_HEX = (
    "4956494d" "02" "06" "000003e9" "00" "0007" "0000018bcfe56800" "00000258" "00"
)


def minimal_message() -> IvimMessage:
    return IvimMessage(
        header=IvimHeader(station_id=1001),
        management=ManagementContainer(
            ivi_identification=7,
            timestamp_ms=1_700_000_000_000,
            validity_duration_s=600,
            ivi_status=IviStatus.NEW,
        ),
    )


def one_zone_message(levels=frozenset({1, 2, 3, 4})) -> IvimMessage:
    zone = ZoneRecord(
        start_m=0,
        end_m=24000,
        allowed_sae_levels=levels,
        asd_class=ReadinessClass.HIGHLY_LIKELY,
        aud_class=ReadinessClass.HIGHLY_LIKELY,
        asd_score_cpct=7200,
        aud_score_cpct=7000,
    )
    return replace(minimal_message(), av=AutomatedVehicleContainer(zones=(zone,)))


class TestBuild:
    def test_uniform_baseline_coalesces_to_one_zone(self, baseline_assessment):
        msg = build_ivim(
            baseline_assessment, station_id=1, timestamp_ms=0, validity_duration_s=60
        )
        assert msg.av is not None
        assert len(msg.av.zones) == 1
        zone = msg.av.zones[0]
        assert (zone.start_m, zone.end_m) == (0, 24000)
        assert zone.allowed_sae_levels == frozenset({1, 2, 3, 4})

    def test_roadworks_splits_into_zones_with_empty_levels(
        self, corridor, weights, roadworks
    ):
        assessment = score_corridor(apply_overlay(corridor, roadworks), weights)
        msg = build_ivim(assessment, station_id=1, timestamp_ms=0, validity_duration_s=60)
        zones = msg.av.zones
        assert len(zones) >= 3
        affected = [z for z in zones if 11000 <= z.start_m < 17000 or z.start_m == 11000]
        assert affected, "no zone starts inside the degraded range"
        for zone in zones:
            if zone.start_m >= 11000 and zone.end_m <= 17000:
                assert zone.allowed_sae_levels == frozenset()

    def test_single_segment_corridor(self, baseline_assessment):
        single = replace(
            baseline_assessment,
            length_km=0.1,
            segments=baseline_assessment.segments[:1],
        )
        msg = build_ivim(single, station_id=1, timestamp_ms=0, validity_duration_s=60)
        assert len(msg.av.zones) == 1
        assert (msg.av.zones[0].start_m, msg.av.zones[0].end_m) == (0, 100)

    def test_last_zone_ends_at_the_corridor_end(self, baseline_assessment):
        # 0.25 km at 100 m is three segments, the last one cut short by the corridor end
        short = replace(baseline_assessment, length_km=0.25, segments=baseline_assessment.segments[:3])
        msg = build_ivim(short, station_id=1, timestamp_ms=0, validity_duration_s=60)
        assert [(zone.start_m, zone.end_m) for zone in msg.av.zones] == [(0, 250)]

    def test_zone_scores_are_conservative(self, corridor, weights, maintenance):
        assessment = score_corridor(apply_overlay(corridor, maintenance), weights)
        msg = build_ivim(assessment, station_id=1, timestamp_ms=0, validity_duration_s=60)
        for zone in msg.av.zones:
            covered = [
                seg
                for seg in assessment.segments
                if zone.start_m <= seg.start_m and seg.end_m <= zone.end_m
            ]
            assert covered
            for seg in covered:
                assert zone.asd_score_cpct / 100.0 <= seg.scores[ASD].value
                assert zone.aud_score_cpct / 100.0 <= seg.scores[AUD].value

    def test_zones_tile_the_corridor(self, corridor, weights, roadworks, maintenance):
        for profile in (
            corridor,
            apply_overlay(corridor, roadworks),
            apply_overlay(corridor, maintenance),
        ):
            assessment = score_corridor(profile, weights)
            msg = build_ivim(assessment, station_id=1, timestamp_ms=0, validity_duration_s=60)
            zones = msg.av.zones
            assert zones[0].start_m == 0
            assert zones[-1].end_m == 24000
            for left, right in zip(zones, zones[1:]):
                assert left.end_m == right.start_m

    @settings(max_examples=100, deadline=None)
    @example(data=None)  # 200.4 m at 100 m: a third segment of 0.4 m in another class than the second
    @given(st.data())
    def test_every_corridor_builds_a_message_that_tiles_it(self, weights, data):
        # whole pipeline, corridor -> overlays -> score -> message, on corridors of at most 255 segments
        # whose length is mostly not a whole number of segments, with tails down to a few centimetres
        attrs = attribute_ids()
        patterns = [dict.fromkeys(attrs, value) for value in ADEQUACY] + [{a: i % 3 for i, a in enumerate(attrs)}]
        if data is None:
            length_m, length_km, picks, overlays = 100.0, 0.2004, [2, 2, 0], []
        else:
            length_m = data.draw(st.sampled_from([1.0, 2.5, 7.7, 33.3, 100.0, 250.0]))
            whole = data.draw(st.integers(0, 254))
            tail = data.draw(st.sampled_from([0.0, 0.02, 0.3, 0.499, 0.5, 0.51, 0.3 * length_m, length_m - 0.02]))
            length_km = (whole * length_m + tail) / 1000.0
            count = expected_segment_count(length_km, length_m)
            assume(1 <= count <= 255)
            picks = data.draw(st.lists(st.integers(0, len(patterns) - 1), min_size=count, max_size=count))
            km = st.floats(0.0, length_km)
            op = st.builds(OverlayOp, st.sampled_from(["set", "cap"]), st.sampled_from(attrs), st.integers(0, 2))
            overlays = []
            for number in range(data.draw(st.integers(0, 3))):
                from_km, to_km = data.draw(km), data.draw(km)
                assume(from_km < to_km)
                ops = tuple(data.draw(st.lists(op, max_size=3)))
                overlays.append(ScenarioOverlay(f"o{number}", from_km, to_km, ops))
        segments = [SegmentObservation(i, i * length_m, length_m, patterns[p]) for i, p in enumerate(picks)]
        profile = apply_overlay(CorridorProfile("c", length_km, length_m, segments), *overlays)
        msg = build_ivim(score_corridor(profile, weights), station_id=1, timestamp_ms=0, validity_duration_s=60)
        zones = msg.av.zones
        assert zones[0].start_m == 0
        assert all(zone.start_m < zone.end_m for zone in zones)
        assert all(left.end_m == right.start_m for left, right in zip(zones, zones[1:]))
        # the corridor's end to the metre, or one metre past the last zone's start when the tail rounds onto it
        assert abs(zones[-1].end_m - length_km * 1000) < 1 or zones[-1].end_m == zones[-1].start_m + 1
        # the last zone ends up to 1 m past the rounded end when a tail under a metre rounds onto its start
        assert zones[-1].end_m <= round(length_km * 1000) + 1
        assert validate_message(msg) == []
        assert decode(encode(msg)) == msg
        assert from_canonical_text(to_canonical_text(msg)) == msg

    def test_empty_assessment_rejected(self, baseline_assessment):
        with pytest.raises(ValidationError, match="empty"):
            build_ivim(
                replace(baseline_assessment, length_km=0.0, segments=()),
                station_id=1,
                timestamp_ms=0,
                validity_duration_s=60,
            )


class TestBinaryCodec:
    def test_golden_minimal_bytes(self):
        payload = encode(minimal_message())
        assert payload == bytes.fromhex(GOLDEN_MINIMAL_HEX)
        assert payload[:4] == b"IVIM"
        assert payload[10] == 0x00  # option flags: no optional containers

    def test_round_trip_minimal(self):
        msg = minimal_message()
        assert decode(encode(msg)) == msg

    def test_round_trip_with_containers(self):
        msg = replace(
            one_zone_message(),
            location=GeographicLocationContainer(latitude_e7=456070000, longitude_e7=87000000),
        )
        assert decode(encode(msg)) == msg

    def test_round_trip_zone_less_av_container(self):
        msg = replace(minimal_message(), av=AutomatedVehicleContainer(zones=()))
        assert decode(encode(msg)) == msg

    def test_full_level_set_encodes_bitmask_0x0f(self):
        payload = encode(one_zone_message())
        # zone record starts after header(11) + management(15) + count(1)
        assert payload[27 + 8] == 0x0F

    def test_round_trip_randomized(self):
        rng = random.Random(20240811)
        for _ in range(500):
            msg = random_message(rng)
            assert decode(encode(msg)) == msg

    def test_truncated_input(self):
        with pytest.raises(DecodeError, match="truncated") as excinfo:
            decode(b"\x01\x02\x03")
        assert excinfo.value.offset == 0

    def test_bad_magic(self):
        payload = bytearray(encode(minimal_message()))
        payload[0] ^= 0xFF
        with pytest.raises(DecodeError, match="bad magic") as excinfo:
            decode(bytes(payload))
        assert excinfo.value.offset == 0

    def test_bad_message_type(self):
        payload = bytearray(encode(minimal_message()))
        payload[5] = 0x07
        with pytest.raises(DecodeError, match="unknown message type"):
            decode(bytes(payload))

    def test_unknown_flag_bits(self):
        payload = bytearray(encode(minimal_message()))
        payload[10] = 0x04
        with pytest.raises(DecodeError, match="unknown option flag") as raised:
            decode(bytes(payload))
        assert raised.value.offset == 10

    def test_unknown_status_code(self):
        payload = bytearray(encode(minimal_message()))
        payload[25] = 3
        with pytest.raises(DecodeError, match="unknown ivi_status"):
            decode(bytes(payload))

    def test_zero_validity_for_new_rejected(self):
        payload = bytearray(encode(minimal_message()))
        payload[21:25] = (0).to_bytes(4, "big")
        with pytest.raises(DecodeError, match="validity_duration_s must be positive"):
            decode(bytes(payload))

    def test_unpaired_bitmask_rejected(self):
        payload = bytearray(encode(one_zone_message()))
        payload[27 + 8] = 0x02  # SAE2 without SAE1
        with pytest.raises(DecodeError, match="pairing") as excinfo:
            decode(bytes(payload))
        assert excinfo.value.offset == 35

    def test_zone_order_violation_rejected(self):
        zones = (
            ZoneRecord(
                start_m=1000,
                end_m=2000,
                allowed_sae_levels=frozenset({1, 2}),
                asd_class=ReadinessClass.HIGHLY_LIKELY,
                aud_class=ReadinessClass.MAY_BE,
                asd_score_cpct=7000,
                aud_score_cpct=5000,
            ),
        ) * 2
        msg = replace(minimal_message(), av=AutomatedVehicleContainer(zones=zones))
        with pytest.raises(ValidationError, match="zone 1: start_m 1000 != previous zone end_m 2000"):
            encode(msg)
        # bypass encode validation by patching a valid two-zone image
        first = ZoneRecord(
            start_m=0,
            end_m=1000,
            allowed_sae_levels=frozenset(),
            asd_class=ReadinessClass.UNLIKELY,
            aud_class=ReadinessClass.UNLIKELY,
            asd_score_cpct=0,
            aud_score_cpct=0,
        )
        valid = replace(
            minimal_message(), av=AutomatedVehicleContainer(zones=(first, zones[0]))
        )
        payload = bytearray(encode(valid))
        payload[27 + 15 : 27 + 15 + 4] = (500).to_bytes(4, "big")  # second zone now overlaps
        with pytest.raises(DecodeError, match="zone 1: start_m 500 != previous zone end_m 1000"):
            decode(bytes(payload))

    def test_overrange_cpct_rejected(self):
        payload = bytearray(encode(one_zone_message()))
        payload[27 + 11 : 27 + 13] = (10001).to_bytes(2, "big")
        with pytest.raises(DecodeError, match="exceeds 10000"):
            decode(bytes(payload))

    def test_trailing_bytes_rejected(self):
        payload = encode(minimal_message()) + b"\x00"
        with pytest.raises(DecodeError, match="trailing") as excinfo:
            decode(payload)
        assert excinfo.value.offset == 26

    def test_zone_count_mismatch_rejected(self):
        payload = bytearray(encode(one_zone_message()))
        payload[26] = 2  # claims two zones, carries one
        with pytest.raises(DecodeError, match="truncated"):
            decode(bytes(payload))

    def test_structural_byte_flips_never_misparse(self):
        rng = random.Random(99)
        for _ in range(25):
            msg = random_message(rng)
            payload = encode(msg)
            structural = [0, 1, 2, 3, 5, 10]
            flags = payload[10]
            if flags & 0x02:
                count_offset = 26 + (8 if flags & 0x01 else 0)
                structural.append(count_offset)
            for offset in structural:
                for bit in range(8):
                    mutated = bytearray(payload)
                    mutated[offset] ^= 1 << bit
                    try:
                        reparsed = decode(bytes(mutated))
                    except DecodeError:
                        continue
                    assert reparsed == msg, (
                        f"structural flip at byte {offset} bit {bit} silently misparsed"
                    )

    def test_encode_refuses_invalid_message(self):
        msg = replace(
            minimal_message(),
            location=GeographicLocationContainer(latitude_e7=91 * 10**7, longitude_e7=0),
        )
        with pytest.raises(ValidationError, match="latitude"):
            encode(msg)
        assert validate_message(msg) != []


class TestCanonicalText:
    def test_contains_status_line(self):
        assert "ivi_status: new" in to_canonical_text(minimal_message())

    def test_text_round_trip_is_canonical(self):
        rng = random.Random(7)
        for _ in range(100):
            msg = random_message(rng)
            text = to_canonical_text(msg)
            rebuilt = from_canonical_text(text)
            assert rebuilt == msg
            assert to_canonical_text(decode(encode(rebuilt))) == text

    def test_empty_levels_render_as_none(self):
        text = to_canonical_text(one_zone_message(levels=frozenset()))
        assert "allowed_sae_levels: none" in text
        assert from_canonical_text(text).av.zones[0].allowed_sae_levels == frozenset()

    def test_latitude_out_of_range_names_line(self):
        text = to_canonical_text(
            replace(
                minimal_message(),
                location=GeographicLocationContainer(latitude_e7=0, longitude_e7=0),
            )
        )
        bad = text.replace("latitude_e7: 0", "latitude_e7: 910000000")
        with pytest.raises(ParseError, match="latitude_e7") as excinfo:
            from_canonical_text(bad)
        assert excinfo.value.line == 8

    def test_unpaired_levels_rejected(self):
        text = to_canonical_text(one_zone_message())
        bad = text.replace("allowed_sae_levels: 1,2,3,4", "allowed_sae_levels: 1,3")
        with pytest.raises(ParseError, match="unpaired"):
            from_canonical_text(bad)

    def test_reordered_field_rejected(self):
        lines = to_canonical_text(minimal_message()).strip().split("\n")
        lines[0], lines[1] = lines[1], lines[0]
        with pytest.raises(ParseError, match="expected field"):
            from_canonical_text("\n".join(lines))

    def test_missing_field_rejected(self):
        lines = to_canonical_text(minimal_message()).strip().split("\n")
        with pytest.raises(ParseError, match="missing field"):
            from_canonical_text("\n".join(lines[:-1]))

    def test_unexpected_trailing_field_rejected(self):
        text = to_canonical_text(minimal_message()) + "surprise: 1\n"
        with pytest.raises(ParseError, match="unexpected field"):
            from_canonical_text(text)

    def test_comments_and_blanks_tolerated(self):
        text = "# a comment\n\n" + to_canonical_text(minimal_message())
        assert from_canonical_text(text) == minimal_message()

    def test_padded_integers_and_leading_zeros_read_as_written(self):
        text = to_canonical_text(one_zone_message())
        padded = text.replace("station_id: 1001\n", "station_id:  01001 \n").replace("levels: 1,2,3,4", "levels: 01, 2 ,3,4")
        assert padded.count("01001") == padded.count("01, 2 ,3,4") == 1
        assert from_canonical_text(padded) == one_zone_message()

    @pytest.mark.parametrize(
        "field, spelling",
        [
            ("station_id", "+0_1"),
            ("station_id", "+1001"),
            ("station_id", "1_001"),
            ("zone_count", "+1"),
            ("zone.0.start_m", "٠"),  # an Arabic-Indic zero
            ("zone.0.allowed_sae_levels", "1,+2,3,4"),
            ("zone.0.allowed_sae_levels", "0_1,2,3,4"),
            ("zone.0.allowed_sae_levels", "1,2,3,٤"),
        ],
    )
    def test_integers_int_reads_but_no_writer_gives_are_refused_at_their_value(self, field, spelling):
        lines = to_canonical_text(one_zone_message()).split("\n")
        line = next(number for number, text in enumerate(lines, start=1) if text.startswith(f"{field}:"))
        lines[line - 1] = f"{field}: {spelling}"
        with pytest.raises(ParseError) as raised:
            from_canonical_text("\n".join(lines), source="m.txt")
        problem = f"{field} must be an integer, got {spelling!r}"
        if field.endswith("levels"):
            problem = f"bad allowed_sae_levels {spelling!r}"
        # at the value's first character, after the colon and the one space the writer puts before it
        assert str(raised.value) == str(ParseError(problem, source="m.txt", line=line, column=len(field) + 3))


    def test_negative_zone_count_is_refused_at_its_value(self):
        lines = to_canonical_text(one_zone_message()).split("\n")
        line = lines.index("zone_count: 1") + 1
        lines[line - 1] = "zone_count: -1"
        with pytest.raises(ParseError) as raised:
            from_canonical_text("\n".join(lines), source="m.txt")
        assert str(raised.value) == str(ParseError("zone_count -1 is negative", source="m.txt", line=line, column=13))


class TestHelpers:
    def test_bitmask_round_trip(self):
        for levels in (frozenset(), frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4})):
            assert bitmask_to_levels(levels_to_bitmask(levels)) == levels

    def test_bitmask_rejects_unknown_bits(self):
        with pytest.raises(ValueError, match="unknown bits"):
            bitmask_to_levels(0x10)

    def test_with_management_only_touches_management(self):
        msg = one_zone_message()
        updated = with_management(msg, timestamp_ms=42, ivi_status=IviStatus.UPDATE)
        assert updated.management.timestamp_ms == 42
        assert updated.management.ivi_status is IviStatus.UPDATE
        assert updated.header == msg.header
        assert updated.av == msg.av

    def test_describe_lists_zones(self):
        text = describe(one_zone_message())
        assert "1 zone(s)" in text
        assert "1,2,3,4" in text

    def test_describe_gives_the_reference_point_and_a_missing_container(self):
        located = replace(minimal_message(), location=GeographicLocationContainer(483_000_000, -1_234_567))
        assert describe(located).split("\n")[2:] == ["reference point 48.3000000, -0.1234567", "no automated-vehicle container", ""]


CLASSES = (ReadinessClass.UNLIKELY, ReadinessClass.MAY_BE, ReadinessClass.HIGHLY_LIKELY)


def alternating_corridor(count: int) -> CorridorProfile:
    """``count`` 100 m segments alternating between all-2 and all-0 values: one zone per segment."""
    values = [dict.fromkeys(attribute_ids(), value) for value in (2, 0)]
    segments = [SegmentObservation(i, i * 100.0, 100.0, values[i % 2]) for i in range(count)]
    return CorridorProfile("alternating", count / 10, 100.0, segments)


def with_zones(zones) -> IvimMessage:
    return replace(minimal_message(), av=AutomatedVehicleContainer(zones=tuple(zones)))


class TestZoneRules:
    """Each zone starts where the previous one ends, and a message holds at most 255 zones."""

    @pytest.fixture
    def walk_message(self, corridor, weights, roadworks, maintenance):
        """The README walk's message: the fixture with both overlays, five zones, the last (17000, 24000)."""
        assessment = score_corridor(apply_overlay(corridor, roadworks, maintenance), weights)
        msg = build_ivim(assessment, station_id=1001, timestamp_ms=1_700_000_000_000, validity_duration_s=600)
        zones = msg.av.zones
        assert len(zones) == 5 and (zones[-1].start_m, zones[-1].end_m) == (17000, 24000)
        return msg

    def test_a_gap_is_refused_by_every_reader(self, walk_message):
        zones = walk_message.av.zones
        gap = replace(walk_message, av=AutomatedVehicleContainer(zones=(*zones[:4], replace(zones[4], start_m=17005))))
        problem = "zone 4: start_m 17005 != previous zone end_m 17000"
        assert validate_message(gap) == [problem]
        with pytest.raises(ValidationError, match=problem):
            encode(gap)
        wire = bytearray(encode(walk_message))
        start_at = 27 + 4 * 15  # zone 4's start_m: 26 bytes of header and management, the count, four zones
        struct.pack_into(">I", wire, start_at, 17005)
        with pytest.raises(DecodeError, match=problem) as raised:
            decode(bytes(wire))
        assert raised.value.offset == start_at
        lines = to_canonical_text(walk_message).split("\n")
        line = lines.index("zone.4.start_m: 17000") + 1
        lines[line - 1] = "zone.4.start_m: 17005"
        with pytest.raises(ParseError, match=problem) as raised:
            from_canonical_text("\n".join(lines))
        assert raised.value.line == line

    def test_the_first_zone_may_start_past_0(self):
        msg = with_zones([replace(one_zone_message().av.zones[0], start_m=100)])
        assert validate_message(msg) == []
        assert decode(encode(msg)) == msg

    def test_build_refuses_256_zones(self, weights):
        assessment = score_corridor(alternating_corridor(256), weights)
        with pytest.raises(ValidationError, match="^built message is invalid: 256 zones exceed the u8 zone count$"):
            build_ivim(assessment, station_id=1, timestamp_ms=0, validity_duration_s=60)
        fits = replace(assessment, length_km=25.5, segments=assessment.segments[:255])
        assert len(build_ivim(fits, station_id=1, timestamp_ms=0, validity_duration_s=60).av.zones) == 255

    def test_256_zones_are_refused_by_validate_encode_and_text(self):
        zone = one_zone_message().av.zones[0]
        msg = with_zones(replace(zone, start_m=i * 10, end_m=i * 10 + 10) for i in range(256))
        problem = "256 zones exceed the u8 zone count"
        assert validate_message(msg) == [problem]
        for write in (encode, to_canonical_text):
            with pytest.raises(ValidationError, match=f"^{problem}$"):
                write(msg)

    def test_256_zone_text_fails_at_its_zone_count_line(self):
        zone = one_zone_message().av.zones[0]
        zones = [replace(zone, start_m=i * 10, end_m=i * 10 + 10) for i in range(256)]
        text = to_canonical_text(with_zones(zones[:255]))
        extra = to_canonical_text(with_zones(zones[255:])).split("zone.0.", 1)[1]
        text = text.replace("zone_count: 255", "zone_count: 256") + "zone.255." + extra.replace("zone.0.", "zone.255.")
        line = text.split("\n").index("zone_count: 256") + 1
        with pytest.raises(ParseError, match="256 zones exceed the u8 zone count") as raised:
            from_canonical_text(text)
        assert raised.value.line == line


def uint(bits):
    return st.integers(0, 2**bits - 1)


def mostly(valid, anything):
    """``valid`` nine times in ten, else ``anything``."""
    return st.integers(0, 9).flatmap(lambda k: anything if k == 0 else valid)


@st.composite
def wire_fields(draw):
    """Header, management, location and zone values inside their wire widths,
    each mostly valid, so that a good share of the messages is accepted."""
    coordinate = mostly(st.integers(-90 * 10**7, 90 * 10**7), st.integers(-(2**31), 2**31 - 1))
    location = draw(st.none() | st.tuples(coordinate, coordinate))
    zones = None
    if draw(st.booleans()):
        zones, end = [], 0
        for _ in range(draw(st.integers(0, 4))):
            # the first zone may start anywhere, each later one where the previous one ends
            valid_start = st.just(end) if zones else st.integers(end, end + 50)
            start = min(draw(mostly(valid_start, uint(32))), 2**32 - 1)
            end = min(draw(mostly(st.integers(start + 1, start + 5000), uint(32))), 2**32 - 1)
            mask = draw(mostly(st.sampled_from([0x0, 0x3, 0xC, 0xF]), uint(8)))
            scores = draw(st.tuples(*[mostly(st.integers(0, 10000), uint(16))] * 2))
            # each class mostly the band of its score; a score out of range has no band
            classes = [
                draw(mostly(st.just(CLASSES.index(classify(cpct / 100))), st.integers(0, 2)))
                if cpct <= 10000 else draw(st.integers(0, 2))
                for cpct in scores
            ]
            zones.append((start, end, mask, *classes, *scores))
    return dict(
        protocol_version=draw(uint(8)),
        message_type=draw(mostly(st.just(6), uint(8))),
        station_id=draw(uint(32)),
        ivi_identification=draw(uint(16)),
        timestamp_ms=draw(uint(64)),
        validity_duration_s=draw(mostly(st.integers(1, 2**32 - 1), st.just(0))),
        status=draw(st.integers(0, 2)),
        location=location,
        zones=zones,
    )


def pack_wire(f) -> bytes:
    flags = (f["location"] is not None) | (f["zones"] is not None) << 1
    parts = [
        struct.pack(">4sBBIB", b"IVIM", f["protocol_version"], f["message_type"], f["station_id"], flags),
        struct.pack(">HQIB", f["ivi_identification"], f["timestamp_ms"], f["validity_duration_s"], f["status"]),
    ]
    if f["location"] is not None:
        parts.append(struct.pack(">ii", *f["location"]))
    if f["zones"] is not None:
        parts.append(struct.pack(">B", len(f["zones"])))
        parts.extend(struct.pack(">IIBBBHH", *zone) for zone in f["zones"])
    return b"".join(parts)


def mask_levels(mask):
    return frozenset(level for level in range(1, 9) if mask >> (level - 1) & 1)


def render_text(f) -> str:
    header = ("protocol_version", "message_type", "station_id", "ivi_identification", "timestamp_ms", "validity_duration_s")
    lines = [f"{key}: {f[key]}" for key in header]
    lines.append(f"ivi_status: {('new', 'update', 'cancellation')[f['status']]}")
    if f["location"] is not None:
        lines += [f"latitude_e7: {f['location'][0]}", f"longitude_e7: {f['location'][1]}"]
    if f["zones"] is not None:
        lines.append(f"zone_count: {len(f['zones'])}")
        for i, (start, end, mask, asd, aud, asd_cpct, aud_cpct) in enumerate(f["zones"]):
            levels = ",".join(map(str, sorted(mask_levels(mask)))) or "none"
            values = (start, end, levels, CLASSES[asd].value, CLASSES[aud].value, asd_cpct, aud_cpct)
            keys = ("start_m", "end_m", "allowed_sae_levels", "asd_class", "aud_class", "asd_score_cpct", "aud_score_cpct")
            lines += [f"zone.{i}.{key}: {value}" for key, value in zip(keys, values)]
    return "\n".join(lines) + "\n"


def fields_message(f) -> IvimMessage:
    av = None
    if f["zones"] is not None:
        av = AutomatedVehicleContainer(
            zones=[
                ZoneRecord(start, end, mask_levels(mask), CLASSES[asd], CLASSES[aud], asd_cpct, aud_cpct)
                for start, end, mask, asd, aud, asd_cpct, aud_cpct in f["zones"]
            ]
        )
    return IvimMessage(
        header=IvimHeader(f["station_id"], f["protocol_version"], f["message_type"]),
        management=ManagementContainer(
            f["ivi_identification"], f["timestamp_ms"], f["validity_duration_s"], IviStatus(f["status"])
        ),
        location=None if f["location"] is None else GeographicLocationContainer(*f["location"]),
        av=av,
    )


class TestOneChecker:
    @settings(max_examples=200, deadline=None)
    @given(wire_fields())
    def test_validate_decode_and_text_agree(self, fields):
        msg = fields_message(fields)
        issues = validate_message(msg)
        try:
            decoded = decode(pack_wire(fields))
        except DecodeError as exc:
            decoded, decode_error = None, str(exc)
        try:
            parsed = from_canonical_text(render_text(fields))
        except ParseError as exc:
            parsed, text_error = None, str(exc)
        assert (decoded is not None) == (parsed is not None) == (not issues)
        if not issues:
            assert decoded == msg and parsed == msg
            return
        # the first problem is the same, except that decode reads a bad level bitmask before any check
        assert text_error.endswith(f": {issues[0]}")
        if all(zone[2] in (0x0, 0x3, 0xC, 0xF) for zone in fields["zones"] or ()):
            assert decode_error.endswith(f": {issues[0]}")

    @pytest.mark.parametrize(
        "key, offset, fmt, wire_value, text_value",
        [
            ("message_type", 5, ">B", 7, 7),
            ("validity_duration_s", 21, ">I", 0, 0),
            ("ivi_status", 25, ">B", 3, "bogus"),
            ("latitude_e7", 26, ">i", 910000000, 910000000),
            ("longitude_e7", 30, ">i", -1800000001, -1800000001),
            ("zone.0.end_m", 35 + 4, ">I", 0, 0),
            ("zone.0.allowed_sae_levels", 35 + 8, ">B", 0x5, "1,3"),
            ("zone.0.asd_class", 35 + 9, ">B", 3, "x"),
            ("zone.0.aud_class", 35 + 10, ">B", 3, "x"),
            # a class that is not the band of its score (7200 and 7000: highly-likely)
            ("zone.0.asd_class", 35 + 9, ">B", 1, "may-be"),
            ("zone.0.aud_class", 35 + 10, ">B", 0, "unlikely"),
            ("zone.0.asd_score_cpct", 35 + 11, ">H", 10001, 10001),
            ("zone.0.aud_score_cpct", 35 + 13, ">H", 10001, 10001),
        ],
    )
    def test_decode_and_text_point_at_the_same_field(self, key, offset, fmt, wire_value, text_value):
        msg = replace(one_zone_message(), location=GeographicLocationContainer(latitude_e7=0, longitude_e7=0))
        wire = bytearray(encode(msg))
        struct.pack_into(fmt, wire, offset, wire_value)
        with pytest.raises(DecodeError) as raised:
            decode(bytes(wire))
        assert raised.value.offset == offset
        lines = to_canonical_text(msg).split("\n")
        line = next(number for number, text in enumerate(lines, start=1) if text.startswith(f"{key}: "))
        lines[line - 1] = f"{key}: {text_value}"
        with pytest.raises(ParseError) as raised:
            from_canonical_text("\n".join(lines))
        assert raised.value.line == line

    @pytest.mark.parametrize("group, class_at, score_at", [("asd", 35 + 9, 35 + 11), ("aud", 35 + 10, 35 + 13)])
    def test_a_score_outside_its_class_band_is_refused_at_the_class(self, group, class_at, score_at):
        msg = replace(one_zone_message(), location=GeographicLocationContainer(latitude_e7=0, longitude_e7=0))
        zone = msg.av.zones[0]
        problem = f"zone 0: {group}_class 'highly-likely' does not match {group}_score_cpct 500 (unlikely)"
        edited = replace(msg, av=AutomatedVehicleContainer([replace(zone, **{f"{group}_score_cpct": 500})]))
        assert validate_message(edited) == [problem]
        wire = bytearray(encode(msg))
        struct.pack_into(">H", wire, score_at, 500)
        with pytest.raises(DecodeError) as raised:
            decode(bytes(wire))
        assert (raised.value.offset, str(raised.value)) == (class_at, f"offset {class_at}: {problem}")
        lines = to_canonical_text(msg).split("\n")
        score_line = lines.index(f"zone.0.{group}_score_cpct: {getattr(zone, f'{group}_score_cpct')}")
        lines[score_line] = f"zone.0.{group}_score_cpct: 500"
        with pytest.raises(ParseError) as raised:
            from_canonical_text("\n".join(lines))
        assert raised.value.line == lines.index(f"zone.0.{group}_class: highly-likely") + 1
        assert str(raised.value).endswith(f": {problem}")

    @pytest.mark.parametrize(
        "cpct, band",
        [(0, "unlikely"), (3299, "unlikely"), (3300, "may-be"), (6599, "may-be"), (6600, "highly-likely"),
         (10000, "highly-likely")],
    )
    def test_the_class_rule_agrees_with_readiness_band_at_the_edges(self, cpct, band):
        zone = replace(one_zone_message().av.zones[0], asd_score_cpct=cpct)
        for readiness_class in CLASSES:
            issues = validate_message(with_zones([replace(zone, asd_class=readiness_class)]))
            assert (issues == []) == (readiness_class.value == band == classify(cpct / 100).value), issues

    def test_the_class_rule_is_readiness_band_at_every_cpct(self):
        zone = one_zone_message().av.zones[0]
        for cpct in range(10001):
            band = readiness_band(cpct / 100)
            banded = replace(zone, asd_class=band, aud_class=band, asd_score_cpct=cpct, aud_score_cpct=cpct)
            assert validate_message(with_zones([banded])) == [], cpct
            for group in ("asd", "aud"):
                for readiness_class in CLASSES:
                    if readiness_class is not band:
                        issues = validate_message(with_zones([replace(banded, **{f"{group}_class": readiness_class})]))
                        problem = f"{group}_class {readiness_class.value!r} does not match {group}_score_cpct {cpct}"
                        assert issues == [f"zone 0: {problem} ({band.value})"]

    def test_a_score_out_of_range_is_a_range_fault_alone(self):
        zone = replace(one_zone_message().av.zones[0], asd_class=ReadinessClass.UNLIKELY, asd_score_cpct=10001)
        assert validate_message(with_zones([zone])) == ["zone 0: asd_score_cpct 10001 exceeds 10000"]
