"""Test helpers: randomized valid message construction."""

from __future__ import annotations

import random

from hri.ivim import (
    AutomatedVehicleContainer,
    GeographicLocationContainer,
    IviStatus,
    IvimHeader,
    IvimMessage,
    ManagementContainer,
    ZoneRecord,
)
from hri.scoring import ReadinessClass

_LEVEL_SETS = (
    frozenset(),
    frozenset({1, 2}),
    frozenset({3, 4}),
    frozenset({1, 2, 3, 4}),
)


def random_message(rng: random.Random) -> IvimMessage:
    """One structurally valid message with random content and containers."""
    status = rng.choice(list(IviStatus))
    validity = rng.randrange(1, 2**32) if status is not IviStatus.CANCELLATION else rng.randrange(0, 2**32)
    location = None
    if rng.random() < 0.5:
        location = GeographicLocationContainer(
            latitude_e7=rng.randint(-90 * 10**7, 90 * 10**7),
            longitude_e7=rng.randint(-180 * 10**7, 180 * 10**7),
        )
    av = None
    if rng.random() < 0.7:
        zones = []
        end = rng.randrange(0, 1000)  # the first zone need not start at 0; each later one starts where the last ends
        for _ in range(rng.randrange(0, 6)):
            start = end
            end = start + rng.randrange(1, 2000)
            zones.append(
                ZoneRecord(
                    start_m=start,
                    end_m=end,
                    allowed_sae_levels=rng.choice(_LEVEL_SETS),
                    asd_class=rng.choice(list(ReadinessClass)),
                    aud_class=rng.choice(list(ReadinessClass)),
                    asd_score_cpct=rng.randint(0, 10000),
                    aud_score_cpct=rng.randint(0, 10000),
                )
            )
        av = AutomatedVehicleContainer(zones=tuple(zones))
    return IvimMessage(
        header=IvimHeader(
            station_id=rng.randrange(0, 2**32),
            protocol_version=rng.randrange(0, 256),
        ),
        management=ManagementContainer(
            ivi_identification=rng.randrange(0, 2**16),
            timestamp_ms=rng.randrange(0, 2**64),
            validity_duration_s=validity,
            ivi_status=status,
        ),
        location=location,
        av=av,
    )
