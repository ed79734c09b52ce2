"""Golden outputs: the fixture chain's bytes must not drift.

The chain is the README walk done in process: score the bundled corridor
(with no overlay, each overlay and both), write the CSV and JSON profiles,
load the JSON profile back, build the IVIM message from it, write its
canonical text and encode it. Each artifact's SHA-256 is compared with a
recorded digest, so any refactor of scoring, the profile formats or the
codec has to keep every byte.
"""

from __future__ import annotations

import hashlib

import pytest

from hri.corridor import apply_overlay
from hri.ivim import GeographicLocationContainer, build_ivim, encode, to_canonical_text
from hri.scoring import (
    dump_score_profile_csv,
    dump_score_profile_json,
    load_score_profile_json,
    score_corridor,
)

GOLDEN = {
    (): {
        "csv": "ce866f834806cc6c297eaacbeb66d316f3afcadaf43952830fa6211029a9b201",
        "json": "4dfad1d4eb79e45572bc8db9e78544909292c5b3af1c3246ee3120b0c9ee2179",
        "text": "3a197059210c4b43c68f96b349bf5c6b1ab6ce882a67dd4e07894ec7f8e0358a",
        "wire": "e28b4a09f7b8cec51995a6366041602c36080260fed0628a71fa06439884979f",
    },
    ("roadworks",): {
        "csv": "a813fa60b93721bfc987666308aad984961750047f0442f67b08a0b80dca5f3a",
        "json": "e6f94231b95895afae09867ff8ddd2b699c6e6b03be13db177f5d48e4425dc0a",
        "text": "9e69671818e585ca03684c2b6fe7890cc9db32156b4295b71f295da2a27c3e2f",
        "wire": "c2cd25f01643aed1782271b8f7479a23cc48f13e2300be007f1e93a187d854bd",
    },
    ("maintenance",): {
        "csv": "04cc9caed8fb3f1078496615ec51a5079d20945dd26f0b9b37da584887e7f7b6",
        "json": "8ba75566f07a7cb5543547e7b309d2d33dea77cc06a2000bfd8449ab9ac81040",
        "text": "de8982fe48f2bdec4e43bf38123bf9a7e1185b6a260f5621e74b0307fe05e875",
        "wire": "2a29a7f0ff94cb44a0c3354577830cef20ba350b257edd775599c090e1745312",
    },
    ("roadworks", "maintenance"): {
        "csv": "c9b73879ca74800393be7fbe41cbfeda11f88f4a22d566398e9534560d20f803",
        "json": "66fea7a8411692ff080d7952389ac3c8914337ae97312c5f01c1d83e8c84094a",
        "text": "37a92391503662dbcaec28cc54b10aaabb181deaec796fefaf83549637bd2fbb",
        "wire": "91ffb470581c09aa86eb0608aade16c9acb2d25d6deabcaad917e1a1b7a5cece",
    },
}


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def chain_digests(profile, weights, tmp_path) -> dict[str, str]:
    assessment = score_corridor(profile, weights)
    profile_csv = dump_score_profile_csv(assessment)
    profile_json = dump_score_profile_json(assessment)
    path = tmp_path / "profile.json"
    path.write_text(profile_json, encoding="utf-8")
    message = build_ivim(
        load_score_profile_json(path),
        station_id=1001,
        timestamp_ms=1_700_000_000_000,
        validity_duration_s=600,
        location=GeographicLocationContainer(latitude_e7=456_789_012, longitude_e7=87_654_321),
    )
    return {
        "csv": _sha256(profile_csv),
        "json": _sha256(profile_json),
        "text": _sha256(to_canonical_text(message)),
        "wire": _sha256(encode(message)),
    }


@pytest.mark.parametrize("overlays", sorted(GOLDEN), ids=lambda names: "+".join(names) or "none")
def test_fixture_chain_bytes(corridor, weights, roadworks, maintenance, overlays, tmp_path):
    by_name = {"roadworks": roadworks, "maintenance": maintenance}
    profile = corridor
    for name in overlays:
        profile = apply_overlay(profile, by_name[name])
    assert chain_digests(profile, weights, tmp_path) == GOLDEN[overlays]
