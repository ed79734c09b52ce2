"""Arbitrary input to each reader ends in a result or in one of the toolkit's
positioned errors, never in another exception."""

from __future__ import annotations

import json
import random

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import random_message
import pytest

from hri.corridor import dump_corridor, load_corridor, load_overlay, load_rubric
from hri.errors import DecodeError, ParseError, ValidationError
from hri.fixtures import baseline_corridor
from hri.ivim import decode, encode, from_canonical_text, to_canonical_text
from hri.scoring import load_score_profile_json

FUZZ = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])

# pieces that reach the readers' edge cases: separators, signs, out-of-range
# and non-finite numbers, field names, and characters csv treats specially
TOKENS = [
    ",", ":", "\n", "#", '"', "\r", "\x00", " ", "-", "-1", "0", "3", "0.4", "1e400", "NaN", "Infinity",
    "9" * 25, "none", "1,3", "zone.0.", "segment_index", "hd-maps", "{", "}", "[", "]",
]
PIECES = st.sampled_from(TOKENS) | st.text(max_size=3)


def mutated(base: str):
    """``base`` with one to three places cut, overwritten or spliced with ``PIECES``."""

    @st.composite
    def strategy(draw):
        text = base
        for _ in range(draw(st.integers(1, 3))):
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(PIECES) + text[at + draw(st.integers(0, 8)) :]
        return text

    return strategy()


def random_text_message(seed: int) -> str:
    return to_canonical_text(random_message(random.Random(seed)))


@st.composite
def mutated_wire(draw):
    data = encode(random_message(random.Random(draw(st.integers(0, 1000)))))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(max_size=4)) + data[at + draw(st.integers(0, 4)) :]
    return data


def corridor_text(meta: dict, rows: str) -> str:
    return "# " + json.dumps(meta) + "\nsegment_index,attribute,value\n" + rows


NUMBERS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from([0.0, 0.4, 1.0, 100.0, -100.0])
CORRIDOR = dump_corridor(baseline_corridor())[:2000]  # the metadata line, the header and some rows
OVERLAY = json.dumps({"name": "o", "from_km": 0.0, "to_km": 0.2, "ops": [{"op": "cap", "attribute": "hd-maps", "value": 1}]})
OVERLAY_DOCS = st.recursive(
    st.none() | st.booleans() | NUMBERS | st.integers() | st.sampled_from(["set", "cap", "hd-maps", "o"]),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "from_km", "to_km", "ops", "op", "attribute", "value"]), children, max_size=5),
    max_leaves=12,
)


@FUZZ
@given(st.binary(max_size=80) | st.binary(max_size=60).map(b"IVIM".__add__) | mutated_wire())
def test_decode_raises_only_decode_error(data):
    try:
        decode(data)
    except DecodeError:
        pass


@FUZZ
@given(st.text(max_size=200) | st.integers(0, 1000).map(random_text_message).flatmap(mutated))
def test_canonical_text_raises_only_parse_error(text):
    try:
        from_canonical_text(text)
    except ParseError:
        pass


@FUZZ
@given(
    st.text(max_size=200)
    | mutated(CORRIDOR)
    | st.builds(
        corridor_text,
        st.fixed_dictionaries({"corridor_id": st.text(max_size=3), "length_km": NUMBERS, "segment_length_m": NUMBERS}),
        st.text(max_size=60),
    )
)
@example(corridor_text({"corridor_id": "c", "length_km": float("nan"), "segment_length_m": 100.0}, ""))
@example(corridor_text({"corridor_id": "c", "length_km": 0.001, "segment_length_m": 0.4}, ""))
@example(corridor_text({"corridor_id": "c", "length_km": -1.0, "segment_length_m": 1.0}, ""))
@example(corridor_text({"corridor_id": "c", "length_km": 1.8e305, "segment_length_m": 1.0}, ""))
def test_load_corridor_raises_only_toolkit_errors(tmp_path, text):
    path = tmp_path / "c.csv"
    path.write_text(text, encoding="utf-8")
    try:
        load_corridor(path)
    except (ParseError, ValidationError):
        pass


@FUZZ
@given(st.text(max_size=200) | mutated(OVERLAY) | OVERLAY_DOCS.map(json.dumps))
@example(OVERLAY.replace('"value": 1', '"value": 1e400'))
def test_load_overlay_raises_only_toolkit_errors(tmp_path, text):
    path = tmp_path / "o.json"
    path.write_text(text, encoding="utf-8")
    try:
        load_overlay(path)
    except (ParseError, ValidationError):
        pass


NESTED = "[" * 100_000  # deeper than the interpreter's recursion limit


def load_corridor_with_sidecar(path):
    corridor_path = path.with_suffix(".csv")
    corridor_path.write_text("segment_index,attribute,value\n", encoding="utf-8")
    return load_corridor(corridor_path, path)


@pytest.mark.parametrize(
    "load, text, error",
    [
        (load_overlay, "\n  " + NESTED, "line 2, column 3: invalid JSON"),
        (load_score_profile_json, "\n  " + NESTED, "line 2, column 3: invalid JSON"),
        (load_rubric, "\n  " + NESTED, "line 2, column 3: invalid JSON"),
        (load_corridor_with_sidecar, "\n  " + NESTED, "line 2, column 3: invalid JSON"),
        (load_corridor, '# {"corridor_id": ' + NESTED + "\n", "line 1: invalid metadata JSON"),
    ],
    ids=["overlay", "profile", "rubric", "corridor sidecar", "corridor metadata line"],
)
def test_deeply_nested_json_is_a_positioned_parse_error(tmp_path, load, text, error):
    path = tmp_path / "doc.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as raised:
        load(path)
    assert str(raised.value) == f"{path}:{error}: nesting too deep"
