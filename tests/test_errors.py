from __future__ import annotations

import pytest

from hri.errors import ParseError


@pytest.mark.parametrize(
    "source, line, column, text",
    [
        (None, None, None, "bad thing"),
        (None, None, 2, "bad thing"),
        (None, 3, None, "line 3: bad thing"),
        (None, 3, 2, "line 3, column 2: bad thing"),
        ("in.csv", None, None, "in.csv: bad thing"),
        ("in.csv", None, 2, "in.csv: bad thing"),
        ("in.csv", 3, None, "in.csv:line 3: bad thing"),
        ("in.csv", 3, 2, "in.csv:line 3, column 2: bad thing"),
    ],
)
def test_parse_error_joins_only_the_parts_present(source, line, column, text):
    error = ParseError("bad thing", source=source, line=line, column=column)
    assert str(error) == text
    assert (error.source, error.line, error.column) == (source, line, column)
