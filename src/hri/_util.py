"""Small internal helpers, and the score vocabulary that scoring, the IVIM codec and the taxonomy share."""

from __future__ import annotations

import codecs
import math
import os
import tempfile
import time
from bisect import bisect_right
from collections.abc import Callable, Iterable, Mapping, Sequence
from enum import Enum
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType

from .errors import ParseError, ValidationError

# CLI help defaults and choices, here so --help imports no domain module; corridor and scoring re-export the defaults.
DEFAULT_SEGMENT_LENGTH_M = 100.0
DEFAULT_THRESHOLD = 66.0
ADEQUACY = (0, 1, 2)  # the adequacy scale of every attribute value and survey rating, lowest first
BLANKS = " \t\n\r\v\f"  # the ASCII blanks: all that is stripped from around a CSV cell or canonical-text field

GEOM_EPS = 1e-6  # float slack for chainage arithmetic on metre grids


def header_error(length_km: float, segment_length_m: float) -> str | None:
    """What breaks the header rule, or None: length_km >= 0 and finite in metres, segment_length_m >= 1 m and finite."""
    if not 0.0 <= length_km * 1000.0 < math.inf:  # NaN included
        return f"length_km must be at least 0 and finite in metres, got {length_km!r}"
    if not 1.0 <= segment_length_m < math.inf:  # shorter segments can round to zones that end where they start
        return f"segment_length_m must be at least 1 m, got {segment_length_m!r}"
    return None


def read_header(doc, source: str, line: int | None = None) -> tuple[str, float, float]:
    """The corridor_id, length_km and segment_length_m of the JSON object ``doc`` from ``source`` (at ``line``): a
    missing or wrong-typed field is a ParseError, a header that breaks :func:`header_error`'s rule a ValidationError."""
    fields = ("corridor_id", "length_km", "segment_length_m")
    if not isinstance(doc, dict) or any(key not in doc for key in fields):
        raise ParseError(f"corridor metadata must provide {', '.join(fields)}", source=source, line=line)
    try:
        corridor_id = json_str(doc["corridor_id"], "corridor_id")
        length_km = json_float(doc["length_km"], "length_km")
        segment_length_m = json_float(doc["segment_length_m"], "segment_length_m")
    except ValueError as exc:
        raise ParseError(f"corridor metadata: {exc}", source=source, line=line) from None
    problem = header_error(length_km, segment_length_m)
    if problem:
        where = source if line is None else f"{source}:line {line}"
        raise ValidationError(f"{where}: {problem}")
    return corridor_id, length_km, segment_length_m


def expected_segment_count(length_km: float, segment_length_m: float) -> int:
    """The segment count of the header, or a ValidationError with the text of :func:`header_error`."""
    problem = header_error(length_km, segment_length_m)
    if problem:
        raise ValidationError(problem)
    return math.ceil(length_km * 1000.0 / segment_length_m - GEOM_EPS)


def segment_count_error(count: int, length_km: float, segment_length_m: float) -> str | None:
    """What breaks the header rule or makes ``count`` segments the wrong number for the header, or None."""
    try:
        expected = expected_segment_count(length_km, segment_length_m)
    except ValidationError as exc:  # the header rule's text
        return str(exc)
    if count != expected:
        return f"{count} segments, expected {expected} for {length_km} km at {segment_length_m} m"
    return None


def grid_error(geometry: Iterable[tuple], segment_length_m: float) -> str | None:
    """What puts the first ``(index, start_m, length_m)`` of ``geometry`` off the grid, or None: segment ``i``
    has index ``i``, length ``segment_length_m`` exactly and start ``i * segment_length_m`` within GEOM_EPS."""
    for position, (index, start_m, length_m) in enumerate(geometry):
        if index != position:
            return f"segment {index}: segment_index {index!r} at position {position}"
        if length_m != segment_length_m:
            return f"segment {index}: length_m {length_m!r} != segment_length_m {segment_length_m!r}"
        if not abs(start_m - index * segment_length_m) <= GEOM_EPS:  # a NaN start is off the grid
            grid_start = index * segment_length_m
            return f"segment {index}: start_m {start_m!r} != segment_index * segment_length_m ({grid_start!r})"
    return None


def hold_to_grid(container, stored: type) -> None:
    """Hold a frozen corridor container's ``segments`` to its grid, else raise a ValidationError: first the count,
    then each view, stored through ``stored.of``, or a ``stored`` instance's ``segment_length_m``."""
    segments = container.segments if isinstance(container.segments, stored) else tuple(container.segments)
    problem = segment_count_error(len(segments), container.length_km, container.segment_length_m)
    if problem:
        raise ValidationError(f"corridor {container.corridor_id!r}: {problem}")
    if isinstance(segments, stored):  # a stored instance lies on its own grid: segment 0 shows whether that is this one
        problem = grid_error([(0, 0.0, segments.segment_length_m)] if segments else (), container.segment_length_m)
        if problem:
            raise ValidationError(problem)
    else:
        object.__setattr__(container, "segments", stored.of(segments, container.segment_length_m))


def parse_json(text: str, source: str, *, what: str = "JSON", line: int | None = None):
    """``json.loads(text)``; malformed or too deeply nested text, or an integer too long to convert, is a ParseError.

    The error says ``invalid {what}`` and gives the line and column of the
    fault in ``text``, or only ``line`` when given (``text`` is that line of
    ``source``). Nesting deeper than the interpreter's recursion limit is
    reported at the start of the outermost value, an integer of more digits
    than ``sys.get_int_max_str_digits()`` at the start of that integer.
    """
    import json  # here, so that importing the CLI does not load json

    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        fault = exc
    except RecursionError:
        fault = json.JSONDecodeError("nesting too deep", text, len(text) - len(text.lstrip(" \t\n\r")))
    except ValueError:  # int() of an integer literal past the interpreter's digit limit
        import re
        import sys

        limit = sys.get_int_max_str_digits()
        # the text parsed up to the first such literal, so its strings, skipped here, are well formed
        tokens = re.finditer(r'"[^"\\]*(?:\\.[^"\\]*)*"|-?(\d+)(\.\d+)?([eE][-+]?\d+)?', text)
        starts = [t.start() for t in tokens if t[1] and not t[2] and not t[3] and len(t[1]) > limit]
        if not starts:
            raise
        fault = json.JSONDecodeError(f"integer of more than {limit} digits", text, starts[0])
    if line is not None:
        raise ParseError(f"invalid {what}: {fault.msg}", source=source, line=line)
    raise ParseError(f"invalid {what}: {fault.msg}", source=source, line=fault.lineno, column=fault.colno)


UTF8_CHUNK = 1 << 16  # the bytes read_input_bytes checks for UTF-8 at a time


def read_input_bytes(path: str | Path, data: bytes | None = None) -> bytes:
    """The bytes of the file ``path``, or ``data`` when they are already read, as the UTF-8 text they hold: one
    leading BOM dropped, and ``\\r\\n`` and ``\\r`` read as ``\\n`` (no multi-byte UTF-8 sequence holds either
    byte). A byte that is not UTF-8 is a ParseError that names the file and gives the line and column, in
    characters, of that byte."""
    if data is None:
        data = Path(path).read_bytes()
    if data.startswith(b"\xef\xbb\xbf"):  # U+FEFF, the BOM some editors write
        data = data[3:]
    if b"\r" in data:  # two statements, so that at most two copies are held at once
        data = data.replace(b"\r\n", b"\n")
        data = data.replace(b"\r", b"\n")
    if not data.isascii():  # checked a chunk at a time, so that no text of the whole file is made
        decoder = codecs.getincrementaldecoder("utf-8")()
        for start in range(0, len(data), UTF8_CHUNK):
            held = len(decoder.getstate()[0])  # the bytes of a sequence the last chunk left open
            try:
                decoder.decode(data[start : start + UTF8_CHUNK], final=start + UTF8_CHUNK >= len(data))
            except UnicodeDecodeError as exc:
                at = start - held + exc.start
                line_start = data.rfind(b"\n", 0, at) + 1  # the part of the line before the byte is UTF-8
                line, column = data.count(b"\n", 0, at) + 1, len(data[line_start:at].decode()) + 1
                message = f"byte 0x{data[at]:02x} is not UTF-8 ({exc.reason})"
                raise ParseError(message, source=str(path), line=line, column=column) from None
    return data


def read_input(path: str | Path, data: bytes | None = None) -> str:
    """The text of :func:`read_input_bytes`: every text input is read by its one rule."""
    return read_input_bytes(path, data).decode()


def read_csv_table(text: str, source: str | None, header: Sequence[str], empty: str, read_row: Callable) -> None:
    """Call ``read_row(fields)`` on each data row of a headered CSV table, in order.

    This is the one place that positions a CSV fault: a ValueError from ``read_row`` is a ParseError with its text
    at that row's line. Blank rows and rows whose first field starts with ``#`` after BLANKS are skipped. The text
    is read as the rows are read, so the first fault in the file is the one reported: a row ``read_row`` refuses; a
    record csv cannot read (e.g. a field over its size limit), at its line; no row at all (the message ``empty``); a
    first row other than ``header`` (cells stripped of BLANKS), at its line; a data row without ``len(header)``
    fields, at its line.
    """
    import csv  # here, so that importing the CLI does not load csv
    import io

    reader = csv.reader(io.StringIO(text))
    width = len(header)
    try:
        for row in reader:
            if row and not row[0].lstrip(BLANKS).startswith("#"):
                break
        else:
            raise ParseError(empty, source=source)
        if [cell.strip(BLANKS) for cell in row] != list(header):
            raise ParseError(f"expected header {','.join(header)!r}", source=source, line=reader.line_num)
        for row in reader:
            # a first field without '#' is no comment, which saves most rows the strip
            if row and ("#" not in row[0] or not row[0].lstrip(BLANKS).startswith("#")):
                if len(row) != width:
                    raise ParseError(f"expected {width} fields, got {len(row)}", source=source, line=reader.line_num)
                read_row(row)
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise ParseError(f"malformed CSV: {exc}", source=source, line=reader.line_num) from None
    except ValueError as exc:  # from read_row: the reader is still at its row
        raise ParseError(str(exc), source=source, line=reader.line_num) from None


def parse_int(text: str, *, signed: bool = True) -> int:
    """The integer in the CSV cell or canonical-text value ``text``: an optional ``-`` and ASCII digits, ASCII blanks
    around, or ASCII digits alone when not ``signed``; other text, even ``+2``, ``1_0`` or ``٢``, is a ValueError."""
    if text.isascii() and (text.isdigit() or signed and text.strip(BLANKS).removeprefix("-").isdigit()):
        return int(text)
    raise ValueError(f"not an integer: {text!r}")


def parse_real(text: str) -> float:
    """``float(text)`` of the CSV cell ``text`` if it is ASCII without ``_`` (so ``nan`` reads), else a ValueError."""
    if not text.isascii() or "_" in text:  # float() strips the ASCII blanks, and only those, from ASCII text
        raise ValueError(f"not a real number: {text!r}")
    return float(text)


def check_adequacy(value, what: str):
    """``value`` when it is on the 0–2 adequacy scale, else a ValueError on ``what`` with the one 0–2 text."""
    if value not in ADEQUACY:
        raise ValueError(f"{what} must be 0, 1 or 2, got {value}")
    return value


def parse_adequacy(text: str, what: str) -> int:
    """The adequacy value 0, 1 or 2 written in the CSV cell ``text``; other text is a ValueError on ``what``."""
    try:
        value = parse_int(text)
    except ValueError:
        raise ValueError(f"malformed {what} {text!r}") from None
    return check_adequacy(value, what)


def name_reader(members: Iterable, what: str, name: Callable = lambda member: member.value) -> Callable:
    """The reader of the lower-case names ``name(member)`` of ``members``, built once. It ignores ASCII blanks around a
    name and ASCII case; a non-string is a TypeError, other text a ValueError that lists the names."""
    by_name = {name(member): member for member in members}
    *first, last = by_name
    expected = f"{', '.join(first)} or {last}"
    def read(text: str):
        if not isinstance(text, str):
            raise TypeError(f"{what} must be a string, got {text!r}")
        member = by_name.get(text.strip(BLANKS).lower()) if text.isascii() else None  # "\u212a" (Kelvin) lowers to "k"
        if member is None:
            raise ValueError(f"unknown {what} {text!r} (expected {expected})")
        return member
    return read


# The score vocabulary, shared by scoring, the IVIM codec and the taxonomy (which re-exports it).
V_MAX = ADEQUACY[-1]
"""Adequacy/rating scale maximum shared by observations and survey ratings."""


class AutomationLevelGroup(Enum):
    """Automation-level grouping: assisted (SAE 1-2) vs automated (SAE 3-4)."""

    ASD = "asd"
    AUD = "aud"

    @classmethod
    def parse(cls, text: str) -> AutomationLevelGroup:
        return _read_group(text)


class ReadinessClass(Enum):
    UNLIKELY = "unlikely"
    MAY_BE = "may-be"
    HIGHLY_LIKELY = "highly-likely"

    @classmethod
    def parse(cls, text: str) -> ReadinessClass:
        return _read_class(text)


_read_group = name_reader(AutomationLevelGroup, "automation-level group")
_read_class = name_reader(ReadinessClass, "readiness class")
BANDS = tuple(ReadinessClass)
BAND_EDGES = (33.0, 66.0)

LEVEL_SETS = (frozenset(), frozenset({1, 2}), frozenset({3, 4}), frozenset({1, 2, 3, 4}))
"""The only valid allowed-level sets, indexed by their code ``asd_passes + 2 * aud_passes``:
levels always enter in group pairs."""
LEVEL_MASKS = (0x0, 0x3, 0xC, 0xF)
"""The wire bitmask of each level set, by code: bit0 = SAE1 .. bit3 = SAE4."""
LEVEL_CODES: Mapping[frozenset[int] | int, int] = MappingProxyType(
    {key: code for code, pair in enumerate(zip(LEVEL_SETS, LEVEL_MASKS)) for key in pair}
)
"""The code of each valid level set and of each valid wire bitmask."""


def level_code(levels: Iterable[int]) -> int:
    """The code of a valid level set; a ``ValueError`` names any other set as
    unpaired, or as invalid when its levels in 1..4 pair but it holds others."""
    levels = frozenset(levels)
    code = LEVEL_CODES.get(levels)
    if code is None:
        paired = levels & LEVEL_SETS[-1] in LEVEL_CODES
        raise ValueError(f"{'invalid' if paired else 'unpaired'} SAE levels {sorted(levels)}")
    return code


def check_scores(*columns) -> None:
    """Refuse a readiness score outside [0, 100], NaN included: a ValueError names the first one,
    taking the columns' scores of one segment after another."""
    for column in columns:
        # min and max can pass over a NaN, which makes the sum NaN
        if column and not (0.0 <= min(column) and max(column) <= 100.0 and not math.isnan(sum(column))):
            for score in chain.from_iterable(zip(*columns)):
                if not 0.0 <= score <= 100.0:
                    raise ValueError(f"readiness score {score} outside [0, 100]")


def readiness_band(score: float) -> ReadinessClass:
    """Band a score: [0,33) unlikely, [33,66) may-be, [66,100] highly-likely."""
    check_scores((score,))
    return BANDS[bisect_right(BAND_EDGES, score)]


def band_indexes(scores: Iterable[float]) -> list[int]:
    """The index in ``BANDS`` of each score's band; the scores must lie in [0, 100]."""
    return list(map(bisect_right, repeat(BAND_EDGES), scores))


class MacroCategory(Enum):
    ROAD_MARKINGS_SIGNAGE = "road-markings-signage"
    ROAD_MAINTENANCE_MANAGEMENT = "road-maintenance-management"
    ROADWAY_DESIGN_SAFETY = "roadway-design-safety"
    PRELOADED_HD_MAPS = "preloaded-hd-maps"


def write_csv_table(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The CSV text of ``header`` and then ``rows``, as ``csv.writer`` writes them, each line ended by ``\\n``."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def json_float(value, name: str) -> float:
    """``float(value)`` of a JSON number; any other value, even a string or bool ``float`` reads, and an integer
    past the float range are a ValueError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} {value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:  # int too large to convert to float
        raise ValueError(str(exc)) from None


def json_str(value, name: str) -> str:
    """``value`` when it is a JSON string; any other value, which ``str`` would spell, is a ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{name} {value!r} is not a string")
    return value


def json_fault(exc: Exception) -> str:
    """The text of a JSON document's field fault ``exc``: a KeyError names the field that is missing."""
    return f"missing field {exc}" if isinstance(exc, KeyError) else str(exc)


def json_int(value, name: str) -> int:
    """``int(value)`` of a JSON number, refusing any other value and a number with a fractional part."""
    if type(value) is not int and not json_float(value, name).is_integer():  # json_float refuses a non-number
        raise ValueError(f"{name} {value!r} is not an integer")
    return int(value)


def now_ms() -> int:
    """Wall-clock time in whole milliseconds since the Unix epoch."""
    return time.time_ns() // 1_000_000


def atomic_write_all(outputs: Sequence[tuple[str | Path, str | bytes]]) -> None:
    """Write each ``(path, data)`` output, text as UTF-8, with every temporary file written before
    any output is replaced: a failed write leaves no new output and no temporary file behind.
    Two outputs that resolve to one file are a ValidationError, raised before anything is written."""
    resolved = [Path(path).resolve() for path, _ in outputs]
    for position, (path, _) in enumerate(outputs):
        if resolved[position] in resolved[:position]:
            raise ValidationError(f"two outputs name one file: {path}")
    pending = []  # (temporary file, output) written and not yet moved into place
    path = None
    try:
        for path, data in outputs:
            path = Path(path)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
            pending.append((tmp_name, path))
            with os.fdopen(fd, "wb") as handle:
                handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        while pending:
            tmp_name, path = pending[0]
            os.replace(tmp_name, path)
            del pending[0]
    except BaseException as exc:
        for tmp_name, _ in pending:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
        if isinstance(exc, OSError):  # named after the output, not the temporary file beside it
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise
