"""Operator-facing command line.

Subcommands: ``score`` (corridor CSV -> score profiles), ``survey``
(questionnaire CSVs -> weight table and summaries), ``sensitivity``
(macro-category scenario scores), ``ivim`` (build/encode/decode/inspect
messages) and ``simulate-rsu`` (periodic broadcast loop).

Exit codes: 0 success, 1 input error (malformed content, usage), 2
validation error (invariant violations), 3 I/O error. Primary output files
are written atomically, so failed runs leave no partial outputs.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn, Sequence

# Each subcommand imports the domain modules it runs, so that a process loads
# only those: at module level this file needs no more than these two.
from ._util import ADEQUACY, BLANKS, DEFAULT_SEGMENT_LENGTH_M, DEFAULT_THRESHOLD
from ._util import atomic_write_all, now_ms, parse_int, parse_real, read_input, write_csv_table
from .errors import HriError, ValidationError

if TYPE_CHECKING:
    from .ivim import IvimMessage
    from .taxonomy import WeightTable


def _load_weights(selector: str) -> WeightTable:
    from . import taxonomy as taxonomy_mod

    if selector == "builtin":
        return taxonomy_mod.builtin_weight_table()
    table = taxonomy_mod.load_weight_table(selector)
    issues = taxonomy_mod.validate_weight_table(table)
    if issues:
        raise ValidationError(f"weight table {selector}: {issues[0].detail}")
    return table


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 100.0:
        raise ValidationError(f"threshold must be inside (0, 100), got {threshold}")


def _parse_hostport(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    try:
        number = parse_int(port, signed=False)  # ASCII digits alone
    except ValueError:
        number = None
    if not host or number is None:
        raise ValidationError(f"expected host:port, got {text!r}")
    if number > 65535:
        raise ValidationError(f"port {port} in {text!r} is above 65535")
    return host, number


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


def score(args: argparse.Namespace) -> None:
    """Score a corridor and write CSV + JSON readiness profiles."""
    from . import corridor as corridor_mod
    from . import scoring as scoring_mod

    _check_threshold(args.threshold)
    if (args.corridor_id is None) != (args.length_km is None):
        raise ValidationError("--corridor-id and --length-km must be given together")
    if args.corridor_id is not None and args.meta is not None:
        raise ValidationError("--meta and --corridor-id/--length-km must not be given together")
    table = _load_weights(args.weights)
    flags = {"corridor_id": args.corridor_id, "length_km": args.length_km, "segment_length_m": args.segment_length}
    profile = corridor_mod.load_corridor(args.corridor_csv, meta=args.meta if args.corridor_id is None else flags)
    overlays = [corridor_mod.load_overlay(overlay_path) for overlay_path in args.overlay or ()]
    profile = corridor_mod.apply_overlay(profile, *overlays)
    assessment = scoring_mod.score_corridor(profile, table, threshold=args.threshold)

    summary = []
    if args.pretty:  # built before anything is written
        segments = assessment.segments
        summary.append(f"corridor {assessment.corridor_id}: {assessment.length_km} km")
        for name, values in (("asd", segments.asd_scores), ("aud", segments.aud_scores)):
            summary.append(
                f"  {name}: min {min(values):.2f}  max {max(values):.2f}  mean {sum(values) / len(values):.2f}"
                if values
                else f"  {name}: no segments"
            )
        summary.append(f"  segments with no recommendation: {segments.levels.count(0)}")

    corridor_csv = args.corridor_csv
    csv_path = args.out_csv if args.out_csv is not None else corridor_csv.with_suffix(".scores.csv")
    json_path = args.out_json if args.out_json is not None else corridor_csv.with_suffix(".scores.json")
    atomic_write_all(
        [
            (csv_path, scoring_mod.dump_score_profile_csv(assessment)),
            (json_path, scoring_mod.dump_score_profile_json(assessment)),
        ]
    )
    print(f"wrote {csv_path} and {json_path} ({len(assessment.segments)} segments)")
    for line in summary:
        print(line)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


def survey(args: argparse.Namespace) -> None:
    """Aggregate survey responses into a weight table and summary reports."""
    from . import survey as survey_mod
    from . import taxonomy as taxonomy_mod

    ratings_csv = args.ratings_csv
    responses = survey_mod.load_survey(ratings_csv, args.respondents_csv)
    table = survey_mod.aggregate_mean_impact(responses)
    diffs = survey_mod.impact_difference(table)
    means = survey_mod.grouped_mean(responses)

    weights_path = args.out_weights if args.out_weights is not None else ratings_csv.with_suffix(".weights.csv")
    diff_path = args.out_diff if args.out_diff is not None else ratings_csv.with_suffix(".impact-diff.csv")
    days_path = args.out_days if args.out_days is not None else ratings_csv.with_suffix(".day-means.csv")
    atomic_write_all(
        [
            (weights_path, taxonomy_mod.dump_weight_table(table)),
            (diff_path, survey_mod.dump_impact_difference(diffs)),
            (days_path, survey_mod.dump_grouped_means(means)),
        ]
    )
    print(f"wrote {weights_path}, {diff_path}, {days_path} ({len(responses)} responses)")

    if args.pretty:
        asd = taxonomy_mod.AutomationLevelGroup.ASD
        aud = taxonomy_mod.AutomationLevelGroup.AUD
        print(f"{'attribute':<28} {'asd':>6} {'aud':>6} {'diff':>6}")
        for attr in table.attribute_ids_present():
            print(
                f"{attr:<28} {table.lookup(asd, attr):>6.2f} "
                f"{table.lookup(aud, attr):>6.2f} {diffs[attr]:>6.2f}"
            )


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------


def sensitivity(args: argparse.Namespace) -> None:
    """Score the three macro-category scenarios for both groups."""
    from . import scoring as scoring_mod
    from .taxonomy import AutomationLevelGroup, MacroCategory

    degraded = dict.fromkeys(scoring_mod.DEFAULT_DEGRADED_LEVELS, args.degraded_level)
    for override in args.degraded or ():
        name, _, level_text = override.partition("=")
        try:
            category = MacroCategory(name.strip(BLANKS))
        except ValueError:
            raise ValidationError(f"unknown degradable category {name!r}") from None
        try:
            degraded[category] = parse_int(level_text)
        except ValueError:
            raise ValidationError(f"bad degraded level in {override!r}") from None
    try:
        configs = [
            scoring_mod.SensitivityConfig(scenario=scenario, degraded_levels=degraded)
            for scenario in scoring_mod.SensitivityScenario
        ]
    except ValueError as exc:
        raise ValidationError(str(exc)) from None

    rows = []
    for config in configs:
        scores = scoring_mod.macro_sensitivity(config)
        for group in AutomationLevelGroup:
            value = scores[group].value
            rows.append(
                {
                    "scenario": config.scenario.value,
                    "group": group.value,
                    "score": value,
                    "readiness_class": scoring_mod.classify(value).value,
                }
            )

    if args.format == "json":
        import json

        text = json.dumps(rows, indent=2) + "\n"
    else:
        text = write_csv_table(
            ("scenario", "group", "score", "readiness_class"),
            ((row["scenario"], row["group"], f"{row['score']:.2f}", row["readiness_class"]) for row in rows),
        )

    if args.out is not None:
        atomic_write_all([(args.out, text)])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)

    if args.pretty:
        print(f"{'scenario':<18} {'group':<5} {'score':>7}  class")
        for row in rows:
            print(f"{row['scenario']:<18} {row['group']:<5} {row['score']:>7.2f}  {row['readiness_class']}")


# ---------------------------------------------------------------------------
# ivim
# ---------------------------------------------------------------------------


def _profile_message(profile_json: Path, args: argparse.Namespace, location=None) -> IvimMessage:
    """The message built from the score profile JSON at ``profile_json`` with the options ``--station-id``,
    ``--timestamp`` (default: the wall clock), ``--validity`` and ``--ivi-id`` of ``args``, and ``location``."""
    from .ivim import build_ivim
    from .scoring import load_score_profile_json

    return build_ivim(
        load_score_profile_json(profile_json),
        station_id=args.station_id,
        timestamp_ms=args.timestamp if args.timestamp is not None else now_ms(),
        validity_duration_s=args.validity,
        ivi_identification=args.ivi_id,
        location=location,
    )


def ivim_build(args: argparse.Namespace) -> None:
    """Build a canonical-text message from a score profile JSON."""
    from . import ivim as ivim_mod

    ref_lat, ref_lon = args.ref_lat, args.ref_lon
    if (ref_lat is None) != (ref_lon is None):
        raise ValidationError("--ref-lat and --ref-lon must be given together")
    for option, degrees in (("--ref-lat", ref_lat), ("--ref-lon", ref_lon)):
        if degrees is not None and not math.isfinite(degrees * 1e7):
            raise ValidationError(f"{option} must be finite in 1e-7 degrees, got {degrees}")
    location = None
    if ref_lat is not None and ref_lon is not None:
        location = ivim_mod.GeographicLocationContainer(
            latitude_e7=int(round(ref_lat * 1e7)),
            longitude_e7=int(round(ref_lon * 1e7)),
        )
    message = _profile_message(args.profile_json, args, location)
    text = ivim_mod.to_canonical_text(message)
    out_path = args.out if args.out is not None else args.profile_json.with_suffix(".ivim.txt")
    atomic_write_all([(out_path, text)])
    zone_count = len(message.av.zones) if message.av is not None else 0
    print(f"wrote {out_path} ({zone_count} zones)")


def ivim_encode(args: argparse.Namespace) -> None:
    """Encode a canonical-text message into the binary wire form."""
    from . import ivim as ivim_mod

    text_in = args.text_in
    message = ivim_mod.from_canonical_text(read_input(text_in), source=str(text_in))
    payload = ivim_mod.encode(message)
    if args.out is not None:
        out_path = args.out
    elif text_in.name.endswith(".ivim.txt"):
        out_path = text_in.with_name(text_in.name[: -len(".txt")])
    else:
        out_path = text_in.with_suffix(".ivim")
    atomic_write_all([(out_path, payload)])
    print(f"wrote {out_path} ({len(payload)} bytes)")


def ivim_decode(args: argparse.Namespace) -> None:
    """Decode a binary message back into canonical text."""
    from . import ivim as ivim_mod

    message = ivim_mod.decode(args.bin_in.read_bytes())
    text = ivim_mod.to_canonical_text(message)
    if args.out is not None:
        atomic_write_all([(args.out, text)])
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)


def ivim_inspect(args: argparse.Namespace) -> None:
    """Print a human summary of a binary message."""
    from . import ivim as ivim_mod

    message = ivim_mod.decode(args.bin_in.read_bytes())
    sys.stdout.write(ivim_mod.describe(message))


# ---------------------------------------------------------------------------
# simulate-rsu
# ---------------------------------------------------------------------------


def simulate_rsu(args: argparse.Namespace) -> None:
    """Broadcast a message periodically, ending with a cancellation."""
    import logging
    import signal
    import threading

    from . import ivim as ivim_mod
    from . import rsu as rsu_mod

    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    if (args.message is None) == (args.profile is None):
        raise ValidationError("exactly one of --message or --profile is required")
    if not args.dry_run and args.target is None:
        raise ValidationError("either --target or --dry-run is required")

    if args.message is not None:
        raw = args.message.read_bytes()
        if raw.startswith(ivim_mod.MAGIC):
            base_message = ivim_mod.decode(raw)
        else:
            base_message = ivim_mod.from_canonical_text(read_input(args.message, raw), source=str(args.message))
    else:
        base_message = _profile_message(args.profile, args)

    config = rsu_mod.BroadcastConfig(
        period_s=args.period,
        count=args.count,
        target=_parse_hostport(args.target) if args.target is not None else None,
        bind=_parse_hostport(args.bind) if args.bind is not None else None,
        base_timestamp_ms=args.timestamp,
    )

    stop = threading.Event()
    previous_handlers = {}

    def request_stop(signum, frame) -> None:  # noqa: ARG001 - signal signature
        logging.getLogger("hri.cli").info("stop requested, sending cancellation")
        stop.set()

    for signum in (signal.SIGINT, signal.SIGTERM):
        previous_handlers[signum] = signal.signal(signum, request_stop)
    try:
        emissions = rsu_mod.run_broadcast(
            base_message,
            config,
            stop=stop,
            out=sys.stdout if args.dry_run else None,
        )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    print(f"sent {emissions} emission(s) plus cancellation", file=sys.stderr)


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1 like other input errors: exit 2 means a validation error."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


class _Formatter(argparse.ArgumentDefaultsHelpFormatter):
    """Help that shows the default of each option that has one."""

    def _get_help_string(self, action: argparse.Action) -> str | None:
        if action.default is None or action.default is False:
            return action.help
        return super()._get_help_string(action)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    # no abbreviated options and no -h: the options are exactly those listed
    settings = {"allow_abbrev": False, "add_help": False, "formatter_class": _Formatter}

    def with_help(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
        parser.add_argument("--help", action="help", help="Show this message and exit.")
        parser.register("type", int, parse_int)  # type=int and type=float options read by the number rule
        parser.register("type", float, parse_real)
        return parser

    def command(commands, name: str, run, doc: str | None = None) -> argparse.ArgumentParser:
        """The parser of subcommand ``name``, which calls ``run(args)``; ``doc`` defaults to its docstring."""
        doc = doc or run.__doc__
        parser = with_help(commands.add_parser(name, help=doc, description=doc, **settings))
        parser.set_defaults(run=run)
        return parser

    doc = "Highway readiness scoring and infrastructure-to-vehicle messaging."
    parser = with_help(_Parser(prog="hri", description=doc, **settings))
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    p = command(commands, "score", score)
    p.add_argument("corridor_csv", type=Path)
    p.add_argument("--meta", type=Path, help="Corridor metadata JSON sidecar; must agree with a metadata line.")
    p.add_argument("--corridor-id", help="Corridor metadata in place of --meta; must agree with a metadata line.")
    p.add_argument("--length-km", type=float, help="Corridor length, with --corridor-id.")
    p.add_argument(
        "--segment-length", type=float, default=DEFAULT_SEGMENT_LENGTH_M,
        help="Segment length, metres, with --corridor-id.",
    )
    p.add_argument(
        "--weights", default=os.environ.get("HRI_WEIGHTS") or "builtin",
        help="'builtin' or a weight-table CSV path; HRI_WEIGHTS sets the default.",
    )
    p.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD,
        help="Score from which a group's SAE levels are recommended.",
    )
    p.add_argument(
        "--overlay", action="append", type=Path, help="Scenario overlay JSON; repeatable, applied in order."
    )
    p.add_argument("--out-csv", type=Path, help="Score profile CSV path.")
    p.add_argument("--out-json", type=Path, help="Score profile JSON path.")
    p.add_argument("--pretty", action="store_true", help="Also print a human summary.")

    p = command(commands, "survey", survey)
    p.add_argument("ratings_csv", type=Path)
    p.add_argument("respondents_csv", type=Path)
    p.add_argument("--out-weights", type=Path)
    p.add_argument("--out-diff", type=Path)
    p.add_argument("--out-days", type=Path)
    p.add_argument("--pretty", action="store_true")

    p = command(commands, "sensitivity", sensitivity)
    p.add_argument(
        "--degraded-level", type=int, choices=ADEQUACY, default=1,
        help="Adequacy assigned to degraded physical categories.",
    )
    p.add_argument(
        "--degraded", action="append", help="Per-category override, e.g. road-markings-signage=0; repeatable."
    )
    p.add_argument("--out", type=Path, help="Report path (default: stdout).")
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="Report format.")
    p.add_argument("--pretty", action="store_true")

    doc = "Build, encode, decode and inspect infrastructure-to-vehicle messages."
    ivim = command(commands, "ivim", None, doc).add_subparsers(metavar="COMMAND", required=True)
    p = command(ivim, "build", ivim_build)
    p.add_argument("profile_json", type=Path)
    p.add_argument("--station-id", type=int, required=True, help="Sending station identifier.")
    p.add_argument("--timestamp", type=int, help="Management timestamp ms (default: wall clock).")
    p.add_argument("--validity", type=int, default=600, help="Validity duration, seconds.")
    p.add_argument("--ivi-id", type=int, default=1, help="IVI identification number.")
    p.add_argument("--ref-lat", type=float, help="Reference latitude, decimal degrees.")
    p.add_argument("--ref-lon", type=float, help="Reference longitude, decimal degrees.")
    p.add_argument("--out", type=Path, help="Canonical text output path.")
    p = command(ivim, "encode", ivim_encode)
    p.add_argument("text_in", type=Path)
    p.add_argument("--out", type=Path, help="Binary output path.")
    p = command(ivim, "decode", ivim_decode)
    p.add_argument("bin_in", type=Path)
    p.add_argument("--out", type=Path, help="Text output path (default: stdout).")
    command(ivim, "inspect", ivim_inspect).add_argument("bin_in", type=Path)

    p = command(commands, "simulate-rsu", simulate_rsu)
    p.add_argument("--message", type=Path, help="Message file, binary or canonical text.")
    p.add_argument("--profile", type=Path, help="Score profile JSON to build the message from.")
    p.add_argument("--station-id", type=int, default=1, help="Sending station identifier.")
    p.add_argument("--ivi-id", type=int, default=1, help="IVI identification number.")
    p.add_argument("--validity", type=int, default=600, help="Validity duration, seconds.")
    p.add_argument("--period", type=float, default=1.0, help="Seconds between emissions.")
    p.add_argument("--count", type=int, help="Stop after N emissions (default: run until interrupted).")
    p.add_argument("--target", help="UDP destination host:port.")
    p.add_argument("--bind", help="Local UDP source host:port.")
    p.add_argument("--dry-run", action="store_true", help="Print hex datagrams to stdout instead of sending.")
    p.add_argument("--timestamp", type=int, help="Base timestamp ms for reproducible emission stamps.")

    try:
        try:
            args = parser.parse_args(argv)
            args.run(args)
            code = 0
        except SystemExit as exc:  # from the parser: --help (0) or a usage error (1)
            code = exc.code
        sys.stdout.flush()  # inside the try, so that a reader that has gone is seen below
        return code
    except KeyboardInterrupt:
        print("\naborted", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader of stdout has gone, as under `| head`: exit 1 quietly
        sys.stdout = None  # so that the interpreter does not flush it again on exit
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except HriError as exc:  # ParseError, DecodeError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
