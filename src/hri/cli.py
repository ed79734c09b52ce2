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

import sys
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

import click

# Each subcommand imports the domain modules it runs, so that a process loads
# only those: at module level this file needs no more than these two.
from ._util import DEFAULT_SEGMENT_LENGTH_M, DEFAULT_THRESHOLD
from ._util import atomic_write_all, atomic_write_bytes, atomic_write_text, now_ms
from .errors import HriError, ValidationError

if TYPE_CHECKING:
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
    if not host or not port.isdigit():
        raise ValidationError(f"expected host:port, got {text!r}")
    return host, int(port)


@click.group()
def cli() -> None:
    """Highway readiness scoring and infrastructure-to-vehicle messaging."""


# ---------------------------------------------------------------------------
# score
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("corridor_csv", type=click.Path(path_type=Path))
@click.option("--meta", type=click.Path(path_type=Path), help="Corridor metadata JSON sidecar.")
@click.option("--corridor-id", help="Metadata fallback when the CSV has no metadata line.")
@click.option("--length-km", type=float, help="Metadata fallback corridor length.")
@click.option(
    "--segment-length",
    type=float,
    default=DEFAULT_SEGMENT_LENGTH_M,
    show_default=True,
    help="Metadata fallback segment length, metres.",
)
@click.option(
    "--weights",
    default="builtin",
    envvar="HRI_WEIGHTS",
    show_default=True,
    help="'builtin' or a weight-table CSV path.",
)
@click.option("--threshold", type=float, default=DEFAULT_THRESHOLD, show_default=True)
@click.option(
    "--overlay",
    "overlays",
    multiple=True,
    type=click.Path(path_type=Path),
    help="Scenario overlay JSON; repeatable, applied in order.",
)
@click.option("--out-csv", type=click.Path(path_type=Path), help="Score profile CSV path.")
@click.option("--out-json", type=click.Path(path_type=Path), help="Score profile JSON path.")
@click.option("--pretty", is_flag=True, help="Also print a human summary.")
def score(
    corridor_csv: Path,
    meta: Path | None,
    corridor_id: str | None,
    length_km: float | None,
    segment_length: float,
    weights: str,
    threshold: float,
    overlays: tuple[Path, ...],
    out_csv: Path | None,
    out_json: Path | None,
    pretty: bool,
) -> None:
    """Score a corridor and write CSV + JSON readiness profiles."""
    from . import corridor as corridor_mod
    from . import scoring as scoring_mod

    _check_threshold(threshold)
    table = _load_weights(weights)
    meta_arg: Path | dict | None = meta
    if meta_arg is None and corridor_id is not None and length_km is not None:
        meta_arg = {
            "corridor_id": corridor_id,
            "length_km": length_km,
            "segment_length_m": segment_length,
        }
    profile = corridor_mod.load_corridor(corridor_csv, meta=meta_arg)
    for overlay_path in overlays:
        profile = corridor_mod.apply_overlay(profile, corridor_mod.load_overlay(overlay_path))
    assessment = scoring_mod.score_corridor(profile, table, threshold=threshold)

    summary = []
    if pretty:  # built before anything is written
        segments = assessment.segments
        summary.append(f"corridor {assessment.corridor_id}: {assessment.length_km} km")
        for name, values in (("asd", segments.asd_scores), ("aud", segments.aud_scores)):
            summary.append(
                f"  {name}: min {min(values):.2f}  max {max(values):.2f}  mean {sum(values) / len(values):.2f}"
                if values
                else f"  {name}: no segments"
            )
        summary.append(f"  segments with no recommendation: {segments.levels.count(0)}")

    csv_path = out_csv if out_csv is not None else corridor_csv.with_suffix(".scores.csv")
    json_path = out_json if out_json is not None else corridor_csv.with_suffix(".scores.json")
    atomic_write_all(
        [
            (csv_path, scoring_mod.dump_score_profile_csv(assessment)),
            (json_path, scoring_mod.dump_score_profile_json(assessment)),
        ]
    )
    click.echo(f"wrote {csv_path} and {json_path} ({len(assessment.segments)} segments)")
    for line in summary:
        click.echo(line)


# ---------------------------------------------------------------------------
# survey
# ---------------------------------------------------------------------------


@cli.command()
@click.argument("ratings_csv", type=click.Path(path_type=Path))
@click.argument("respondents_csv", type=click.Path(path_type=Path))
@click.option("--out-weights", type=click.Path(path_type=Path))
@click.option("--out-diff", type=click.Path(path_type=Path))
@click.option("--out-days", type=click.Path(path_type=Path))
@click.option("--pretty", is_flag=True)
def survey(
    ratings_csv: Path,
    respondents_csv: Path,
    out_weights: Path | None,
    out_diff: Path | None,
    out_days: Path | None,
    pretty: bool,
) -> None:
    """Aggregate survey responses into a weight table and summary reports."""
    from . import survey as survey_mod
    from . import taxonomy as taxonomy_mod

    responses = survey_mod.load_survey(ratings_csv, respondents_csv)
    table = survey_mod.aggregate_mean_impact(responses)
    diffs = survey_mod.impact_difference(table)
    means = survey_mod.grouped_mean(responses)

    weights_path = out_weights if out_weights is not None else ratings_csv.with_suffix(".weights.csv")
    diff_path = out_diff if out_diff is not None else ratings_csv.with_suffix(".impact-diff.csv")
    days_path = out_days if out_days is not None else ratings_csv.with_suffix(".day-means.csv")
    atomic_write_all(
        [
            (weights_path, taxonomy_mod.dump_weight_table(table)),
            (diff_path, survey_mod.dump_impact_difference(diffs)),
            (days_path, survey_mod.dump_grouped_means(means)),
        ]
    )
    click.echo(f"wrote {weights_path}, {diff_path}, {days_path} ({len(responses)} responses)")

    if pretty:
        asd = taxonomy_mod.AutomationLevelGroup.ASD
        aud = taxonomy_mod.AutomationLevelGroup.AUD
        click.echo(f"{'attribute':<28} {'asd':>6} {'aud':>6} {'diff':>6}")
        for attr in table.attribute_ids_present():
            click.echo(
                f"{attr:<28} {table.lookup(asd, attr):>6.2f} "
                f"{table.lookup(aud, attr):>6.2f} {diffs[attr]:>6.2f}"
            )


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

@cli.command()
@click.option(
    "--degraded-level",
    type=click.IntRange(0, 2),
    default=1,
    show_default=True,
    help="Adequacy assigned to degraded physical categories.",
)
@click.option(
    "--degraded",
    "overrides",
    multiple=True,
    help="Per-category override, e.g. road-markings-signage=0; repeatable.",
)
@click.option("--out", type=click.Path(path_type=Path), help="Report path (default: stdout).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--pretty", is_flag=True)
def sensitivity(
    degraded_level: int,
    overrides: tuple[str, ...],
    out: Path | None,
    fmt: str,
    pretty: bool,
) -> None:
    """Score the three macro-category scenarios for both groups."""
    from . import scoring as scoring_mod
    from .taxonomy import AutomationLevelGroup, MacroCategory

    degraded = dict.fromkeys(scoring_mod.DEFAULT_DEGRADED_LEVELS, degraded_level)
    for override in overrides:
        name, _, level_text = override.partition("=")
        try:
            category = MacroCategory(name.strip())
        except ValueError:
            raise ValidationError(f"unknown degradable category {name!r}") from None
        try:
            degraded[category] = int(level_text)
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

    if fmt == "json":
        import json

        text = json.dumps(rows, indent=2) + "\n"
    else:
        import csv as csv_lib
        import io

        buffer = io.StringIO()
        writer = csv_lib.writer(buffer, lineterminator="\n")
        writer.writerow(["scenario", "group", "score", "readiness_class"])
        for row in rows:
            writer.writerow(
                [row["scenario"], row["group"], f"{row['score']:.2f}", row["readiness_class"]]
            )
        text = buffer.getvalue()

    if out is not None:
        atomic_write_text(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)

    if pretty:
        click.echo(f"{'scenario':<18} {'group':<5} {'score':>7}  class")
        for row in rows:
            click.echo(
                f"{row['scenario']:<18} {row['group']:<5} {row['score']:>7.2f}  {row['readiness_class']}"
            )


# ---------------------------------------------------------------------------
# ivim
# ---------------------------------------------------------------------------


@cli.group()
def ivim() -> None:
    """Build, encode, decode and inspect infrastructure-to-vehicle messages."""


@ivim.command("build")
@click.argument("profile_json", type=click.Path(path_type=Path))
@click.option("--station-id", type=int, required=True)
@click.option("--timestamp", type=int, help="Management timestamp ms (default: wall clock).")
@click.option("--validity", type=int, default=600, show_default=True)
@click.option("--ivi-id", type=int, default=1, show_default=True)
@click.option("--ref-lat", type=float, help="Reference latitude, decimal degrees.")
@click.option("--ref-lon", type=float, help="Reference longitude, decimal degrees.")
@click.option("--out", type=click.Path(path_type=Path), help="Canonical text output path.")
def ivim_build(
    profile_json: Path,
    station_id: int,
    timestamp: int | None,
    validity: int,
    ivi_id: int,
    ref_lat: float | None,
    ref_lon: float | None,
    out: Path | None,
) -> None:
    """Build a canonical-text message from a score profile JSON."""
    from . import ivim as ivim_mod
    from .scoring import load_score_profile_json

    if (ref_lat is None) != (ref_lon is None):
        raise ValidationError("--ref-lat and --ref-lon must be given together")
    location = None
    if ref_lat is not None and ref_lon is not None:
        location = ivim_mod.GeographicLocationContainer(
            latitude_e7=int(round(ref_lat * 1e7)),
            longitude_e7=int(round(ref_lon * 1e7)),
        )
    assessment = load_score_profile_json(profile_json)
    message = ivim_mod.build_ivim(
        assessment,
        station_id=station_id,
        timestamp_ms=timestamp if timestamp is not None else now_ms(),
        validity_duration_s=validity,
        ivi_identification=ivi_id,
        location=location,
    )
    text = ivim_mod.to_canonical_text(message)
    out_path = out if out is not None else profile_json.with_suffix(".ivim.txt")
    atomic_write_text(out_path, text)
    zone_count = len(message.av.zones) if message.av is not None else 0
    click.echo(f"wrote {out_path} ({zone_count} zones)")


@ivim.command("encode")
@click.argument("text_in", type=click.Path(path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), help="Binary output path.")
def ivim_encode(text_in: Path, out: Path | None) -> None:
    """Encode a canonical-text message into the binary wire form."""
    from . import ivim as ivim_mod

    message = ivim_mod.from_canonical_text(
        text_in.read_text(encoding="utf-8"), source=str(text_in)
    )
    payload = ivim_mod.encode(message)
    if out is not None:
        out_path = out
    elif text_in.name.endswith(".ivim.txt"):
        out_path = text_in.with_name(text_in.name[: -len(".txt")])
    else:
        out_path = text_in.with_suffix(".ivim")
    atomic_write_bytes(out_path, payload)
    click.echo(f"wrote {out_path} ({len(payload)} bytes)")


@ivim.command("decode")
@click.argument("bin_in", type=click.Path(path_type=Path))
@click.option("--out", type=click.Path(path_type=Path), help="Text output path (default: stdout).")
def ivim_decode(bin_in: Path, out: Path | None) -> None:
    """Decode a binary message back into canonical text."""
    from . import ivim as ivim_mod

    message = ivim_mod.decode(bin_in.read_bytes())
    text = ivim_mod.to_canonical_text(message)
    if out is not None:
        atomic_write_text(out, text)
        click.echo(f"wrote {out}")
    else:
        click.echo(text, nl=False)


@ivim.command("inspect")
@click.argument("bin_in", type=click.Path(path_type=Path))
def ivim_inspect(bin_in: Path) -> None:
    """Print a human summary of a binary message."""
    from . import ivim as ivim_mod

    message = ivim_mod.decode(bin_in.read_bytes())
    click.echo(ivim_mod.describe(message), nl=False)


# ---------------------------------------------------------------------------
# simulate-rsu
# ---------------------------------------------------------------------------


@cli.command("simulate-rsu")
@click.option("--message", "message_path", type=click.Path(path_type=Path),
              help="Message file, binary or canonical text.")
@click.option("--profile", "profile_path", type=click.Path(path_type=Path),
              help="Score profile JSON to build the message from.")
@click.option("--station-id", type=int, default=1, show_default=True)
@click.option("--ivi-id", type=int, default=1, show_default=True)
@click.option("--validity", type=int, default=600, show_default=True)
@click.option("--period", type=float, default=1.0, show_default=True, help="Seconds between emissions.")
@click.option("--count", type=int, help="Stop after N emissions (default: run until interrupted).")
@click.option("--target", help="UDP destination host:port.")
@click.option("--bind", "bind_addr", help="Local UDP source host:port.")
@click.option("--dry-run", is_flag=True, help="Print hex datagrams to stdout instead of sending.")
@click.option("--timestamp", type=int, help="Base timestamp ms for reproducible emission stamps.")
def simulate_rsu(
    message_path: Path | None,
    profile_path: Path | None,
    station_id: int,
    ivi_id: int,
    validity: int,
    period: float,
    count: int | None,
    target: str | None,
    bind_addr: str | None,
    dry_run: bool,
    timestamp: int | None,
) -> None:
    """Broadcast a message periodically, ending with a cancellation."""
    import logging
    import signal
    import threading

    from . import ivim as ivim_mod
    from . import rsu as rsu_mod
    from .scoring import load_score_profile_json

    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s")
    if (message_path is None) == (profile_path is None):
        raise ValidationError("exactly one of --message or --profile is required")
    if not dry_run and target is None:
        raise ValidationError("either --target or --dry-run is required")

    if message_path is not None:
        raw = message_path.read_bytes()
        if raw.startswith(ivim_mod.MAGIC):
            base_message = ivim_mod.decode(raw)
        else:
            base_message = ivim_mod.from_canonical_text(
                raw.decode("utf-8"), source=str(message_path)
            )
    else:
        assessment = load_score_profile_json(profile_path)
        base_message = ivim_mod.build_ivim(
            assessment,
            station_id=station_id,
            timestamp_ms=timestamp if timestamp is not None else now_ms(),
            validity_duration_s=validity,
            ivi_identification=ivi_id,
        )

    config = rsu_mod.BroadcastConfig(
        period_s=period,
        count=count,
        target=_parse_hostport(target) if target is not None else None,
        bind=_parse_hostport(bind_addr) if bind_addr is not None else None,
        base_timestamp_ms=timestamp,
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
            out=sys.stdout if dry_run else None,
        )
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
    click.echo(f"sent {emissions} emission(s) plus cancellation", err=True)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except click.ClickException as exc:  # usage errors included
        exc.show()
        return 1
    except ValidationError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except OSError as exc:
        click.echo(f"i/o error: {exc}", err=True)
        return 3
    except HriError as exc:  # ParseError, DecodeError
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
