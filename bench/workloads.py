"""The four benchmark workloads and their output checks.

Each workload generates its inputs in ``setup``, then ``step`` runs one
timed unit against the public API of ``hri`` and checks what came back.
Checks run after the timed region and never change what is timed. Spans
go to the recorder handed to ``step``; the untraced run hands ``spans.NULL``.
"""

from __future__ import annotations

import io
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from hri import corridor, fixtures, ivim, rsu, scoring
from hri.taxonomy import AutomationLevelGroup, V_MAX, attribute_ids, builtin_weight_table

import inputs
import spans

CLI_ENTRY = "import sys; from hri.cli import main; sys.exit(main())"  # what the hri script runs
STATION_ID = 4242
VALIDITY_S = 600
BASE_TIMESTAMP_MS = 1_700_000_000_000
SAMPLED_SEGMENTS = 8


@dataclass
class Outcome:
    """One step: latency of each operation that completed, in ms, and the
    input it ran on (``key``), so a run can report each input's fastest."""

    latencies_ms: list[float] = field(default_factory=list)
    key: int = 0
    attempted: int = 0
    failed: int = 0
    segments: int = 0
    errors: list[str] = field(default_factory=list)


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _location(rng: random.Random) -> ivim.GeographicLocationContainer:
    return ivim.GeographicLocationContainer(
        latitude_e7=rng.randint(450_000_000, 460_000_000),
        longitude_e7=rng.randint(80_000_000, 90_000_000),
    )


def reference_score(values: dict[str, int], weights, group: AutomationLevelGroup) -> float:
    """``100·Σw·v / Σw·2``, summed in the weight table's attribute order."""
    numerator = 0.0
    denominator = 0.0
    for attr, weight in weights.group_weights(group).items():
        numerator += weight * values[attr]
        denominator += weight * V_MAX
    return min(100.0, max(0.0, 100.0 * numerator / denominator))


def check_segments(spec, profile, assessment, weights, indexes) -> list[str]:
    """Overlay results and exact scores on the given segments."""
    errors = []
    for idx in indexes:
        expected = spec.expected_values(idx)
        if dict(profile.segments[idx].values) != expected:
            errors.append(f"{spec.corridor_id} segment {idx}: values after overlays differ")
            continue
        for group in AutomationLevelGroup:
            want = reference_score(expected, weights, group)
            got = assessment.segments[idx].scores[group].value
            if got != want:
                errors.append(f"{spec.corridor_id} segment {idx} {group.value}: score {got!r} != {want!r}")
    return errors


def sample_indexes(spec, rng: random.Random) -> list[int]:
    """Both ends, both sides of every overlay boundary, and a seeded sample."""
    n = spec.segments
    picks = {0, n - 1, *rng.sample(range(n), min(SAMPLED_SEGMENTS, n))}
    for overlay in spec.overlays:
        edges = (overlay.from_idx - 1, overlay.from_idx, overlay.to_idx - 1, overlay.to_idx)
        picks.update(i for i in edges if 0 <= i < n)
    return sorted(picks)


def assess(rec, files: inputs.CorridorFiles, weights, out_dir: Path):
    """What ``hri score`` does: load, overlay, score, write both profiles."""
    with rec.span("corridor.load_corridor") as span:
        profile = corridor.load_corridor(files.csv_path)
        span.note("rows", len(profile.segments) * len(attribute_ids()))
    for path, spec in zip(files.overlay_paths, files.spec.overlays):
        with rec.span("corridor.load_overlay"):
            overlay = corridor.load_overlay(path)
        with rec.span(
            "corridor.apply_overlay",
            scanned=len(profile.segments),
            touched=spec.to_idx - spec.from_idx,
        ):
            profile = corridor.apply_overlay(profile, overlay)
    with rec.span("scoring.score_corridor", segments=len(profile.segments)):
        assessment = scoring.score_corridor(profile, weights)
    with rec.span("scoring.dump_score_profile_json") as span:
        profile_json = scoring.dump_score_profile_json(assessment)
        span.note("json_bytes", len(profile_json))
    with rec.span("scoring.dump_score_profile_csv"):
        profile_csv = scoring.dump_score_profile_csv(assessment)
    json_path = out_dir / f"{files.spec.corridor_id}.scores.json"
    json_path.write_text(profile_json, encoding="utf-8")
    (out_dir / f"{files.spec.corridor_id}.scores.csv").write_text(profile_csv, encoding="utf-8")
    return profile, assessment, json_path, profile_csv


def check_profile(name: str, assessment, loaded, profile_csv: str) -> list[str]:
    """The JSON profile loads back unchanged; the CSV has one row per segment."""
    errors = []
    if loaded != assessment:
        errors.append(f"{name}: profile JSON round trip changed the assessment")
    if profile_csv.count("\n") != len(assessment.segments) + 1:
        errors.append(f"{name}: CSV profile has the wrong row count")
    return errors


class Workload:
    name = ""
    reports_segments = False  # segments_per_s is printed
    runs_in_children = False  # peak_rss_mb is that of the child processes

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.weights = builtin_weight_table()

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def step(self, rec, i: int) -> Outcome:
        raise NotImplementedError

    def finish(self, rec) -> dict:
        """Work after the measured loop; returns extra report fields."""
        return {}

    def teardown(self) -> None:
        pass

    def input_stats(self) -> dict:
        raise NotImplementedError


class NetworkAssess(Workload):
    """Closed loop, one client: the full per-corridor chain on a network."""

    name = "network-assess"
    reports_segments = True

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.files = [inputs.write_corridor(spec, workdir) for spec in inputs.network(self.seed)]
        self.rng = random.Random(f"network-checks-{self.seed}")
        self.location = _location(self.rng)
        self.zones: dict[str, int] = {}  # per corridor, filled as operations run
        self.step(spans.NULL, 0)

    def input_stats(self) -> dict:
        return {
            "corridors": len(self.files),
            "segments": sum(f.spec.segments for f in self.files),
            "overlays": sum(len(f.spec.overlays) for f in self.files),
            **inputs.zone_stats(list(self.zones.values())),
        }

    def step(self, rec, i: int) -> Outcome:
        files = self.files[i % len(self.files)]
        out = Outcome(attempted=1, segments=files.spec.segments, key=i % len(self.files))
        rec.op = i
        try:
            with rec.span("op", ops=1):
                start = perf_counter()
                profile, assessment, json_path, profile_csv = assess(rec, files, self.weights, self.workdir)
                with rec.span("scoring.load_score_profile_json"):
                    loaded = scoring.load_score_profile_json(json_path)
                with rec.span("ivim.build_ivim") as span:
                    message = ivim.build_ivim(
                        loaded,
                        station_id=STATION_ID,
                        timestamp_ms=BASE_TIMESTAMP_MS + i,
                        validity_duration_s=VALIDITY_S,
                        ivi_identification=i % 0xFFFF + 1,
                        location=self.location,
                    )
                    span.note("zones", len(message.av.zones))
                with rec.span("ivim.to_canonical_text"):
                    text = ivim.to_canonical_text(message)
                with rec.span("ivim.from_canonical_text"):
                    parsed = ivim.from_canonical_text(text)
                with rec.span("ivim.encode") as span:
                    payload = ivim.encode(parsed)
                    span.note("wire_bytes", len(payload))
                with rec.span("ivim.decode"):
                    decoded = ivim.decode(payload)
                broadcast = io.StringIO()
                with rsu_spans(rec), rec.span("rsu.run_broadcast", zones=len(decoded.av.zones)) as span:
                    config = rsu.BroadcastConfig(count=1, base_timestamp_ms=BASE_TIMESTAMP_MS + i)
                    span.note("emissions", rsu.run_broadcast(decoded, config, out=broadcast))
                elapsed = perf_counter() - start
        except Exception as exc:  # one failed operation must not end the run
            out.failed, out.errors = 1, [_error(exc)]
            return out
        out.latencies_ms.append(elapsed * 1000.0)
        self.zones[files.spec.corridor_id] = len(message.av.zones)
        errors = check_segments(files.spec, profile, assessment, self.weights, sample_indexes(files.spec, self.rng))
        errors += check_profile(files.spec.corridor_id, assessment, loaded, profile_csv)
        if parsed != message:
            errors.append("canonical-text round trip changed the message")
        if decoded != message:
            errors.append("decode(encode(m)) != m")
        if broadcast.getvalue() != dry_run_lines(message, BASE_TIMESTAMP_MS + i):
            errors.append("dry-run broadcast differs from the encoded new and cancellation messages")
        if errors:
            out.failed, out.errors = 1, errors
        return out


def dry_run_lines(message, base_ms: int) -> str:
    """What a one-emission dry run prints: ``new`` at base, then
    ``cancellation`` one default period (1 s) later, as hex lines."""
    return "".join(
        ivim.encode(ivim.with_management(message, timestamp_ms=ts, ivi_status=status)).hex() + "\n"
        for ts, status in ((base_ms, ivim.IviStatus.NEW), (base_ms + 1000, ivim.IviStatus.CANCELLATION))
    )


class LongCorridor(Workload):
    """Closed loop, one client: ``hri score`` on one 1,000 km corridor."""

    name = "long-corridor"
    reports_segments = True

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.files = inputs.write_corridor(inputs.long_corridor(self.seed), workdir)
        self.rng = random.Random(f"long-checks-{self.seed}")
        self.last = None
        self.step(spans.NULL, 0)
        self.zone_count = len(inputs.zone_ends(self.last))

    def input_stats(self) -> dict:
        return {
            "corridors": 1,
            "segments": self.files.spec.segments,
            "overlays": len(self.files.spec.overlays),
            **inputs.zone_stats([self.zone_count]),
        }

    def step(self, rec, i: int) -> Outcome:
        out = Outcome(attempted=1, segments=self.files.spec.segments)
        rec.op = i
        try:
            with rec.span("op", ops=1):
                start = perf_counter()
                profile, assessment, json_path, profile_csv = assess(rec, self.files, self.weights, self.workdir)
                elapsed = perf_counter() - start
            errors = check_segments(
                self.files.spec, profile, assessment, self.weights, sample_indexes(self.files.spec, self.rng)
            )
            with rec.span("scoring.load_score_profile_json"):
                loaded = scoring.load_score_profile_json(json_path)
            errors += check_profile(self.files.spec.corridor_id, assessment, loaded, profile_csv)
        except Exception as exc:  # one failed operation must not end the run
            out.failed, out.errors = 1, [_error(exc)]
            return out
        out.latencies_ms.append(elapsed * 1000.0)
        self.last = assessment
        if errors:
            out.failed, out.errors = 1, errors
        return out

    def finish(self, rec) -> dict:
        """Try to turn the corridor into one message, outside the timed loop.

        More than 255 zones do not fit the u8 zone count, so this fails at
        this commit; the failure is reported, not counted as a failed op.
        """
        rec.op = -1
        try:
            with rec.span("ivim.build_ivim") as span:
                message = ivim.build_ivim(
                    self.last, station_id=STATION_ID, timestamp_ms=BASE_TIMESTAMP_MS, validity_duration_s=VALIDITY_S
                )
                span.note("zones", len(message.av.zones))
        except Exception as exc:  # reported as ivim.build_ivim.failed
            return {"build_ivim_failed": 1, "build_ivim_error": _error(exc)}
        return {"build_ivim_failed": 0}

    def teardown(self) -> None:
        self.last = None


class _Receiver:
    """Loopback UDP receiver thread: stores (arrival time, datagram)."""

    def __init__(self) -> None:
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.settimeout(0.05)
        self.address = self.sock.getsockname()
        self.received: list[tuple[float, bytes]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-udp-receiver", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                data = self.sock.recv(65535)
            except socket.timeout:
                continue
            self.received.append((perf_counter(), data))

    def wait_for(self, count: int, timeout: float) -> None:
        deadline = perf_counter() + timeout
        while len(self.received) < count and perf_counter() < deadline:
            time.sleep(0.001)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self.sock.close()
        if self._thread.is_alive():
            raise RuntimeError("UDP receiver thread did not stop")


class RsuBroadcast(Workload):
    """Open loop on the RSU schedule: each session broadcasts one message
    ``EMISSIONS`` times at ``PERIOD_S`` to a loopback receiver."""

    name = "rsu-broadcast"
    PERIOD_S = 0.01
    EMISSIONS = 100

    def setup(self, workdir: Path) -> None:
        files = inputs.write_corridor(inputs.rsu_corridor(self.seed), workdir)
        _, assessment, _, _ = assess(spans.NULL, files, self.weights, workdir)
        ends = inputs.zone_ends(assessment)
        self.source = files.spec
        rng = random.Random(f"rsu-messages-{self.seed}")
        location = _location(rng)
        self.messages = []
        self.prefix_segments = []
        for n, target in enumerate(inputs.rsu_zone_targets(self.seed)):
            segments = ends[min(target, len(ends)) - 1]
            self.prefix_segments.append(segments)
            prefix = replace(
                assessment,
                length_km=segments * inputs.SEGMENT_M / 1000.0,
                segments=assessment.segments[:segments],
            )
            self.messages.append(
                ivim.build_ivim(
                    prefix,
                    station_id=STATION_ID,
                    timestamp_ms=BASE_TIMESTAMP_MS,
                    validity_duration_s=VALIDITY_S,
                    ivi_identification=n + 1,
                    location=location,
                )
            )
        self.receiver = _Receiver()
        self._reset_stats()
        self._session(spans.NULL, self.messages[0], 0, 3)
        self._reset_stats()

    def _reset_stats(self) -> None:
        self.slips_ms: list[float] = []
        self.sent = self.received = 0

    def teardown(self) -> None:
        receiver = getattr(self, "receiver", None)
        if receiver is not None:
            receiver.close()
            self.receiver = None

    def input_stats(self) -> dict:
        zones = [len(m.av.zones) for m in self.messages]
        return {
            "messages": len(self.messages),
            "segments": max(self.prefix_segments),
            "overlays": len(self.source.overlays),
            "emissions_per_session": self.EMISSIONS,
            **inputs.zone_stats(zones),
        }

    def step(self, rec, i: int) -> Outcome:
        return self._session(rec, self.messages[i % len(self.messages)], i + 1, self.EMISSIONS)

    def _session(self, rec, message, session: int, count: int) -> Outcome:
        out = Outcome(attempted=count)
        base = BASE_TIMESTAMP_MS + session * 10_000_000
        period_ms = int(round(self.PERIOD_S * 1000))
        config = rsu.BroadcastConfig(
            period_s=self.PERIOD_S, count=count, target=self.receiver.address, base_timestamp_ms=base
        )
        first = len(self.receiver.received)
        rec.op = session
        try:
            with rec.span("op", ops=count), rsu_spans(rec):
                with rec.span("rsu.run_broadcast", zones=len(message.av.zones)) as span:
                    start = perf_counter()
                    emitted = rsu.run_broadcast(message, config)
                    span.note("emissions", emitted)
        except Exception as exc:  # one failed session must not end the run
            out.failed, out.errors = count, [_error(exc)]
            return out
        self.receiver.wait_for(first + count + 1, timeout=2.0)
        datagrams = self.receiver.received[first:]
        self.sent += emitted + 1
        self.received += len(datagrams)

        bad: set[int] = set()
        seen: dict[int, float] = {}
        arrival_order: list[int] = []
        for arrival, data in datagrams:
            try:
                with rec.span("ivim.decode"):
                    got = ivim.decode(data)
            except Exception as exc:  # a datagram that does not decode is a failed emission
                out.errors.append(_error(exc))
                continue
            offset = got.management.timestamp_ms - base
            i = offset // period_ms
            if offset % period_ms or not 0 <= i <= count or i in seen:
                out.errors.append(f"session {session}: unexpected timestamp offset {offset} ms")
                continue
            seen[i] = arrival
            arrival_order.append(i)
            status = (
                ivim.IviStatus.CANCELLATION if i == count else ivim.IviStatus.UPDATE if i else ivim.IviStatus.NEW
            )
            if got != ivim.with_management(message, timestamp_ms=base + i * period_ms, ivi_status=status):
                bad.add(min(i, count - 1))
                out.errors.append(f"session {session} emission {i}: content or status differs")
        if arrival_order != sorted(arrival_order):
            out.errors.append(f"session {session}: datagrams out of order")
            bad.add(count - 1)
        for i in range(count + 1):
            if i not in seen:
                bad.add(min(i, count - 1))
                out.errors.append(f"session {session} emission {i}: not received")
        if emitted != count:
            out.errors.append(f"session {session}: run_broadcast reported {emitted} emissions, not {count}")
            bad.add(count - 1)
        out.failed = len(bad)
        out.latencies_ms = [
            (seen[i] - (start + i * self.PERIOD_S)) * 1000.0 for i in range(count) if i in seen and i not in bad
        ]
        self.slips_ms += [
            (seen[i + 1] - seen[i] - self.PERIOD_S) * 1000.0 for i in range(count - 1) if i in seen and i + 1 in seen
        ]
        return out

    def finish(self, rec) -> dict:
        return {
            "slip_ms_per_cycle": statistics.median(self.slips_ms) if self.slips_ms else 0.0,
            "received_ratio": self.received / self.sent if self.sent else 0.0,
        }


@contextmanager
def rsu_spans(rec):
    """In a traced step, record the ``with_management`` and ``encode`` calls
    that ``run_broadcast`` makes as spans, by wrapping them in ``hri.rsu``."""
    if not rec.active:
        yield
        return
    originals = (rsu.with_management, rsu.encode)
    with_management, encode = originals

    def traced_with_management(*args, **kwargs):
        with rec.span("ivim.with_management"):
            return with_management(*args, **kwargs)

    def traced_encode(msg):
        with rec.span("ivim.encode") as span:
            payload = encode(msg)
            span.note("wire_bytes", len(payload))
            return payload

    rsu.with_management, rsu.encode = traced_with_management, traced_encode
    try:
        yield
    finally:
        rsu.with_management, rsu.encode = originals


class CliChain(Workload):
    """Closed loop of sequential processes: ``hri score``, ``hri ivim build``,
    ``hri ivim encode`` on the bundled fixture with both overlays."""

    name = "cli-chain"
    runs_in_children = True

    def setup(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        names = (fixtures.BASELINE_CORRIDOR_FILE, fixtures.ROADWORKS_OVERLAY_FILE, fixtures.MAINTENANCE_OVERLAY_FILE)
        for name in names:
            shutil.copyfile(fixtures.fixture_path(name), workdir / name)
        corridor_csv, roadworks, maintenance = (workdir / name for name in names)
        rng = random.Random(f"cli-{self.seed}")
        self.timestamp = BASE_TIMESTAMP_MS + rng.randrange(10**9)
        self.station_id = rng.randint(1, 0xFFFF)
        self.out = {key: workdir / f"out.{key}" for key in ("scores.csv", "scores.json", "ivim.txt", "ivim")}

        profile = corridor.load_corridor(corridor_csv)
        for path in (roadworks, maintenance):
            profile = corridor.apply_overlay(profile, corridor.load_overlay(path))
        assessment = scoring.score_corridor(profile, self.weights)
        expected_json = workdir / "expected.scores.json"
        expected_json.write_text(scoring.dump_score_profile_json(assessment), encoding="utf-8")
        message = ivim.build_ivim(
            scoring.load_score_profile_json(expected_json),
            station_id=self.station_id,
            timestamp_ms=self.timestamp,
            validity_duration_s=VALIDITY_S,
        )
        text = ivim.to_canonical_text(message)
        self.expected = {
            "scores.csv": scoring.dump_score_profile_csv(assessment).encode("utf-8"),
            "scores.json": expected_json.read_bytes(),
            "ivim.txt": text.encode("utf-8"),
            "ivim": ivim.encode(ivim.from_canonical_text(text)),
        }
        self.zones = len(message.av.zones)
        self.segments = len(assessment.segments)
        self.commands = [
            ("cli.score", ["score", str(corridor_csv), "--overlay", str(roadworks), "--overlay", str(maintenance),
                           "--out-csv", str(self.out["scores.csv"]), "--out-json", str(self.out["scores.json"])]),
            ("cli.ivim_build", ["ivim", "build", str(self.out["scores.json"]), "--station-id", str(self.station_id),
                                "--timestamp", str(self.timestamp), "--out", str(self.out["ivim.txt"])]),
            ("cli.ivim_encode", ["ivim", "encode", str(self.out["ivim.txt"]), "--out", str(self.out["ivim"])]),
        ]
        self.step(spans.NULL, 0)

    def input_stats(self) -> dict:
        return {"corridors": 1, "segments": self.segments, "overlays": 2, **inputs.zone_stats([self.zones])}

    def step(self, rec, i: int) -> Outcome:
        out = Outcome(attempted=1)
        for path in self.out.values():
            path.unlink(missing_ok=True)
        rec.op = i
        with rec.span("op", ops=1):
            start = perf_counter()
            for name, args in self.commands:
                with rec.span(name) as span:
                    proc = run_python(self.root, ["-c", CLI_ENTRY, *args])
                    if name == "cli.ivim_build":
                        span.note("zones", self.zones)
                    elif name == "cli.ivim_encode" and self.out["ivim"].exists():
                        span.note("wire_bytes", self.out["ivim"].stat().st_size)
                if proc.returncode != 0:
                    out.failed = 1
                    out.errors.append(f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
                    return out
            elapsed = perf_counter() - start
        out.latencies_ms.append(elapsed * 1000.0)
        for key, path in self.out.items():
            if path.read_bytes() != self.expected[key]:
                out.errors.append(f"{key}: CLI output differs from the in-process result")
        out.failed = int(bool(out.errors))
        return out

    def finish(self, rec) -> dict:
        """Import cost of ``hri.cli`` over a bare interpreter start (traced run only)."""
        if not rec.active:
            return {}
        rec.op = -1
        for _ in range(5):
            with rec.span("cli.bare_start"):
                run_python(self.root, ["-c", "pass"])
            with rec.span("cli.import_start"):
                run_python(self.root, ["-c", "import hri.cli"])
        return {}



def run_python(root: Path, args: list[str]) -> subprocess.CompletedProcess:
    """Run the interpreter on ``args`` with ``hri`` importable from ``src``."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


WORKLOADS = {cls.name: cls for cls in (NetworkAssess, LongCorridor, RsuBroadcast, CliChain)}
