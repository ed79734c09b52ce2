from __future__ import annotations

import io
import logging
import math
import os
import socket
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import hri
from hri.errors import ValidationError
from hri.ivim import IviStatus, decode
from hri.rsu import BroadcastConfig, run_broadcast

from test_ivim import one_zone_message

BASE_TS = 1_700_000_000_000


def hex_lines(buffer: io.StringIO) -> list[str]:
    return [line for line in buffer.getvalue().split("\n") if line]


class TestBroadcast:
    def test_dry_run_statuses_and_timestamps(self):
        out = io.StringIO()
        emitted = run_broadcast(
            one_zone_message(),
            BroadcastConfig(period_s=0.01, count=3, base_timestamp_ms=BASE_TS),
            out=out,
        )
        assert emitted == 3
        messages = [decode(bytes.fromhex(line)) for line in hex_lines(out)]
        assert [m.management.ivi_status for m in messages] == [
            IviStatus.NEW,
            IviStatus.UPDATE,
            IviStatus.UPDATE,
            IviStatus.CANCELLATION,
        ]
        assert [m.management.timestamp_ms for m in messages] == [
            BASE_TS,
            BASE_TS + 10,
            BASE_TS + 20,
            BASE_TS + 30,
        ]

    def test_payloads_differ_only_in_management_stamp(self):
        out = io.StringIO()
        run_broadcast(
            one_zone_message(),
            BroadcastConfig(period_s=0.01, count=2, base_timestamp_ms=BASE_TS),
            out=out,
        )
        payloads = [bytearray(bytes.fromhex(line)) for line in hex_lines(out)]
        for payload in payloads:
            payload[13:21] = b"\x00" * 8  # timestamp
            payload[25] = 0  # status
        assert payloads[0] == payloads[1] == payloads[2]

    def test_stop_event_triggers_cancellation(self):
        out = io.StringIO()
        stop = threading.Event()

        timer = threading.Timer(0.05, stop.set)
        timer.start()
        try:
            emitted = run_broadcast(
                one_zone_message(),
                BroadcastConfig(period_s=30.0, base_timestamp_ms=BASE_TS),
                stop=stop,
                out=out,
            )
        finally:
            timer.cancel()
        assert emitted == 1  # stopped during the first wait
        messages = [decode(bytes.fromhex(line)) for line in hex_lines(out)]
        assert messages[-1].management.ivi_status is IviStatus.CANCELLATION

    def test_udp_target_receives_datagrams(self):
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5.0)
        port = receiver.getsockname()[1]
        try:
            emitted = run_broadcast(
                one_zone_message(),
                BroadcastConfig(
                    period_s=0.01,
                    count=2,
                    target=("127.0.0.1", port),
                    base_timestamp_ms=BASE_TS,
                ),
            )
            statuses = []
            for _ in range(emitted + 1):
                data, _ = receiver.recvfrom(65535)
                statuses.append(decode(data).management.ivi_status)
        finally:
            receiver.close()
        assert statuses == [IviStatus.NEW, IviStatus.UPDATE, IviStatus.CANCELLATION]

    def test_bound_sender_sends_from_its_address_and_closes(self, monkeypatch):
        opened = []

        class Recorded(socket.socket):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                opened.append(self)

        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        probe.bind(("127.0.0.1", 0))
        bind = probe.getsockname()  # a free loopback port, released for the sender
        probe.close()
        receiver = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        receiver.bind(("127.0.0.1", 0))
        receiver.settimeout(5.0)
        config = BroadcastConfig(
            period_s=0.01, count=1, target=receiver.getsockname(), bind=bind, base_timestamp_ms=BASE_TS
        )
        try:
            monkeypatch.setattr(socket, "socket", Recorded)
            assert run_broadcast(one_zone_message(), config) == 1
            monkeypatch.undo()
            received = [receiver.recvfrom(65535) for _ in range(2)]
        finally:
            receiver.close()
        assert [(decode(data).management.ivi_status, sender) for data, sender in received] == [
            (IviStatus.NEW, bind),
            (IviStatus.CANCELLATION, bind),
        ]
        assert len(opened) == 1 and all(sock.fileno() == -1 for sock in opened)

    def test_failed_send_is_logged_and_the_loop_goes_on(self, caplog):
        # port 0 is no destination: each sendto raises OSError (EINVAL)
        out = io.StringIO()
        config = BroadcastConfig(period_s=0.01, count=2, target=("127.0.0.1", 0), base_timestamp_ms=BASE_TS)
        with caplog.at_level(logging.WARNING, logger="hri.rsu"):
            emitted = run_broadcast(one_zone_message(), config, out=out)
        assert emitted == 2
        assert [decode(bytes.fromhex(line)).management.ivi_status for line in hex_lines(out)] == [
            IviStatus.NEW,
            IviStatus.UPDATE,
            IviStatus.CANCELLATION,
        ]
        records = [(record.name, record.levelno, record.getMessage()) for record in caplog.records]
        assert len(records) == 3
        for name, level, message in records:
            assert (name, level) == ("hri.rsu", logging.WARNING)
            assert message.startswith("send to ('127.0.0.1', 0) failed: ")

    def test_wall_clock_when_no_base_timestamp(self):
        out = io.StringIO()
        run_broadcast(
            one_zone_message(),
            BroadcastConfig(period_s=0.01, count=1),
            out=out,
        )
        messages = [decode(bytes.fromhex(line)) for line in hex_lines(out)]
        assert messages[0].management.timestamp_ms > 1_600_000_000_000

    def test_rejects_bad_period(self):
        with pytest.raises(ValidationError, match="period"):
            BroadcastConfig(period_s=0.0)

    @pytest.mark.parametrize("period_s", [-1.0, math.nan, math.inf, threading.TIMEOUT_MAX * 2])
    def test_rejects_period_outside_what_a_wait_takes(self, period_s):
        with pytest.raises(ValidationError, match="broadcast period must be positive and at most"):
            BroadcastConfig(period_s=period_s)

    @pytest.mark.parametrize("period_s", [0.0004, 0.000999, 5e-324])
    def test_rejects_sub_millisecond_period(self, period_s):
        # emission i is stamped base + i * round(period_s * 1000) ms: under 0.5 ms every stamp would be equal
        with pytest.raises(ValidationError) as raised:
            BroadcastConfig(period_s=period_s)
        assert str(raised.value) == f"broadcast period must be at least 0.001 s, got {period_s}"

    def test_shortest_period_stamps_each_emission_apart(self):
        out = io.StringIO()
        run_broadcast(one_zone_message(), BroadcastConfig(period_s=0.001, count=3, base_timestamp_ms=BASE_TS), out=out)
        stamps = [decode(bytes.fromhex(line)).management.timestamp_ms for line in hex_lines(out)]
        assert stamps == [BASE_TS, BASE_TS + 1, BASE_TS + 2, BASE_TS + 3]

    def test_accepts_the_longest_wait(self):
        assert BroadcastConfig(period_s=threading.TIMEOUT_MAX).period_s == threading.TIMEOUT_MAX

    def test_rejects_bad_count(self):
        with pytest.raises(ValidationError, match="count"):
            BroadcastConfig(period_s=1.0, count=0)


def test_import_loads_no_logging():
    """``hri.rsu`` imports logging only when a send fails; checked in a fresh interpreter, as pytest loads logging."""
    code = "import sys\nbefore = set(sys.modules)\nimport hri.rsu\nprint(*sorted(set(sys.modules) - before))"
    src = str(Path(hri.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert "hri.rsu" in loaded
    assert "logging" not in loaded
