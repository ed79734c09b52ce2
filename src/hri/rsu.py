"""Periodic roadside-unit broadcast simulator.

Re-emits one message every period with a fresh management timestamp:
``new`` on the first emission, ``update`` afterwards, and a final
``cancellation`` when the loop ends (count reached or stop requested).
Datagrams go to a UDP target, or as hex lines to a writer in dry-run mode.
Transient send failures are logged and do not stop the loop.
"""

from __future__ import annotations

import socket
import threading
from dataclasses import dataclass
from typing import IO

from ._util import now_ms
from .errors import ValidationError
from .ivim import IviStatus, IvimMessage, encode, with_management


@dataclass(frozen=True)
class BroadcastConfig:
    """Emission cadence and transport; ``target=None`` means dry-run."""

    period_s: float = 1.0
    count: int | None = None
    target: tuple[str, int] | None = None
    bind: tuple[str, int] | None = None
    base_timestamp_ms: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.period_s <= threading.TIMEOUT_MAX:  # NaN included; a longer wait overflows
            raise ValidationError(
                f"broadcast period must be positive and at most {threading.TIMEOUT_MAX:g} s, got {self.period_s}"
            )
        if self.period_s < 0.001:  # emission i is stamped base + i * period in whole milliseconds
            raise ValidationError(f"broadcast period must be at least 0.001 s, got {self.period_s}")
        if self.count is not None and self.count < 1:
            raise ValidationError(f"broadcast count must be at least 1, got {self.count}")


def run_broadcast(
    message: IvimMessage,
    config: BroadcastConfig,
    *,
    stop: threading.Event | None = None,
    out: IO[str] | None = None,
) -> int:
    """Run the emission loop; returns the number of regular emissions.

    With ``base_timestamp_ms`` set, emission i is stamped base + i * period
    (in ms) so runs are reproducible; otherwise the wall clock is used.
    """
    stop = stop if stop is not None else threading.Event()
    period_ms = int(round(config.period_s * 1000.0))

    sock: socket.socket | None = None
    if config.target is not None:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        if config.bind is not None:
            sock.bind(config.bind)

    def emit(i: int, status: IviStatus) -> None:
        """Send emission ``i``, stamped and encoded with ``status``."""
        timestamp_ms = now_ms() if config.base_timestamp_ms is None else config.base_timestamp_ms + i * period_ms
        payload = encode(with_management(message, timestamp_ms=timestamp_ms, ivi_status=status))
        if sock is not None:
            try:
                sock.sendto(payload, config.target)
            except OSError as exc:
                import logging  # here, so that importing hri.rsu does not load logging

                logging.getLogger("hri.rsu").warning("send to %s failed: %s", config.target, exc)
        if out is not None:
            out.write(payload.hex() + "\n")
            out.flush()

    emissions = 0
    try:
        while not stop.is_set():
            emit(emissions, IviStatus.NEW if emissions == 0 else IviStatus.UPDATE)
            emissions += 1
            if config.count is not None and emissions >= config.count:
                break
            if stop.wait(config.period_s):
                break
        emit(emissions, IviStatus.CANCELLATION)
    finally:
        if sock is not None:
            sock.close()
    return emissions
