"""In-process simulated network with a data-centre isolation monitor.

The monitor sits inside the router and sees every frame. User links pass
freely; traffic between the two data centres is permitted only while key
provisioning is open. Once provisioning completes, any data-centre pair
frame raises an alarm and is dropped — the monitor records, it never
throws. The audit log is append-only lines ``<ts> <link> <event>`` with
logical timestamps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import ProtocolError
from .frames import Frame

Handler = Callable[[Frame, str], list[Frame]]


@dataclass(frozen=True)
class AuditEvent:
    timestamp: int
    link: str
    event: str

    def format(self) -> str:
        return f"{self.timestamp} {self.link} {self.event}"


class LinkMonitor:
    """Router-side observer enforcing data-centre non-communication."""

    def __init__(
        self, dc_names: set[str], audit_path: str | None = None
    ):
        self._dc_names = set(dc_names)
        self._audit_path = audit_path
        self._events: list[AuditEvent] = []
        self._clock = 0
        self._provisioning_open = True

    @property
    def events(self) -> tuple[AuditEvent, ...]:
        return tuple(self._events)

    @property
    def alarms(self) -> tuple[AuditEvent, ...]:
        return tuple(e for e in self._events if e.event.startswith("alarm"))

    def _log(self, link: str, event: str) -> None:
        self._clock += 1
        entry = AuditEvent(timestamp=self._clock, link=link, event=event)
        self._events.append(entry)
        if self._audit_path:
            with open(self._audit_path, "a") as fh:
                fh.write(entry.format() + "\n")

    def close_provisioning(self) -> None:
        """Seal the data-centre pair link; only user links remain."""
        self._provisioning_open = False
        self._log("dc<->dc", "provisioning-closed")

    def permit(self, src: str, dst: str, frame_type: str) -> bool:
        """Record the frame and decide whether it may be delivered."""
        link = f"{src}->{dst}"
        inter_dc = src in self._dc_names and dst in self._dc_names
        if not inter_dc:
            self._log(link, f"pass {frame_type}")
            return True
        if self._provisioning_open:
            self._log(link, f"provision-pass {frame_type}")
            return True
        self._log(link, f"alarm-blocked {frame_type}")
        return False


class InProcessNetwork:
    """Synchronous frame router for tests and the built-in demo."""

    def __init__(self, monitor: LinkMonitor):
        self.monitor = monitor
        self._handlers: dict[str, Handler] = {}

    def register(self, name: str, handler: Handler) -> None:
        self._handlers[name] = handler

    def request(self, src: str, dst: str, frame: Frame) -> list[Frame]:
        """Deliver one frame and return the replies, all monitor-checked.

        A blocked frame is silently dropped in the forward direction (the
        sender sees no replies); blocked replies are likewise dropped.
        """
        if dst not in self._handlers:
            raise ProtocolError(f"endpoint {dst!r} is unreachable")
        if not self.monitor.permit(src, dst, frame.msg_type.name):
            return []
        replies = self._handlers[dst](frame, src)
        delivered = []
        for reply in replies:
            if self.monitor.permit(dst, src, reply.msg_type.name):
                delivered.append(reply)
        return delivered
