"""Socket transport speaking the same frames as the in-process network.

One request per connection: the client opens a connection, writes one
frame, reads reply frames until the server closes. The daemon object is
shared across connections, so sessions span requests naturally.
"""

from __future__ import annotations

import socket
import socketserver
import threading

from ..errors import FramingError
from .daemon import DataCentreDaemon
from .frames import HEADER_LEN, Frame, decode_header, encode_frame


_RECV_CHUNK = 1 << 16  # bytes asked of one recv call


def _recv_exact(sock: socket.socket, count: int) -> bytes | None:
    """Read ``count`` bytes; fewer only at EOF, None if EOF came first.

    The buffer grows with the bytes that arrive, not with ``count``, so a
    peer that claims a huge length costs only what it actually sends.
    """
    buf = bytearray()
    while len(buf) < count:
        chunk = sock.recv(min(count - len(buf), _RECV_CHUNK))
        if not chunk:
            return bytes(buf) if buf else None
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> Frame | None:
    """Read one frame off a stream; None on clean EOF.

    The header is checked before any payload is read.
    """
    header = _recv_exact(sock, HEADER_LEN)
    if header is None:
        return None
    if len(header) < HEADER_LEN:
        raise FramingError("connection closed mid-header")
    kind, session_id, payload_len = decode_header(header)
    payload = b""
    if payload_len:
        payload = _recv_exact(sock, payload_len)
        if payload is None or len(payload) < payload_len:
            raise FramingError("connection closed mid-payload")
    return Frame(msg_type=kind, session_id=session_id, payload=payload)


class DaemonServer(socketserver.ThreadingTCPServer):
    """Serves one data-centre daemon over TCP."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], daemon: DataCentreDaemon):
        self.dc_daemon = daemon
        super().__init__(address, _DaemonHandler)

    def serve_in_background(self) -> threading.Thread:
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


class _DaemonHandler(socketserver.BaseRequestHandler):
    def handle(self):
        try:
            frame = read_frame(self.request)
        except FramingError:
            return  # a malformed frame gets no reply; the connection closes
        if frame is None:
            return
        replies = self.server.dc_daemon.handle_frame(frame, "user")
        for reply in replies:
            self.request.sendall(encode_frame(reply))


def tcp_transport(host: str, port: int):
    """A client-side request function for one daemon endpoint."""

    def request(frame: Frame) -> list[Frame]:
        with socket.create_connection((host, port)) as sock:
            sock.sendall(encode_frame(frame))
            sock.shutdown(socket.SHUT_WR)
            replies = []
            while True:
                reply = read_frame(sock)
                if reply is None:
                    return replies
                replies.append(reply)

    return request
