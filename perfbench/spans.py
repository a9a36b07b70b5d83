"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``. It times layers by replacing the public
functions each caller resolves (a module attribute such as
``qspir.netsvc.daemon.compute_answer_bundle``, or a method on a public
class) with a wrapper that records a span: name, start, end, parent span
and a key. A span's key is inherited from its parent; a root span gets its
own key: ``("r", n)`` for the n-th client retrieval, ``("d", n)`` for the
n-th distillation and ``("s", <session id hex>)`` for a frame handled by a
daemon running in another process. Spans stay in memory until the run ends.

``Patches`` also serves the benchmark's own tests, which inject faults
through the same mechanism.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict


class Span:
    __slots__ = ("name", "start", "end", "parent", "key", "info")

    def __init__(self, name, parent, key, info):
        self.name = name
        self.parent = parent
        self.key = key
        self.info = info
        self.start = 0
        self.end = 0


class Patches:
    """Replaced attributes, restored in reverse order by :meth:`undo`."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, make) -> None:
        """Set ``owner.attr = make(current function)``.

        Class attributes are read from the class ``__dict__`` so that a
        classmethod stays a classmethod.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(
            owner, attr
        )
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, new)

    def undo(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    """In-memory span and counter store shared by every wrapper."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, object], float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._roots: dict[str, int] = defaultdict(int)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_key(self):
        stack = self._stack()
        return stack[-1].key if stack else None

    def new_root(self, kind: str) -> tuple[str, int]:
        with self._lock:
            n = self._roots[kind]
            self._roots[kind] = n + 1
        return (kind, n)

    def count(self, name: str, value: float) -> None:
        key = self.current_key()
        with self._lock:
            self.counts[(name, key)] += value

    def wrap(self, fn, name, root_key=None, info=None):
        """Return ``fn`` recording one span per call.

        ``name`` may be a function of the call's arguments; ``root_key``
        gives the key when the span has no parent; ``info`` attaches a
        small dict computed from the arguments.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            if parent is not None:
                key = parent.key
            else:
                key = root_key(args) if root_key is not None else None
            span = Span(
                name(args) if callable(name) else name,
                parent,
                key,
                info(args) if info is not None else None,
            )
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                with tracer._lock:
                    tracer.spans.append(span)

        return traced

    def count_calls(self, fn, name: str):
        """Return ``fn`` counting calls and the bytes of its first argument."""
        tracer = self

        @functools.wraps(fn)
        def counted(material, *args, **kwargs):
            key = tracer.current_key()
            with tracer._lock:
                tracer.counts[(name + ".calls", key)] += 1
                tracer.counts[(name + ".bytes", key)] += len(material)
            return fn(material, *args, **kwargs)

        return counted

    # -- export ---------------------------------------------------------------

    def export(self) -> dict:
        """Spans as plain lists with parent indices, plus counters."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        spans = [
            [
                s.name,
                s.start,
                s.end,
                index.get(id(s.parent), -1) if s.parent is not None else -1,
                list(s.key) if s.key is not None else None,
                s.info,
            ]
            for s in self.spans
        ]
        counts = [
            [name, list(key) if key is not None else None, value]
            for (name, key), value in self.counts.items()
        ]
        return {"spans": spans, "counts": counts}

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.export(), fh)


def _frame_kind(args) -> str:
    frame = args[1]
    kind = frame.msg_type.name.lower()
    return f"netsvc.daemon.{kind}"


def _applied_bits(args) -> dict:
    """Pool and pad length of ``KeyStore.otp_apply(data, slice, bits)``."""
    bits = args[3] if len(args) > 3 and args[3] is not None else None
    return {
        "pool": args[2].pool_id,
        "bits": 8 * len(args[1]) if bits is None else bits,
    }


def _frame_root(args):
    return ("s", args[1].session_id.hex())


def install(tracer: Tracer, patches: Patches) -> None:
    """Wrap every layer boundary the benchmark reports on.

    Functions imported by name into a caller's module are wrapped in that
    module, because that is the name the caller resolves at call time.
    """
    cube = importlib.import_module("qspir.cube")
    keystore = importlib.import_module("qspir.keystore")
    masking = importlib.import_module("qspir.masking")
    client = importlib.import_module("qspir.netsvc.client")
    daemon = importlib.import_module("qspir.netsvc.daemon")
    network = importlib.import_module("qspir.netsvc.network")
    distill = importlib.import_module("qspir.qkd.distill")

    def span(name, **kw):
        return lambda fn: tracer.wrap(fn, name, **kw)

    patches.replace(cube.Database, "from_entries", span("cube.build"))
    patches.replace(cube.Database, "load", span("cube.load"))

    for attr in ("sample_user_randomness", "gen_queries", "encode_query"):
        patches.replace(client, attr, span("protocol.query"))
    patches.replace(client, "deserialize_masked_bundle",
                    span("masking.deserialize"))
    patches.replace(client, "unmask_reconstruct", span("masking.unmask"))
    patches.replace(daemon, "decode_query", span("protocol.query"))
    patches.replace(daemon, "compute_answer_bundle", span("protocol.answer"))
    patches.replace(daemon, "derive_mask_set", span("masking.derive"))
    patches.replace(daemon, "mask_bundle", span("masking.mask"))
    patches.replace(daemon, "serialize_masked_bundle",
                    span("masking.serialize"))

    for module, caller in ((masking, "masking"), (keystore, "keystore")):
        patches.replace(
            module,
            "take_bits",
            lambda fn, caller=caller: tracer.count_calls(
                fn, f"bitops.take_bits.{caller}"
            ),
        )

    patches.replace(
        keystore.KeyStore,
        "reserve_at",
        span("keystore.reserve",
             info=lambda args: {"pool": args[1], "bits": args[4]}),
    )
    patches.replace(
        keystore.KeyStore,
        "otp_apply",
        span("keystore.otp_apply", info=_applied_bits),
    )
    patches.replace(keystore.KeyStore, "release", span("keystore.release"))
    patches.replace(keystore.KeyPool, "__init__", span("keystore.provision"))
    patches.replace(keystore.KeyPool, "load", span("keystore.provision"))

    patches.replace(
        client.UserClient,
        "retrieve",
        span("netsvc.client.retrieve",
             root_key=lambda args: tracer.new_root("r")),
    )
    patches.replace(
        daemon.DataCentreDaemon,
        "handle_frame",
        span(_frame_kind, root_key=_frame_root),
    )
    patches.replace(network.InProcessNetwork, "request",
                    span("netsvc.network.request"))

    patches.replace(distill, "simulate_tallies", span("qkd.channel.tallies"))
    patches.replace(distill, "decoy_bounds", span("qkd.decoy.bounds"))
    patches.replace(
        distill,
        "toeplitz_hash",
        span("qkd.toeplitz.hash",
             info=lambda args: {"in_bits": args[1], "out_bits": args[3]}),
    )
    patches.replace(
        distill,
        "distill_session",
        span("qkd.distill", root_key=lambda args: tracer.new_root("d")),
    )


def wrap_transport(tracer: Tracer, request, link: str, tcp: bool):
    """Count wire bytes of one link's frames; over TCP also time them."""
    frames = importlib.import_module("qspir.netsvc.frames")

    def counted(frame):
        replies = request(frame)
        wire = len(frames.encode_frame(frame)) + sum(
            len(frames.encode_frame(r)) for r in replies
        )
        tracer.count("netsvc.frames.wire_bytes", wire)
        return replies

    if not tcp:
        return counted
    return tracer.wrap(
        counted,
        "netsvc.tcp.request",
        info=lambda args: {
            "link": link,
            "sid": args[0].session_id.hex(),
            "kind": args[0].msg_type.name.lower(),
        },
    )
