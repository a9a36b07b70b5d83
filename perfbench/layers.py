"""Per-layer metrics computed from recorded spans and counters.

Unless its name says otherwise, a ``_ms`` metric is the median over traced
retrievals of that layer's total time in one retrieval (both data centres
included). ``keystore.otp_apply_ms`` and ``keystore.reserve_ms`` are per
call, ``cube.*`` and ``keystore.provision_ms`` per event, and ``qkd.*`` per
distillation. Counts ``_per_retrieval`` are totals divided by traced
retrievals. A layer that does not run on a workload reads 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import NamedTuple

#: (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    ("cube.build_ms", "ms", "lower"),
    ("cube.load_ms", "ms", "lower"),
    ("protocol.answer_ms", "ms", "lower"),
    ("protocol.query_ms", "ms", "lower"),
    ("masking.derive_ms", "ms", "lower"),
    ("masking.mask_ms", "ms", "lower"),
    ("masking.serialize_ms", "ms", "lower"),
    ("masking.deserialize_ms", "ms", "lower"),
    ("masking.unmask_ms", "ms", "lower"),
    ("bitops.take_bits_calls_per_retrieval.masking", "count", "lower"),
    ("bitops.take_bits_calls_per_retrieval.keystore", "count", "lower"),
    ("bitops.take_bits_bytes_per_retrieval.masking", "B", "lower"),
    ("bitops.take_bits_bytes_per_retrieval.keystore", "B", "lower"),
    ("keystore.otp_apply_ms", "ms", "lower"),
    ("keystore.reserve_ms", "ms", "lower"),
    ("keystore.provision_ms", "ms", "lower"),
    ("keystore.reservations_per_retrieval", "count", "lower"),
    ("keystore.applies_per_retrieval", "count", "lower"),
    ("keystore.releases_per_retrieval", "count", "lower"),
    ("keystore.ledger_bytes_per_retrieval", "B", "lower"),
    ("keystore.applied_over_reserved.user_dc", "ratio", "higher"),
    ("keystore.applied_over_reserved.dc_pair", "ratio", "higher"),
    ("netsvc.client.retrieve_self_ms", "ms", "lower"),
    ("netsvc.daemon.provision_ms", "ms", "lower"),
    ("netsvc.daemon.query_ms", "ms", "lower"),
    ("netsvc.daemon.self_ms", "ms", "lower"),
    ("netsvc.network.request_self_ms", "ms", "lower"),
    ("netsvc.network.monitor_events_per_retrieval", "count", "lower"),
    ("netsvc.network.alarms", "count", "lower"),
    ("netsvc.tcp.request_ms", "ms", "lower"),
    ("netsvc.tcp.wait_ms", "ms", "lower"),
    ("netsvc.tcp.connections_per_retrieval", "count", "lower"),
    ("netsvc.frames.wire_bytes_per_retrieval", "B", "lower"),
    ("qkd.channel.tallies_ms", "ms", "lower"),
    ("qkd.decoy.bounds_ms", "ms", "lower"),
    ("qkd.toeplitz.hash_ms", "ms", "lower"),
    ("qkd.distill.self_ms", "ms", "lower"),
    ("qkd.distill.key_bits_per_input_bit", "ratio", "higher"),
    ("trace.retrieval_p50_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
    ("trace.layer_coverage_fraction", "ratio", "higher"),
    ("trace.unaccounted_ms", "ms", "lower"),
)

#: Per-retrieval layer times that partition a retrieval's traced time.
_ADDITIVE = (
    "protocol.answer",
    "protocol.query",
    "masking.derive",
    "masking.mask",
    "masking.serialize",
    "masking.deserialize",
    "masking.unmask",
    "keystore.otp_apply",
    "keystore.reserve",
    "keystore.release",
    "client.self",
    "daemon.self",
    "network.self",
    "tcp.wait",
)

_NS_PER_MS = 1e6


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


class Row(NamedTuple):
    name: str
    duration_ns: int
    self_ns: int
    key: tuple | None
    info: dict | None
    party: str
    parent_name: str | None


class SpanSet:
    """Spans and counters from the benchmark process and its daemons."""

    def __init__(self):
        self.rows: list[Row] = []
        self.counts: dict[tuple[str, object], float] = defaultdict(float)

    def add_export(self, export: dict, party: str) -> None:
        spans = export["spans"]
        child = [0] * len(spans)
        for name, start, end, parent, _key, _info in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, key, info) in enumerate(spans):
            duration = end - start
            self.rows.append(Row(
                name,
                duration,
                duration - child[i],
                tuple(key) if key is not None else None,
                info,
                party,
                spans[parent][0] if parent >= 0 else None,
            ))
        for name, key, value in export["counts"]:
            self.counts[(name, tuple(key) if key is not None else None)] += (
                value
            )

    def _rekey(self):
        """Map daemon-side session ids to the retrieval that sent them."""
        by_sid = {
            row.info["sid"]: row.key
            for row in self.rows
            if row.name == "netsvc.tcp.request"
        }

        def resolve(key):
            if key is not None and key[0] == "s":
                return by_sid.get(key[1])
            return key

        rows = [row._replace(key=resolve(row.key)) for row in self.rows]
        counts: dict = defaultdict(float)
        for (name, key), value in self.counts.items():
            counts[(name, resolve(key))] += value
        handled = {
            (row.party, row.key[1], row.name.rsplit(".", 1)[1]):
                row.duration_ns
            for row in self.rows
            if row.name.startswith("netsvc.daemon.")
            and row.key is not None
            and row.key[0] == "s"
        }
        return rows, counts, handled

    def metrics(self) -> dict[str, float]:
        """Every span- and counter-derived per-layer metric."""
        rows, counts, handled = self._rekey()
        per_ret: dict[tuple, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        per_distill: dict[tuple, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        per_call: dict[str, list[float]] = defaultdict(list)
        ratio_in_out: list[float] = []
        n_calls: dict[str, int] = defaultdict(int)
        key_bits: dict[tuple[str, str], int] = defaultdict(int)

        for name, d, s, key, info, _party, parent_name in rows:
            ms, self_ms = d / _NS_PER_MS, s / _NS_PER_MS
            if name in ("cube.build", "cube.load"):
                per_call[name].append(ms)
                continue
            if name == "keystore.provision":
                # KeyPool.load wraps KeyPool.__init__: count the outer span.
                if parent_name != name:
                    per_call[name].append(ms)
                continue
            if key is None:
                continue
            if key[0] == "d":
                slot = per_distill[key]
                slot[name] += ms if name != "qkd.distill" else self_ms
                if name == "qkd.toeplitz.hash" and info["in_bits"]:
                    ratio_in_out.append(info["out_bits"] / info["in_bits"])
                continue
            if key[0] != "r":
                continue
            slot = per_ret[key]
            if name == "netsvc.client.retrieve":
                slot["retrieval"] += ms
                slot["client.self"] += self_ms
            elif name.startswith("netsvc.daemon."):
                slot[name] += ms
                slot["daemon.self"] += self_ms
            elif name == "netsvc.network.request":
                slot["network.self"] += self_ms
            elif name == "netsvc.tcp.request":
                slot["tcp.request"] += ms
                served = handled.get((info["link"], info["sid"], info["kind"]))
                slot["tcp.wait"] += ms - (served or 0) / _NS_PER_MS
                n_calls["tcp"] += 1
            else:
                slot[name] += ms
                if name.startswith("keystore."):
                    per_call[name].append(ms)
                    n_calls[name] += 1
                if name in ("keystore.reserve", "keystore.otp_apply"):
                    pair = info["pool"] == "dc-pair"
                    link = "dc_pair" if pair else "user_dc"
                    key_bits[(name, link)] += info["bits"]

        retrievals = [k for k, v in per_ret.items() if "retrieval" in v]
        n_ret = len(retrievals)

        def per_retrieval(field: str) -> float:
            return _median(per_ret[k][field] for k in retrievals)

        def count_per_retrieval(name: str) -> float:
            if not n_ret:
                return 0.0
            total = sum(
                v for (n, key), v in counts.items()
                if n == name and key in per_ret
            )
            return total / n_ret

        out = {
            "cube.build_ms": _median(per_call["cube.build"]),
            "cube.load_ms": _median(per_call["cube.load"]),
            "protocol.answer_ms": per_retrieval("protocol.answer"),
            "protocol.query_ms": per_retrieval("protocol.query"),
            "masking.derive_ms": per_retrieval("masking.derive"),
            "masking.mask_ms": per_retrieval("masking.mask"),
            "masking.serialize_ms": per_retrieval("masking.serialize"),
            "masking.deserialize_ms": per_retrieval("masking.deserialize"),
            "masking.unmask_ms": per_retrieval("masking.unmask"),
            "keystore.otp_apply_ms": _median(per_call["keystore.otp_apply"]),
            "keystore.reserve_ms": _median(per_call["keystore.reserve"]),
            "keystore.provision_ms": _median(per_call["keystore.provision"]),
            "netsvc.client.retrieve_self_ms": per_retrieval("client.self"),
            "netsvc.daemon.provision_ms": per_retrieval(
                "netsvc.daemon.provision"
            ),
            "netsvc.daemon.query_ms": per_retrieval("netsvc.daemon.query"),
            "netsvc.daemon.self_ms": per_retrieval("daemon.self"),
            "netsvc.network.request_self_ms": per_retrieval("network.self"),
            "netsvc.tcp.request_ms": per_retrieval("tcp.request"),
            "netsvc.tcp.wait_ms": per_retrieval("tcp.wait"),
            "netsvc.frames.wire_bytes_per_retrieval": count_per_retrieval(
                "netsvc.frames.wire_bytes"
            ),
            "qkd.channel.tallies_ms": _median(
                v["qkd.channel.tallies"] for v in per_distill.values()
            ),
            "qkd.decoy.bounds_ms": _median(
                v["qkd.decoy.bounds"] for v in per_distill.values()
            ),
            "qkd.toeplitz.hash_ms": _median(
                v["qkd.toeplitz.hash"] for v in per_distill.values()
            ),
            "qkd.distill.self_ms": _median(
                v["qkd.distill"] for v in per_distill.values()
            ),
            "qkd.distill.key_bits_per_input_bit": _median(ratio_in_out),
        }
        for caller in ("masking", "keystore"):
            out[f"bitops.take_bits_calls_per_retrieval.{caller}"] = (
                count_per_retrieval(f"bitops.take_bits.{caller}.calls")
            )
            out[f"bitops.take_bits_bytes_per_retrieval.{caller}"] = (
                count_per_retrieval(f"bitops.take_bits.{caller}.bytes")
            )
        for metric, span in (
            ("keystore.reservations_per_retrieval", "keystore.reserve"),
            ("keystore.applies_per_retrieval", "keystore.otp_apply"),
            ("keystore.releases_per_retrieval", "keystore.release"),
            ("netsvc.tcp.connections_per_retrieval", "tcp"),
        ):
            out[metric] = n_calls[span] / n_ret if n_ret else 0.0
        for link in ("user_dc", "dc_pair"):
            reserved = key_bits[("keystore.reserve", link)]
            out[f"keystore.applied_over_reserved.{link}"] = (
                key_bits[("keystore.otp_apply", link)] / reserved
                if reserved else 0.0
            )

        traced_p50 = per_retrieval("retrieval")
        covered = sum(per_retrieval(field) for field in _ADDITIVE)
        out["trace.retrieval_p50_ms"] = traced_p50
        out["trace.layer_coverage_fraction"] = (
            covered / traced_p50 if traced_p50 else 0.0
        )
        out["trace.unaccounted_ms"] = traced_p50 - covered if n_ret else 0.0
        out["traced_retrievals"] = n_ret
        return out

