"""End-to-end pipeline: synthesize records, distil keys, retrieve one file.

Builds an 800-entry database of variable-length records (582-byte
maximum), runs one simulated key distillation per link, provisions the
three pools, brings up both data-centre daemons behind the monitored
in-process network, and retrieves a chosen record. Everything is
deterministic under the seed: two runs produce identical records, pool
files, ledgers, and transcripts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .cube import Database, load_manifest
from .errors import ConfigurationError
from .keystore import KeyStore, PoolReport
from .masking import KeyBudget, required_key_budget
from .netsvc import (
    DataCentreDaemon,
    DataCentreLink,
    Frame,
    InProcessNetwork,
    LinkMonitor,
    MsgType,
    SessionGeometry,
    UserClient,
    new_session_id,
)
from .qkd.channel import ChannelModel, ProtocolParams
from .qkd.distill import distill_session
from .rng import BitSource
from .topology import LINKS, PARTY_LINKS, install_pools, load_party_store

DEMO_ENTRIES = 800
DEMO_MAX_RECORD_BYTES = 582


@dataclass
class DemoReport:
    n: int
    record_bits: int
    m: int
    index: int
    budgets: KeyBudget
    link_lengths: dict[str, int]
    pool_reports: dict[str, PoolReport]
    alarm_count: int
    byte_exact: bool
    record_path: str
    original_path: str
    lines: list[str] = field(default_factory=list)


def synthesize_records(
    workdir: str, seed: BitSource, n: int = DEMO_ENTRIES,
    max_bytes: int = DEMO_MAX_RECORD_BYTES,
) -> str:
    """Write ``n`` random variable-length records plus their manifest.

    Record 0 is pinned at the maximum length so the record field is sized
    by the advertised maximum. Returns the manifest path.
    """
    records_dir = os.path.join(workdir, "records")
    os.makedirs(records_dir, exist_ok=True)
    lines = []
    for i in range(n):
        length = max_bytes if i == 0 else 1 + seed.randrange(max_bytes)
        name = f"rec-{i:05d}.bin"
        with open(os.path.join(records_dir, name), "wb") as fh:
            fh.write(seed.take_bytes(length))
        lines.append(f"{i} {length} {name}")
    manifest_path = os.path.join(records_dir, "manifest.txt")
    with open(manifest_path, "w") as fh:
        fh.write("# <index> <byte-length> <filename>\n")
        fh.write("\n".join(lines) + "\n")
    return manifest_path


def _fresh(path: str) -> str:
    if os.path.exists(path):
        os.remove(path)
    return path


def _distill_material(
    channel: ChannelModel, params: ProtocolParams, seed: str
) -> tuple[bytes, int]:
    key_a, key_b, result = distill_session(channel, params, seed)
    assert key_a.material == key_b.material
    return key_a.material[: key_a.bit_length // 8], result.l


def run_demo(
    workdir: str,
    seed: str = "0",
    index: int = 421,
    channel: ChannelModel | None = None,
    params: ProtocolParams | None = None,
) -> DemoReport:
    channel = channel or ChannelModel()
    params = params or ProtocolParams()
    root = BitSource(seed)
    os.makedirs(workdir, exist_ok=True)
    report_lines: list[str] = []

    def say(line: str) -> None:
        report_lines.append(line)

    # Database.
    manifest_path = synthesize_records(workdir, root.spawn("records"))
    entries, lengths = load_manifest(
        manifest_path, os.path.join(workdir, "records")
    )
    record_bits = 8 * max(lengths)
    cube = Database.from_entries(entries, record_bits)
    cube_path = os.path.join(workdir, "database.qcub")
    cube.save(cube_path)
    n = len(entries)
    geometry = SessionGeometry.for_database(n, record_bits)
    budgets = required_key_budget(n, record_bits)
    say(
        f"database: n={n} records, record field {record_bits} bits "
        f"({max(lengths)}-byte max), cube side m={geometry.m}"
    )
    if not 0 <= index < n:
        raise ConfigurationError(
            f"demo index must be in [0, {n}), got {index}"
        )

    # Key distillation, one session per link.
    pools_dir = os.path.join(workdir, "pools")
    link_lengths: dict[str, int] = {}
    materials: dict[str, bytes] = {}
    for link in LINKS:
        materials[link], link_lengths[link] = _distill_material(
            channel, params, f"{seed}/qkd-{link}"
        )
        say(f"qkd {link}: distilled {link_lengths[link]:,} bits")
    install_pools(pools_dir, materials)

    # Stores, daemons, monitored network.
    ledgers_dir = os.path.join(workdir, "ledgers")
    os.makedirs(ledgers_dir, exist_ok=True)
    stores: dict[str, KeyStore] = {
        party: load_party_store(
            pools_dir, party, _fresh(os.path.join(ledgers_dir, f"{party}.txt"))
        )
        for party in PARTY_LINKS
    }

    monitor = LinkMonitor(
        dc_names={"dc1", "dc2"},
        audit_path=_fresh(os.path.join(workdir, "audit.txt")),
    )
    network = InProcessNetwork(monitor)
    dc1 = DataCentreDaemon("dc1", 1, cube, stores["dc1"], *PARTY_LINKS["dc1"])
    dc2 = DataCentreDaemon("dc2", 2, cube, stores["dc2"], *PARTY_LINKS["dc2"])
    network.register("dc1", dc1.handle_frame)
    network.register("dc2", dc2.handle_frame)

    # Provisioning-phase cross-check, then seal the pair link.
    handshake = Frame(
        MsgType.PROVISION,
        new_session_id(0, root.spawn("handshake")),
        dc1.pair_digest(),
    )
    replies = network.request("dc1", "dc2", handshake)
    if not (replies and replies[0].payload == dc2.pair_digest()):
        raise ConfigurationError("pair pools disagree across data centres")
    monitor.close_provisioning()
    say("provisioning: pair-pool digests match; pair link sealed")

    # Retrieval.
    client = UserClient(
        stores["user"],
        geometry,
        DataCentreLink(
            "dc1", "user-dc1", lambda f: network.request("user", "dc1", f)
        ),
        DataCentreLink(
            "dc2", "user-dc2", lambda f: network.request("user", "dc2", f)
        ),
        rng=root.spawn("client"),
    )
    result = client.retrieve(index, record_length=lengths[index])
    original_path = os.path.join(workdir, "records", f"rec-{index:05d}.bin")
    with open(original_path, "rb") as fh:
        original = fh.read()
    record_path = os.path.join(workdir, f"retrieved-{index:05d}.bin")
    with open(record_path, "wb") as fh:
        fh.write(result.record)
    byte_exact = result.record == original

    say(
        f"session budgets: user-DC {budgets.user_dc_bits:,} bits; "
        f"DC-DC {budgets.dc_dc_bits:,} bits"
    )
    pool_reports: dict[str, PoolReport] = {}
    for party in PARTY_LINKS:
        stores[party].audit_no_reuse()
        for pool in stores[party].pools():
            rep = pool.report()
            pool_reports[f"{party}/{pool.pool_id}"] = rep
            say(
                f"pool {party}/{pool.pool_id}: reserved {rep.reserved_bits:,}"
                f" bits, consumed {rep.consumed_bits:,} bits"
            )
    say(
        f"retrieved index {index} ({len(original)} bytes): "
        f"{'byte-exact match' if byte_exact else 'MISMATCH'}"
    )
    say(f"monitor alarms: {len(monitor.alarms)}")

    return DemoReport(
        n=n,
        record_bits=record_bits,
        m=geometry.m,
        index=index,
        budgets=budgets,
        link_lengths=link_lengths,
        pool_reports=pool_reports,
        alarm_count=len(monitor.alarms),
        byte_exact=byte_exact,
        record_path=record_path,
        original_path=original_path,
        lines=report_lines,
    )
