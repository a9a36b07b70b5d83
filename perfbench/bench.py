"""Workloads, correctness gate and metrics of the qspir benchmark.

Load is one client in one process, in a closed loop: each retrieval starts
after the previous one returned and was verified. Every input (records,
indices, pool material, client randomness, distillation seeds) is drawn
from the ``--seed`` argument; the program only receives the generated
inputs. The program is driven through its public API and, on
``deploy-tcp-n800``, through the unchanged ``qspir serve-dc`` entry point
started by ``launcher.py``.
"""

from __future__ import annotations

import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
import spans
from qspir.cube import Database
from qspir.errors import SpirError
from qspir.keystore import KeyPool, KeyStore
from qspir.masking import required_key_budget
from qspir.netsvc import (
    DataCentreDaemon,
    DataCentreLink,
    Frame,
    InProcessNetwork,
    LinkMonitor,
    MsgType,
    SessionGeometry,
    UserClient,
    new_session_id,
    tcp_transport,
)
from qspir.qkd import distill as qkd_distill
from qspir.qkd.channel import ChannelModel, ProtocolParams
from qspir.rng import BitSource

RECORD_BITS = 4656
RECORD_BYTES = RECORD_BITS // 8
#: Final key bits of one distillation at the default operating point.
PAPER_DISTILLED_BITS = 1_133_926
#: DC-pair sessions one such distillation pays for at the paper's shape.
SESSIONS_PER_KEY = 2
#: Set-ups per untraced run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
DAEMON_START_TIMEOUT_S = 60
DAEMON_STOP_TIMEOUT_S = 20

LAUNCHER = Path(__file__).with_name("launcher.py")

#: (name, unit, better) of every end-to-end metric, in report order.
END_TO_END = (
    ("retrieval_p50_ms", "ms", "lower"),
    ("retrieval_p90_ms", "ms", "lower"),
    ("retrievals_per_s", "1/s", "higher"),
    ("user_dc_key_bits_per_retrieval", "bit", "lower"),
    ("dc_pair_key_bits_per_retrieval", "bit", "lower"),
    ("distill_p50_ms", "ms", "lower"),
    ("distilled_bits_per_s", "bit/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


@dataclass(frozen=True)
class Workload:
    n: int
    pool_sessions: int
    tcp: bool = False
    distill: bool = False


WORKLOADS = {
    "paper-n800": Workload(n=800, pool_sessions=2),
    "large-n125k": Workload(n=125_000, pool_sessions=2),
    "deploy-tcp-n800": Workload(n=800, pool_sessions=128, tcp=True),
    "distill": Workload(n=800, pool_sessions=2, distill=True),
}

_USER_LINKS = ("user-dc1", "user-dc2")
_PARTIES = (
    ("user", _USER_LINKS),
    ("dc1", ("user-dc1", "dc-pair")),
    ("dc2", ("user-dc2", "dc-pair")),
)


class Inputs:
    """Every input of one workload, drawn from the seed alone."""

    def __init__(self, seed: int, workload: str):
        root = np.random.SeedSequence([seed, zlib.crc32(workload.encode())])
        records, indices, pools = root.spawn(3)
        self._records = records
        self._indices = np.random.default_rng(indices)
        self._pools = np.random.default_rng(pools)
        self.label = f"{seed}/{workload}"

    def records(self, n: int) -> np.ndarray:
        """``n`` uniformly random records of RECORD_BYTES bytes."""
        rng = np.random.default_rng(self._records)
        return rng.integers(0, 256, (n, RECORD_BYTES), dtype=np.uint8)

    def indices(self, count: int, n: int) -> list[int]:
        return self._indices.integers(0, n, count).tolist()

    def pool_material(self, bits: int) -> bytes:
        return self._pools.bytes((bits + 7) // 8)


def build_cube(inputs: Inputs, n: int) -> Database:
    entries = [row.tobytes() for row in inputs.records(n)]
    return Database.from_entries(entries, RECORD_BITS)


def user_pool_bits(geom: SessionGeometry, sessions: int) -> int:
    """Smallest user-link pool whose receive half holds ``sessions``."""
    return 2 * sessions * geom.receive_slice_bits


@dataclass
class Tally:
    """Operations attempted and failed, plus what went wrong."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str, operations: int = 1) -> None:
        self.failed += operations
        if len(self.problems) < 20:
            self.problems.append(problem)


@dataclass
class Samples:
    """Timings and counts of one measured phase."""

    retrieval_s: list[float] = field(default_factory=list)
    loop_s: float = 0.0
    verified: int = 0
    supply_s: list[float] = field(default_factory=list)
    supply_bits: list[int] = field(default_factory=list)
    reserved_user_bits: int = 0
    reserved_pair_bits: int = 0
    ledger_bytes: int = 0
    monitor_events: int = 0
    alarms: int = 0
    checked_retrievals: int = 0


class KeySupply:
    """Pair-link key material, one key per ``SESSIONS_PER_KEY`` sessions.

    On ``distill`` a key is one ``distill_session`` (both parties' halves);
    the retrieval workloads never distil, and a seeded generator stands in.
    """

    def __init__(self, workload: Workload, inputs: Inputs,
                 geom: SessionGeometry, tally: Tally):
        self.workload = workload
        self.inputs = inputs
        self.geom = geom
        self.tally = tally
        self.channel = ChannelModel()
        self.params = ProtocolParams()
        self.count = 0

    def pair_material(self, sessions: int, samples: Samples
                      ) -> tuple[bytes, bytes]:
        count = -(-sessions // SESSIONS_PER_KEY)
        keys = [self._key(samples) for _ in range(count)]
        return b"".join(a for a, _ in keys), b"".join(b for _, b in keys)

    def _key(self, samples: Samples) -> tuple[bytes, bytes]:
        label = f"{self.inputs.label}/distill-{self.count}"
        self.count += 1
        if not self.workload.distill:
            bits = SESSIONS_PER_KEY * self.geom.mask_slice_bits
            t0 = time.perf_counter()
            material = self.inputs.pool_material(bits)
            samples.supply_s.append(time.perf_counter() - t0)
            samples.supply_bits.append(bits)
            return material, material
        self.tally.attempted += 1
        t0 = time.perf_counter()
        key_a, key_b, result = qkd_distill.distill_session(
            self.channel, self.params, label
        )
        samples.supply_s.append(time.perf_counter() - t0)
        samples.supply_bits.append(key_a.bit_length)
        if not (
            key_a.material == key_b.material
            and key_a.bit_length == result.l == PAPER_DISTILLED_BITS
            and len(key_a.material) == (PAPER_DISTILLED_BITS + 7) // 8
        ):
            self.tally.fail(
                f"distillation {label}: keys differ or have "
                f"{key_a.bit_length} bits, expected {PAPER_DISTILLED_BITS}"
            )
        return key_a.material, key_b.material


class InProcessRig:
    """Stores, daemons, sealed monitor and client for one pool refill."""

    def __init__(self, env: "Env", pair: tuple[bytes, bytes], refill: int):
        geom, sessions = env.geom, env.workload.pool_sessions
        user = {
            link: env.inputs.pool_material(user_pool_bits(geom, sessions))
            for link in _USER_LINKS
        }
        pair_of = {"dc1": pair[0], "dc2": pair[1]}
        self.stores: dict[str, KeyStore] = {}
        for party, links in _PARTIES:
            store = KeyStore()
            for link in links:
                material = pair_of[party] if link == "dc-pair" else user[link]
                store.add_pool(KeyPool(link, material))
            self.stores[party] = store
        self.monitor = LinkMonitor(dc_names={"dc1", "dc2"})
        network = InProcessNetwork(self.monitor)
        daemons = {
            name: DataCentreDaemon(
                name, role, env.cube, self.stores[name], f"user-{name}",
                "dc-pair",
            )
            for name, role in (("dc1", 1), ("dc2", 2))
        }
        for name, daemon in daemons.items():
            network.register(name, daemon.handle_frame)
        handshake = Frame(
            MsgType.PROVISION,
            new_session_id(0, BitSource(f"{env.inputs.label}/hs-{refill}")),
            daemons["dc1"].pair_digest(),
        )
        replies = network.request("dc1", "dc2", handshake)
        digest = daemons["dc2"].pair_digest()
        if not (replies and replies[0].payload == digest):
            env.tally.fail(f"refill {refill}: pair pools differ")
        self.monitor.close_provisioning()
        self.sealed_events = len(self.monitor.events)

        def link(name: str):
            def request(frame):
                return network.request("user", name, frame)
            if env.tracer is not None:
                request = spans.wrap_transport(
                    env.tracer, request, name, tcp=False
                )
            return DataCentreLink(name, f"user-{name}", request)

        self.client = UserClient(
            self.stores["user"], geom, link("dc1"), link("dc2"),
            rng=BitSource(f"{env.inputs.label}/client-{refill}"),
        )

    def finish(self, env: "Env", retrievals: int, samples: Samples) -> None:
        """Gate this refill's key accounting and monitor, then count it."""
        reserved = {}
        for party, store in self.stores.items():
            try:
                store.audit_no_reuse()
            except SpirError as exc:
                env.tally.fail(f"{party}: {exc}", retrievals)
            for pool in store.pools():
                reserved[(party, pool.pool_id)] = pool.report().reserved_bits
            samples.ledger_bytes += sum(
                len(entry.format()) + 1 for entry in store.entries
            )
        env.check_reserved(reserved, retrievals)
        samples.reserved_user_bits += reserved[("user", "user-dc1")]
        samples.reserved_pair_bits += reserved[("dc1", "dc-pair")]
        samples.monitor_events += len(self.monitor.events) - self.sealed_events
        samples.alarms += len(self.monitor.alarms)
        samples.checked_retrievals += retrievals
        if self.monitor.alarms:
            env.tally.fail(
                f"monitor raised {len(self.monitor.alarms)} alarms", retrievals
            )

    def close(self) -> None:
        pass


class DeployRig:
    """Pool files, two ``serve-dc`` daemons and a TCP client."""

    def __init__(self, env: "Env", pair: tuple[bytes, bytes], refill: int):
        geom, sessions = env.geom, env.workload.pool_sessions
        root = env.workdir / f"deploy-{refill}"
        self.materials = {
            link: env.inputs.pool_material(user_pool_bits(geom, sessions))
            for link in _USER_LINKS
        }
        self.materials["dc-pair"] = pair[0]
        for party, links in _PARTIES:
            (root / "pools" / party).mkdir(parents=True)
            for link in links:
                KeyPool(link, self.materials[link]).save(
                    str(root / "pools" / party / f"{link}.qkey")
                )
        self.ledgers = {
            party: root / f"{party}.ledger" for party, _ in _PARTIES
        }
        self.traces: dict[str, Path] = {}
        self.procs: dict[str, subprocess.Popen] = {}
        ports = {}
        try:
            for name, role in (("dc1", 1), ("dc2", 2)):
                trace_out = ""
                if env.tracer is not None:
                    self.traces[name] = root / f"{name}.spans.json"
                    trace_out = str(self.traces[name])
                self.procs[name] = subprocess.Popen(
                    [
                        sys.executable, str(LAUNCHER), trace_out,
                        "--set", f"net.{name}=127.0.0.1:0",
                        "serve-dc", "--role", str(role),
                        "--database", str(env.cube_path),
                        "--pool-dir", str(root / "pools"),
                        "--ledger", str(self.ledgers[name]),
                    ],
                    stdout=subprocess.PIPE,
                    text=True,
                )
            for name, proc in self.procs.items():
                ports[name] = _await_port(proc, name)
        except BaseException:
            self.close()
            raise
        store = KeyStore(ledger_path=str(self.ledgers["user"]))
        for link in _USER_LINKS:
            store.add_pool(
                KeyPool.load(str(root / "pools" / "user" / f"{link}.qkey"))
            )
        self.stores = {"user": store}

        def link(name: str):
            request = tcp_transport("127.0.0.1", ports[name])
            if env.tracer is not None:
                request = spans.wrap_transport(
                    env.tracer, request, name, tcp=True
                )
            return DataCentreLink(name, f"user-{name}", request)

        self.client = UserClient(
            store, geom, link("dc1"), link("dc2"),
            rng=BitSource(f"{env.inputs.label}/client-{refill}"),
        )

    def close(self) -> None:
        """Stop both daemons (SIGINT ends ``serve-dc`` cleanly); reap them."""
        for proc in self.procs.values():
            if proc.poll() is None:
                proc.send_signal(signal.SIGINT)
        for proc in self.procs.values():
            try:
                proc.wait(timeout=DAEMON_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if proc.stdout is not None:
                proc.stdout.close()

    def finish(self, env: "Env", retrievals: int, samples: Samples) -> None:
        """Stop the daemons, then gate every party's ledger."""
        self.close()
        for name, proc in self.procs.items():
            if proc.returncode != 0:
                env.tally.fail(f"{name} exited with {proc.returncode}")
        reserved = {}
        stores = {"user": self.stores["user"]}
        for party, links in _PARTIES[1:]:
            store = KeyStore()
            try:
                entries = KeyStore.read_ledger(str(self.ledgers[party]))
                for link in links:
                    pool = KeyPool(link, self.materials[link])
                    pool.replay_ledger(entries)
                    store.add_pool(pool)
            except (SpirError, OSError) as exc:
                env.tally.fail(f"{party} ledger: {exc}", retrievals)
                continue
            stores[party] = store
        for party, store in stores.items():
            try:
                store.audit_no_reuse()
            except SpirError as exc:
                env.tally.fail(f"{party}: {exc}", retrievals)
            for pool in store.pools():
                reserved[(party, pool.pool_id)] = pool.report().reserved_bits
        env.check_reserved(reserved, retrievals)
        samples.reserved_user_bits += reserved.get(("user", "user-dc1"), 0)
        samples.reserved_pair_bits += reserved.get(("dc1", "dc-pair"), 0)
        samples.ledger_bytes += sum(
            path.stat().st_size for path in self.ledgers.values()
            if path.exists()
        )
        samples.checked_retrievals += retrievals
        if env.tracer is not None:
            for name, path in self.traces.items():
                if path.exists():
                    env.daemon_exports.append((name, path.read_text()))
                else:
                    env.tally.fail(f"{name} wrote no spans")


def _await_port(proc: subprocess.Popen, name: str) -> int:
    """Port from the daemon's ``... on host:port`` start-up line."""
    ready, _, _ = select.select([proc.stdout], [], [], DAEMON_START_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    if " on " not in line:
        raise RuntimeError(f"{name} did not start: {line!r}")
    return int(line.rsplit(":", 1)[1])


class Env:
    """One set-up of a workload: inputs, cube, key supply and current rig."""

    def __init__(self, name: str, seed: int, workdir: Path, tally: Tally,
                 samples: Samples, tracer: spans.Tracer | None = None):
        self.workload = WORKLOADS[name]
        self.workdir = workdir
        self.tally = tally
        self.tracer = tracer
        self.daemon_exports: list[tuple[str, str]] = []
        workdir.mkdir()
        self.inputs = Inputs(seed, name)
        n = self.workload.n
        self.cube = build_cube(self.inputs, n)
        self.geom = SessionGeometry.for_database(n, RECORD_BITS)
        self.budget = required_key_budget(n, RECORD_BITS)
        self.cube_path = workdir / "database.qcub"
        if self.workload.tcp:
            self.cube.save(str(self.cube_path))
        self.supply = KeySupply(
            self.workload, self.inputs, self.geom, tally
        )
        self.refills = 0
        self.rig = None
        self.used = 0
        self.pending: list[int] = []
        if not self.workload.distill:
            self.refill(samples)

    def refill(self, samples: Samples) -> None:
        """Finish the current rig and provision the next one (untimed)."""
        self.finish(samples)
        pair = self.supply.pair_material(self.workload.pool_sessions, samples)
        rig_type = DeployRig if self.workload.tcp else InProcessRig
        self.rig = rig_type(self, pair, self.refills)
        self.refills += 1
        self.used = 0
        self.pending = self.inputs.indices(
            self.workload.pool_sessions, self.workload.n
        )

    def finish(self, samples: Samples) -> None:
        if self.rig is not None:
            rig, self.rig = self.rig, None
            rig.finish(self, self.used, samples)

    def close(self) -> None:
        if self.rig is not None:
            self.rig.close()
            self.rig = None

    def check_reserved(self, reserved: dict, retrievals: int) -> None:
        """Each link reserved exactly its budget for every retrieval."""
        for (party, pool_id), bits in reserved.items():
            per = (
                self.budget.dc_dc_bits if pool_id == "dc-pair"
                else self.budget.user_dc_bits
            )
            if bits != per * retrievals:
                self.tally.fail(
                    f"{party}/{pool_id}: reserved {bits} bits for "
                    f"{retrievals} retrievals, budget is {per} each",
                    retrievals,
                )

    def retrieve_next(self, samples: Samples) -> None:
        """One timed retrieval of the next index, verified byte for byte."""
        x = self.pending[self.used]
        self.used += 1
        self.tally.attempted += 1
        t0 = time.perf_counter()
        try:
            result = self.rig.client.retrieve(x)
        except Exception as exc:  # every failure is counted, the run goes on
            samples.retrieval_s.append(time.perf_counter() - t0)
            self.tally.fail(f"retrieve({x}): {exc!r}")
            if len(self.tally.problems) == 1:
                traceback.print_exc(file=sys.stderr)
            return
        samples.retrieval_s.append(time.perf_counter() - t0)
        if result.value == self.cube.entry(x):
            samples.verified += 1
        else:
            self.tally.fail(f"retrieve({x}) returned a wrong record")


def measure(env: Env, seconds: float, samples: Samples) -> None:
    """Retrieve (and on ``distill``, distil) until ``seconds`` are timed.

    Refills, index generation and the correctness gate run between timed
    segments; a segment is the run of retrievals one refill pays for.
    """
    timed = 0.0
    while timed < seconds:
        if env.rig is None or env.used == len(env.pending):
            before = sum(samples.supply_s)
            env.refill(samples)
            if env.workload.distill:
                timed += sum(samples.supply_s) - before
        t0 = time.perf_counter()
        while env.used < len(env.pending):
            env.retrieve_next(samples)
            if timed + time.perf_counter() - t0 >= seconds:
                break
        segment = time.perf_counter() - t0
        samples.loop_s += segment
        timed += segment
    env.finish(samples)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


@dataclass
class Report:
    tally: Tally
    metrics: dict[str, tuple[float, str, int]]

    @property
    def correct(self) -> bool:
        return self.tally.failed == 0 and not self.tally.problems


def end_to_end(samples: Samples, setup_s: float) -> dict:
    """name -> (value, unit, sample count) for every end-to-end metric."""
    lat = samples.retrieval_s
    checked = max(samples.checked_retrievals, 1)
    supply = samples.supply_s
    values = {
        "retrieval_p50_ms": (1e3 * statistics.median(lat), len(lat)),
        "retrieval_p90_ms": (1e3 * _percentile(lat, 90), len(lat)),
        "retrievals_per_s": (samples.verified / samples.loop_s, len(lat)),
        "user_dc_key_bits_per_retrieval": (
            samples.reserved_user_bits / checked, samples.checked_retrievals
        ),
        "dc_pair_key_bits_per_retrieval": (
            samples.reserved_pair_bits / checked, samples.checked_retrievals
        ),
        "distill_p50_ms": (1e3 * statistics.median(supply), len(supply)),
        "distilled_bits_per_s": (
            statistics.median(
                bits / s for bits, s in zip(samples.supply_bits, supply)
            ),
            len(supply),
        ),
        "setup_s": (setup_s, SETUP_REPEATS),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return {name: (v, units[name], k) for name, (v, k) in values.items()}


def _workdir(root: Path, name: str) -> Path:
    path = root / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run(name: str, seed: int, seconds: float, trace: bool, root: Path,
        started: float) -> Report:
    """Run one workload; ``started`` is the process start on the perf clock."""
    workdir = _workdir(root, name)
    try:
        if trace:
            return _run_traced(name, seed, seconds, workdir)
        return _run_untraced(name, seed, seconds, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def _run_untraced(name, seed, seconds, workdir, started) -> Report:
    tally = Tally()
    samples = Samples()
    first_setup = time.perf_counter() - started
    setups = []
    env = None
    for k in range(SETUP_REPEATS):
        if env is not None:
            env.close()
            env = None  # free the previous cube before building the next
        t0 = time.perf_counter()
        env = Env(name, seed, workdir / f"setup-{k}", tally, samples)
        setups.append(time.perf_counter() - t0)
    # Process start to the first timed operation: interpreter and imports,
    # plus the median set-up (input generation, cube, pools, daemons).
    setup_s = first_setup + statistics.median(setups)
    try:
        measure(env, seconds, samples)
    finally:
        env.close()
    return Report(tally, end_to_end(samples, setup_s))


def _run_traced(name, seed, seconds, workdir) -> Report:
    """Untraced then traced halves; per-layer metrics from the traced half."""
    tally = Tally()
    plain = Samples()
    env = Env(name, seed, workdir / "plain", tally, plain)
    try:
        measure(env, seconds / 2, plain)
    finally:
        env.close()

    tracer = spans.Tracer()
    patches = spans.Patches()
    traced = Samples()
    spans.install(tracer, patches)
    try:
        env = Env(name, seed, workdir / "traced", tally, traced, tracer)
        try:
            measure(env, seconds / 2, traced)
        finally:
            env.close()
    finally:
        patches.undo()

    span_set = layers.SpanSet()
    span_set.add_export(tracer.export(), "client")
    for party, text in env.daemon_exports:
        span_set.add_export(json.loads(text), party)
    values = span_set.metrics()
    n_ret = values.pop("traced_retrievals")
    checked = max(traced.checked_retrievals, 1)
    untraced_p50 = 1e3 * statistics.median(plain.retrieval_s)
    values.update({
        "keystore.ledger_bytes_per_retrieval": traced.ledger_bytes / checked,
        "netsvc.network.monitor_events_per_retrieval": (
            traced.monitor_events / checked
        ),
        "netsvc.network.alarms": traced.alarms,
        "trace.overhead_ms": values["trace.retrieval_p50_ms"] - untraced_p50,
    })
    metrics = {
        metric: (float(values[metric]), unit, n_ret)
        for metric, unit, _ in layers.PER_LAYER
    }
    return Report(tally, metrics)
