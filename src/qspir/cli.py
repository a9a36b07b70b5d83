"""Command-line surface for the private-retrieval stack.

Subcommands cover the two layers: ``qkd-sim``, ``qkd-keygen``,
``provision``, and ``sweep`` operate the simulated key layer; ``ingest``,
``serve-dc``, ``get``, and ``demo`` operate the retrieval layer. Exit
codes: 0 success, 2 configuration, 3 protocol, 4 key budget exhausted,
5 I/O.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

from .config import AppConfig, flag_path, parse_config
from .cube import Database, load_manifest
from .demo import run_demo
from .errors import (
    BudgetExhaustedError,
    ConfigurationError,
    SpirError,
    StorageError,
)
from .keystore import KeyPool
from .masking import required_key_budget
from .netsvc import (
    DataCentreDaemon,
    DataCentreLink,
    DaemonServer,
    SessionGeometry,
    UserClient,
    tcp_transport,
)
from .qkd.channel import ChannelModel, simulate_tallies
from .qkd.distill import distill_session, key_accounting
from .qkd.optimize import export_curve_csv, sweep_distance
from .rng import BitSource
from .topology import LINKS, PARTY_LINKS, install_pools, load_party_store

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_PROTOCOL = 3
EXIT_BUDGET = 4
EXIT_IO = 5


def _load_config(args: argparse.Namespace) -> AppConfig:
    text = None
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    flags: dict[tuple[str, str], str] = {}
    for override in args.set or []:
        name, sep, value = override.partition("=")
        if not sep:
            raise ConfigurationError(
                f"override {override!r} must be section.key=value"
            )
        flags[flag_path(name.strip())] = value.strip()
    if args.seed is not None:
        flags[("run", "seed")] = args.seed
    return parse_config(text, flags)


def _session_report(config: AppConfig) -> list[str]:
    channel = config.channel_model()
    params = config.protocol_params()
    tallies = simulate_tallies(channel, params)
    sift = tallies.coinc[("Z", 0, 0)]
    qber = tallies.errors[("Z", 0, 0)] / sift if sift > 0 else 0.0
    _, result = key_accounting(tallies, params)
    return [
        f"distance: {channel.distance_km:g} km per arm "
        f"({2 * channel.distance_km:g} km total)",
        f"sifted key bits: {sift:,.0f}",
        f"QBER (Z basis): {100 * qber:.4f}%",
        f"vacuum-event bound n0: {result.n0_lower:,.0f}",
        f"single-photon bound n1: {result.n1_lower:,.0f}",
        f"single-photon phase error e1: {result.e1_upper:.4f}",
        f"error-correction leakage: {result.leak_ec:,} bits",
        f"extractable key length l: {result.l:,} bits",
    ]


def cmd_qkd_sim(args: argparse.Namespace) -> int:
    for line in _session_report(_load_config(args)):
        print(line)
    return EXIT_OK


def cmd_qkd_keygen(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = config.get("run", "seed")
    key_a, _key_b, result = distill_session(
        config.channel_model(),
        config.protocol_params(),
        f"{seed}/qkd-{args.pool_id}",
    )
    material = key_a.material[: key_a.bit_length // 8]
    if args.bits is not None:
        if args.bits > 8 * len(material):
            raise BudgetExhaustedError(
                args.pool_id, args.bits, 8 * len(material)
            )
        material = material[: (args.bits + 7) // 8]
    pool = KeyPool(args.pool_id, material)
    pool.save(args.out)
    print(
        f"pool {args.pool_id}: {pool.capacity_bits:,} bits "
        f"(distilled l = {result.l:,}) -> {args.out}"
    )
    return EXIT_OK


def cmd_provision(args: argparse.Namespace) -> int:
    config = _load_config(args)
    seed = config.get("run", "seed")
    channel = config.channel_model()
    params = config.protocol_params()
    materials: dict[str, bytes] = {}
    for link in LINKS:
        key_a, _b, result = distill_session(
            channel, params, f"{seed}/qkd-{link}"
        )
        materials[link] = key_a.material[: key_a.bit_length // 8]
        print(f"distilled {link}: {result.l:,} bits")
    for path in install_pools(args.out_dir, materials):
        print(f"installed {path}")
    return EXIT_OK


def _manifest_base(args: argparse.Namespace) -> str:
    return args.base_dir or os.path.dirname(os.path.abspath(args.manifest))


def cmd_ingest(args: argparse.Namespace) -> int:
    entries, lengths = load_manifest(args.manifest, _manifest_base(args))
    record_bits = 8 * max(lengths)
    cube = Database.from_entries(entries, record_bits)
    cube.save(args.out)
    budgets = required_key_budget(cube.n, record_bits)
    print(
        f"ingested {cube.n} records (max {max(lengths)} bytes) into "
        f"m={cube.m} cube, record field {record_bits} bits -> {args.out}"
    )
    print(
        f"session budgets: user-DC {budgets.user_dc_bits:,} bits; "
        f"DC-DC {budgets.dc_dc_bits:,} bits"
    )
    return EXIT_OK


def cmd_serve_dc(args: argparse.Namespace) -> int:
    config = _load_config(args)
    cube = Database.load(args.database)
    party = f"dc{args.role}"
    store = load_party_store(args.pool_dir, party, args.ledger)
    daemon = DataCentreDaemon(
        party, args.role, cube, store, *PARTY_LINKS[party]
    )
    host, port = config.endpoint(party)
    server = DaemonServer((host, port), daemon)
    # SIGINT and SIGTERM both stop the daemon, also when it was started with
    # SIGINT ignored, as a non-interactive shell starts a background job.
    previous = {
        sig: signal.signal(sig, signal.default_int_handler)
        for sig in (signal.SIGINT, signal.SIGTERM)
    }
    # A parent may signal as soon as it reads the port line, so the line is
    # printed inside the try and the socket is closed on every way out.
    try:
        print(
            f"{party} serving n={cube.n}, record field {cube.record_bits} "
            f"bits on {server.server_address[0]}:{server.server_address[1]}"
        )
        sys.stdout.flush()
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return EXIT_OK


def cmd_get(args: argparse.Namespace) -> int:
    config = _load_config(args)
    entries, lengths = load_manifest(args.manifest, _manifest_base(args))
    record_bits = 8 * max(lengths)
    n = len(entries)
    geometry = SessionGeometry.for_database(n, record_bits)
    store = load_party_store(args.pool_dir, "user", args.ledger)
    seed = config.get("run", "seed")
    client = UserClient(
        store,
        geometry,
        DataCentreLink(
            "dc1", "user-dc1", tcp_transport(*config.endpoint("dc1"))
        ),
        DataCentreLink(
            "dc2", "user-dc2", tcp_transport(*config.endpoint("dc2"))
        ),
        rng=BitSource(f"{seed}/get"),
    )
    length = lengths[args.index] if args.index < n else None
    result = client.retrieve(args.index, record_length=length, n=n)
    if result.padding:
        print(
            f"warning: index {args.index} is a padding slot "
            f"(database holds {n} records); record is empty"
        )
    out = args.out or f"record-{args.index:05d}.bin"
    with open(out, "wb") as fh:
        fh.write(b"" if result.padding else result.record)
    print(f"retrieved index {args.index} -> {out}")
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    config = _load_config(args)
    report = run_demo(
        args.workdir,
        seed=config.get("run", "seed"),
        index=args.index,
        channel=config.channel_model(),
        params=config.protocol_params(),
    )
    for line in report.lines:
        print(line)
    return EXIT_OK if report.byte_exact else EXIT_PROTOCOL


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    distances = [float(d) for d in args.distances.split(",")]
    budgets = required_key_budget(800, 4656)
    thresholds = {
        "user_dc_budget_bits": budgets.user_dc_bits,
        "dc_dc_budget_bits": budgets.dc_dc_bits,
    }
    base = config.channel_model()
    configs = [
        ("config1", base, config.get("protocol", "n_pulses")),
        (
            "config2",
            ChannelModel(
                distance_km=base.distance_km,
                attenuation_db_km=base.attenuation_db_km,
                detector_efficiency=base.detector_efficiency,
                dark_count_prob=base.dark_count_prob,
                misalignment=base.misalignment,
                saturation_cps=None,
                repetition_rate_hz=1.25e9,
            ),
            3.75e10,
        ),
    ]
    for name, channel, n_pulses in configs:
        points = sweep_distance(channel, n_pulses, distances)
        path = f"{args.out_prefix}-{name}.csv"
        export_curve_csv(points, thresholds, path, header_note=name)
        meeting = [
            p.distance_km for p in points if p.l >= budgets.dc_dc_bits
        ]
        top = f"{max(meeting):g} km" if meeting else "none"
        print(
            f"{name}: {len(points)} points -> {path}; "
            f"meets DC-DC budget up to {top}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qspir",
        description="two-database private retrieval over simulated "
        "quantum-distributed keys",
    )
    parser.add_argument(
        "--config", help="configuration file (key = value with [sections])"
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="SECTION.KEY=VALUE",
        help="override one config field (repeatable)",
    )
    parser.add_argument("--seed", help="seed for all randomized steps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="build a cube snapshot from records")
    p.add_argument("--manifest", required=True)
    p.add_argument("--base-dir", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("qkd-sim", help="report one key-distillation budget")
    p.set_defaults(func=cmd_qkd_sim)

    p = sub.add_parser("qkd-keygen", help="distil one link key to a pool file")
    p.add_argument("--pool-id", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bits", type=int, default=None,
                   help="truncate the pool to this many bits")
    p.set_defaults(func=cmd_qkd_keygen)

    p = sub.add_parser("provision", help="install pools for all three links")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("serve-dc", help="run one data-centre daemon")
    p.add_argument("--role", type=int, choices=(1, 2), required=True)
    p.add_argument("--database", required=True)
    p.add_argument("--pool-dir", required=True)
    p.add_argument("--ledger", default=None)
    p.set_defaults(func=cmd_serve_dc)

    p = sub.add_parser("get", help="retrieve one record from both daemons")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--base-dir", default=None)
    p.add_argument("--pool-dir", required=True)
    p.add_argument("--ledger", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_get)

    p = sub.add_parser("demo", help="end-to-end pipeline on synthetic data")
    p.add_argument("--workdir", default="qspir-demo")
    p.add_argument("--index", type=int, default=421)
    p.set_defaults(func=cmd_demo)

    p = sub.add_parser("sweep", help="export key-length vs distance curves")
    p.add_argument("--out-prefix", default="curve")
    p.add_argument(
        "--distances",
        default="10,25,50,75,100,150,200,250,300",
        help="total link distances in km, comma separated",
    )
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        return _fail(EXIT_CONFIG, exc)
    except BudgetExhaustedError as exc:
        return _fail(EXIT_BUDGET, exc)
    except (StorageError, OSError) as exc:
        return _fail(EXIT_IO, exc)
    except SpirError as exc:
        return _fail(EXIT_PROTOCOL, exc)


def _fail(code: int, exc: BaseException) -> int:
    print(
        f"error code={code} kind={type(exc).__name__} msg={str(exc)!r}",
        file=sys.stderr,
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
