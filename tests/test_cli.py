import select
import signal
import socket
import subprocess
import sys

import pytest

from qspir.bitops import bytes_for_bits
from qspir.cli import main
from qspir.cube import Database
from qspir.keystore import KeyPool, KeyStore
from qspir.masking import required_key_budget
from qspir.netsvc import (
    DaemonServer,
    DataCentreDaemon,
    Frame,
    MsgType,
    SessionGeometry,
    tcp_transport,
)
from qspir.rng import BitSource
from qspir.topology import PARTY_LINKS, install_pools, load_party_store


def write_records(records_dir, sizes):
    records_dir.mkdir(parents=True, exist_ok=True)
    lines = []
    for i, size in enumerate(sizes):
        name = f"rec-{i:05d}.bin"
        (records_dir / name).write_bytes(
            bytes((i * 17 + j) % 256 for j in range(size))
        )
        lines.append(f"{i} {size} {name}")
    manifest = records_dir / "manifest.txt"
    manifest.write_text("# <index> <byte-length> <filename>\n"
                        + "\n".join(lines) + "\n")
    return manifest


def install_test_pools(pool_dir, n, record_bits, sessions=4):
    geom = SessionGeometry.for_database(n, record_bits)
    materials = {
        "user-dc1": BitSource("cli-m1").take_bytes(
            bytes_for_bits(2 * sessions * geom.receive_slice_bits)
        ),
        "user-dc2": BitSource("cli-m2").take_bytes(
            bytes_for_bits(2 * sessions * geom.receive_slice_bits)
        ),
        "dc-pair": BitSource("cli-mp").take_bytes(
            bytes_for_bits(sessions * geom.mask_slice_bits)
        ),
    }
    install_pools(str(pool_dir), materials)


@pytest.fixture
def served_database(tmp_path):
    """Records + cube snapshot + pools + two live TCP daemons."""
    sizes = [3, 2, 1, 3, 2]
    manifest = write_records(tmp_path / "records", sizes)
    db_path = tmp_path / "database.qcub"
    assert main(
        ["ingest", "--manifest", str(manifest), "--out", str(db_path)]
    ) == 0
    install_test_pools(tmp_path / "pools", len(sizes), 8 * max(sizes))

    cube = Database.load(str(db_path))
    servers = []
    for role in (1, 2):
        party = f"dc{role}"
        store = load_party_store(str(tmp_path / "pools"), party)
        daemon = DataCentreDaemon(
            party, role, cube, store, *PARTY_LINKS[party]
        )
        server = DaemonServer(("127.0.0.1", 0), daemon)
        server.serve_in_background()
        servers.append(server)

    config = tmp_path / "net.cfg"
    config.write_text(
        "[net]\n"
        f"dc1 = 127.0.0.1:{servers[0].server_address[1]}\n"
        f"dc2 = 127.0.0.1:{servers[1].server_address[1]}\n"
    )
    yield {
        "tmp": tmp_path,
        "manifest": manifest,
        "config": config,
        "sizes": sizes,
    }
    for server in servers:
        server.shutdown()
        server.server_close()


def test_ingest_reports_shape_and_budgets(tmp_path, capsys):
    manifest = write_records(tmp_path / "records", [2, 5, 1])
    out = tmp_path / "db.qcub"
    assert main(["ingest", "--manifest", str(manifest), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("ingested 3 records (max 5 bytes) into m=2")
    budgets = required_key_budget(3, 40)
    assert (
        f"user-DC {budgets.user_dc_bits:,} bits; "
        f"DC-DC {budgets.dc_dc_bits:,} bits"
    ) in lines[1]
    cube = Database.load(str(out))
    assert (cube.n, cube.record_bits) == (3, 40)


def test_ingest_missing_manifest_is_io_error(tmp_path, capsys):
    code = main(
        ["ingest", "--manifest", str(tmp_path / "nope.txt"), "--out", "x"]
    )
    assert code == 5
    err = capsys.readouterr().err
    assert err.startswith("error code=5 kind=FileNotFoundError")


def test_bad_config_file_is_config_error(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("[channel]\ndistance_km = fast\n")
    code = main(["--config", str(config), "qkd-sim"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error code=2 kind=ConfigurationError")
    assert "line 2" in err


def test_bad_set_flag_is_config_error(capsys):
    assert main(["--set", "nodots", "qkd-sim"]) == 2
    assert "error code=2 kind=ConfigurationError" in capsys.readouterr().err


def test_qkd_sim_reports_calibrated_budget(capsys):
    assert main(["qkd-sim"]) == 0
    out = capsys.readouterr().out
    assert "distance: 25 km per arm (50 km total)" in out
    assert "QBER (Z basis): 0.8313%" in out
    assert "extractable key length l: 1,133,926 bits" in out


def test_qkd_sim_honours_overrides(capsys):
    assert main(["--set", "channel.distance_km=12.5", "qkd-sim"]) == 0
    out = capsys.readouterr().out
    assert "distance: 12.5 km per arm (25 km total)" in out


def test_qkd_keygen_truncation_and_exhaustion(tmp_path, capsys):
    out = tmp_path / "link.qkey"
    code = main(
        ["qkd-keygen", "--pool-id", "user-dc1", "--out", str(out),
         "--bits", "1024"]
    )
    assert code == 0
    assert "pool user-dc1: 1,024 bits" in capsys.readouterr().out
    pool = KeyPool.load(str(out))
    assert pool.pool_id == "user-dc1"
    assert pool.capacity_bits == 1024

    code = main(
        ["qkd-keygen", "--pool-id", "user-dc1", "--out", str(out),
         "--bits", str(10**9)]
    )
    assert code == 4
    assert "error code=4 kind=BudgetExhaustedError" in capsys.readouterr().err


def test_provision_reuse_keys_shares_material(tmp_path, capsys):
    out_dir = tmp_path / "pools"
    assert main(["provision", "--out-dir", str(out_dir), "--reuse-keys"]) == 0
    out = capsys.readouterr().out
    assert "warning: --reuse-keys shares one distilled key" in out
    materials = {}
    for party, links in PARTY_LINKS.items():
        for link in links:
            pool = KeyPool.load(str(out_dir / party / f"{link}.qkey"))
            materials.setdefault(link, set()).add(pool.material_digest())
    # Each link's two copies agree, and reuse mode makes all links equal.
    assert all(len(v) == 1 for v in materials.values())
    assert len({v.pop() for v in materials.values()}) == 1


def test_get_retrieves_byte_exact_record(served_database, tmp_path, capsys):
    env = served_database
    out = tmp_path / "fetched.bin"
    ledger = tmp_path / "user-ledger.txt"
    code = main(
        ["--config", str(env["config"]), "get", "--index", "2",
         "--manifest", str(env["manifest"]), "--pool-dir",
         str(env["tmp"] / "pools"), "--ledger", str(ledger),
         "--out", str(out)]
    )
    assert code == 0
    assert "retrieved index 2" in capsys.readouterr().out
    original = (env["tmp"] / "records" / "rec-00002.bin").read_bytes()
    assert out.read_bytes() == original
    entries = KeyStore.read_ledger(str(ledger))
    assert entries and {e.pool_id for e in entries} == {
        "user-dc1", "user-dc2"
    }

    # Indices beyond the padded cube are rejected before any frame is sent.
    code = main(
        ["--config", str(env["config"]), "get", "--index", "8",
         "--manifest", str(env["manifest"]), "--pool-dir",
         str(env["tmp"] / "pools"), "--out", str(out)]
    )
    assert code == 3
    assert "error code=3 kind=RangeError" in capsys.readouterr().err


def test_second_get_on_the_same_ledger_resumes(served_database, tmp_path,
                                               capsys):
    env = served_database
    ledger = tmp_path / "user-ledger.txt"
    for index in (1, 4):
        out = tmp_path / f"fetched-{index}.bin"
        code = main(
            ["--config", str(env["config"]), "get", "--index", str(index),
             "--manifest", str(env["manifest"]), "--pool-dir",
             str(env["tmp"] / "pools"), "--ledger", str(ledger),
             "--out", str(out)]
        )
        assert code == 0, capsys.readouterr().err
        original = (env["tmp"] / "records" / f"rec-{index:05d}.bin")
        assert out.read_bytes() == original.read_bytes()
    sessions = {e.session for e in KeyStore.read_ledger(str(ledger))}
    assert sessions == {"session-0", "session-1"}


def test_get_padding_slot_warns_and_writes_empty(served_database, tmp_path,
                                                 capsys):
    env = served_database
    out = tmp_path / "pad.bin"
    code = main(
        ["--config", str(env["config"]), "get", "--index", "6",
         "--manifest", str(env["manifest"]), "--pool-dir",
         str(env["tmp"] / "pools"), "--out", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "warning: index 6 is a padding slot" in printed
    assert out.read_bytes() == b""


def test_demo_cli_end_to_end(tmp_path, capsys):
    workdir = tmp_path / "demo"
    code = main(
        ["--seed", "0", "demo", "--workdir", str(workdir), "--index", "5"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "byte-exact match" in out
    assert "monitor alarms: 0" in out
    assert (workdir / "retrieved-00005.bin").exists()
    assert (workdir / "database.qcub").exists()
    assert (workdir / "audit.txt").exists()


def test_sweep_writes_both_curves(tmp_path, capsys):
    prefix = tmp_path / "curve"
    assert main(["sweep", "--distances", "50", "--out-prefix", str(prefix)]) == 0
    out = capsys.readouterr().out
    budgets = required_key_budget(800, 4656)
    for name in ("config1", "config2"):
        assert f"{name}: 1 points" in out
        assert "meets DC-DC budget up to 50 km" in out
        lines = (tmp_path / f"curve-{name}.csv").read_text().splitlines()
        assert lines[1] == "distance_km,l_bits,mu1,mu2,mu3"
        distance, l_bits = lines[2].split(",")[:2]
        assert distance == "50"
        assert int(l_bits) >= budgets.dc_dc_bits
        assert f"# threshold,user_dc_budget_bits,{budgets.user_dc_bits}" in lines
        assert f"# threshold,dc_dc_budget_bits,{budgets.dc_dc_bits}" in lines


def _serve_dc_args(tmp_path):
    """``qspir`` arguments serving a 3-record cube as dc1 on a free port."""
    manifest = write_records(tmp_path / "records", [2, 1, 2])
    db_path = tmp_path / "database.qcub"
    assert main(
        ["ingest", "--manifest", str(manifest), "--out", str(db_path)]
    ) == 0
    install_test_pools(tmp_path / "pools", 3, 16)
    config = tmp_path / "net.cfg"
    config.write_text("[net]\ndc1 = 127.0.0.1:0\n")
    return ["--config", str(config), "serve-dc", "--role", "1",
            "--database", str(db_path), "--pool-dir", str(tmp_path / "pools")]


def _start_serve_dc(tmp_path, **popen_kwargs):
    """A ``serve-dc`` subprocess and the port it announced."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "qspir.cli", *_serve_dc_args(tmp_path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **popen_kwargs,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30)
        assert ready, "daemon never announced itself"
        line = proc.stdout.readline()
        assert line.startswith("dc1 serving n=3, record field 16 bits on ")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    return proc, int(line.rsplit(":", 1)[1])


def test_serve_dc_subprocess_serves_tcp(tmp_path):
    proc, port = _start_serve_dc(tmp_path)
    try:
        transport = tcp_transport("127.0.0.1", port)
        assert transport(Frame(MsgType.CLOSE, bytes(16))) == []
    finally:
        proc.terminate()
        proc.wait(timeout=10)
    assert proc.returncode == 0


def test_serve_dc_started_with_sigint_ignored_still_stops_on_sigint(
    tmp_path,
):
    # A non-interactive shell starts background jobs with SIGINT ignored.
    proc, _ = _start_serve_dc(
        tmp_path,
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
    )
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        pytest.fail("serve-dc ignored SIGINT")
    assert proc.returncode == 0


class _InterruptOnFlush:
    """A stdout whose flush is interrupted, as by a signal from a parent
    that has just read the port line."""

    def __init__(self):
        self.text = ""

    def write(self, text):
        self.text += text
        return len(text)

    def flush(self):
        raise KeyboardInterrupt


def test_serve_dc_interrupted_while_announcing_exits_cleanly(
    tmp_path, monkeypatch
):
    args = _serve_dc_args(tmp_path)
    handlers = [signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)]
    stdout = _InterruptOnFlush()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        code = main(args)
    except KeyboardInterrupt:
        pytest.fail("KeyboardInterrupt escaped serve-dc")
    monkeypatch.undo()

    assert code == 0
    assert stdout.text.startswith("dc1 serving n=3, record field 16 bits on ")
    port = int(stdout.text.rsplit(":", 1)[1])
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=5).close()
    assert handlers == [
        signal.getsignal(s) for s in (signal.SIGINT, signal.SIGTERM)
    ]
