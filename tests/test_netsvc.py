import socket
import struct
import threading
import tracemalloc
from types import SimpleNamespace

import pytest

from qspir.bitops import bytes_for_bits
from qspir.cube import Database
from qspir.errors import (
    BudgetExhaustedError,
    FramingError,
    ProtocolError,
    StorageError,
)
from qspir.keystore import KeyPool, KeyStore
from qspir.masking import (
    answer_payload_bits,
    deserialize_masked_bundle,
    required_key_budget,
    unmask_reconstruct,
)
from qspir.netsvc import (
    HEADER_LEN,
    DaemonServer,
    DataCentreDaemon,
    DataCentreLink,
    ErrorReason,
    Frame,
    InProcessNetwork,
    LinkMonitor,
    MsgType,
    SessionGeometry,
    UserClient,
    decode_frame,
    decode_provision,
    encode_frame,
    encode_provision,
    error_frame,
    error_reason,
    new_session_id,
    reserve_mask_slice,
    reserve_user_slices,
    session_index,
    tcp_transport,
)
from qspir.netsvc.tcp import read_frame
from qspir.protocol import encode_query, gen_queries, sample_user_randomness
from qspir.rng import BitSource
from qspir.topology import PARTY_LINKS, install_pools, load_party_store


def build_rig(
    n=8,
    record_bytes=3,
    sessions=4,
    pair_sessions=None,
    user2_sessions=None,
    audit_path=None,
    pool_dir=None,
):
    """A user, two data-centre daemons, and a monitored in-process network.

    All three pools hold deterministic material sized for the given number
    of sessions; each party loads its own copy of the shared bytes. With
    ``pool_dir`` the pools are installed there and each party is loaded
    from its files with the ledger ``<pool_dir>/<party>.ledger``.
    """
    pair_sessions = sessions if pair_sessions is None else pair_sessions
    user2_sessions = sessions if user2_sessions is None else user2_sessions
    record_bits = 8 * record_bytes
    entries = [
        bytes([i, (37 * i + 5) % 256, 0xA0 ^ i])[:record_bytes]
        for i in range(n)
    ]
    cube = Database.from_entries(entries, record_bits)
    geom = SessionGeometry.for_database(n, record_bits)

    def user_material(link, count):
        slot = geom.send_slice_bits + geom.receive_slice_bits
        return BitSource(link).take_bytes(bytes_for_bits(max(count * slot, 8)))

    materials = {
        "user-dc1": user_material("user-dc1", sessions),
        "user-dc2": user_material("user-dc2", user2_sessions),
        "dc-pair": BitSource("pair-link").take_bytes(
            bytes_for_bits(max(pair_sessions * geom.mask_slice_bits, 8))
        ),
    }
    if pool_dir is not None:
        install_pools(str(pool_dir), materials)
    stores = {}
    for party, links in PARTY_LINKS.items():
        if pool_dir is not None:
            stores[party] = load_party_store(
                str(pool_dir), party, str(pool_dir / f"{party}.ledger")
            )
        else:
            stores[party] = KeyStore()
            for link in links:
                stores[party].add_pool(KeyPool(link, materials[link]))

    monitor = LinkMonitor(dc_names={"dc1", "dc2"}, audit_path=audit_path)
    network = InProcessNetwork(monitor)
    dc1 = DataCentreDaemon("dc1", 1, cube, stores["dc1"], "user-dc1", "dc-pair")
    dc2 = DataCentreDaemon("dc2", 2, cube, stores["dc2"], "user-dc2", "dc-pair")
    network.register("dc1", dc1.handle_frame)
    network.register("dc2", dc2.handle_frame)

    handshake = Frame(
        MsgType.PROVISION, new_session_id(0, BitSource("hs")), dc1.pair_digest()
    )
    replies = network.request("dc1", "dc2", handshake)
    assert replies and replies[0].payload == dc2.pair_digest()
    monitor.close_provisioning()

    client = UserClient(
        stores["user"],
        geom,
        DataCentreLink(
            "dc1", "user-dc1", lambda f: network.request("user", "dc1", f)
        ),
        DataCentreLink(
            "dc2", "user-dc2", lambda f: network.request("user", "dc2", f)
        ),
        rng=BitSource("client"),
    )
    return SimpleNamespace(
        cube=cube,
        entries=entries,
        geometry=geom,
        stores=stores,
        monitor=monitor,
        network=network,
        dc1=dc1,
        dc2=dc2,
        client=client,
    )


# -- frame and payload codecs ------------------------------------------------


def test_frame_codec_roundtrip():
    sid = bytes(range(16))
    for kind in MsgType:
        frame = Frame(kind, sid, b"payload-bytes")
        assert decode_frame(encode_frame(frame)) == frame
    close = Frame(MsgType.CLOSE, sid)
    wire = encode_frame(close)
    assert len(wire) == 26 == HEADER_LEN
    assert decode_frame(wire) == close


def test_frame_codec_strictness():
    sid = bytes(16)
    wire = encode_frame(Frame(MsgType.QUERY, sid, b"abc"))
    with pytest.raises(FramingError):
        decode_frame(wire[:10])  # truncated header
    with pytest.raises(FramingError):
        decode_frame(b"XSPR" + wire[4:])  # bad magic
    with pytest.raises(FramingError):
        decode_frame(wire[:4] + b"\x02" + wire[5:])  # bad version
    with pytest.raises(FramingError):
        decode_frame(wire[:5] + b"\x7f" + wire[6:])  # unknown type
    with pytest.raises(FramingError):
        decode_frame(wire + b"\x00")  # trailing byte
    with pytest.raises(FramingError):
        decode_frame(wire[:-1])  # short payload
    with pytest.raises(FramingError):
        Frame(MsgType.QUERY, bytes(15))  # bad session id length


def test_error_frame_helpers():
    sid = bytes(16)
    frame = error_frame(sid, ErrorReason.BAD_PHASE)
    assert frame.payload == bytes([ErrorReason.BAD_PHASE])
    assert error_reason(frame) is ErrorReason.BAD_PHASE
    with pytest.raises(FramingError):
        error_reason(Frame(MsgType.CLOSE, sid))
    with pytest.raises(FramingError):
        error_reason(Frame(MsgType.ERROR, sid, b"\x7f"))
    with pytest.raises(FramingError):
        error_reason(Frame(MsgType.ERROR, sid, b"\x01\x02"))


def test_provision_codec_and_session_index():
    payload = encode_provision(800, 4656, 421)
    assert decode_provision(payload) == (800, 4656, 421)
    with pytest.raises(FramingError):
        decode_provision(payload[:-1])
    sid = new_session_id(77, BitSource("x"))
    assert session_index(sid) == 77
    assert sid[:8] == struct.pack(">Q", 77)
    with pytest.raises(FramingError):
        session_index(b"short")
    # Deterministic under a seeded source, random otherwise.
    assert sid == new_session_id(77, BitSource("x"))
    assert new_session_id(77)[:8] == sid[:8]


def test_pinned_wire_sizes_production_shape():
    geom = SessionGeometry.for_database(800, 4656)
    assert geom.m == 10 and geom.log_m == 4
    assert bytes_for_bits(geom.query_bits) == 4
    assert geom.answer_bits == answer_payload_bits(10, 4656)
    assert bytes_for_bits(geom.answer_bits) == 19_788
    budgets = required_key_budget(800, 4656)
    assert geom.send_slice_bits + geom.receive_slice_bits == budgets.user_dc_bits
    assert geom.mask_slice_bits == budgets.dc_dc_bits


def test_one_distillation_pays_for_six_user_sessions_and_two_pair_sessions():
    # provision installs the whole bytes of one default distillation.
    pool_bytes = 1_133_926 // 8
    assert pool_bytes == 141_740
    geom = SessionGeometry.for_database(800, 4656)
    assert geom.send_offset(1) == 172_314
    assert geom.receive_offset(1) == 172_314 + 42
    store = KeyStore()
    store.add_pool(KeyPool("user-dc1", bytes(pool_bytes)))
    store.add_pool(KeyPool("dc-pair", bytes(pool_bytes)))
    for index in range(6):
        slices = reserve_user_slices(
            store, "user-dc1", f"session-{index}", geom, index
        )
        assert slices.receive.offset == slices.send.offset + 42
    with pytest.raises(BudgetExhaustedError):
        reserve_user_slices(store, "user-dc1", "session-6", geom, 6)
    for index in range(2):
        reserve_mask_slice(store, "dc-pair", f"session-{index}", geom, index)
    with pytest.raises(BudgetExhaustedError):
        reserve_mask_slice(store, "dc-pair", "session-2", geom, 2)
    store.audit_no_reuse()


# -- end-to-end retrieval ----------------------------------------------------


def test_end_to_end_in_process_retrievals():
    rig = build_rig(sessions=4)
    for session, x in enumerate((3, 0, 7)):
        result = rig.client.retrieve(x)
        assert result.index == session
        assert result.value == rig.cube.entry(x)
        assert result.record == result.value
        assert result.padding is False
    assert rig.monitor.alarms == ()
    for store in rig.stores.values():
        store.audit_no_reuse()


def test_user_pools_of_k_slots_serve_k_retrievals_end_to_end():
    k = 3
    rig = build_rig(sessions=k)
    slot = rig.geometry.send_slice_bits + rig.geometry.receive_slice_bits
    for link in ("user-dc1", "user-dc2"):
        assert rig.stores["user"].pool(link).capacity_bits // slot == k
    for x in range(k):
        assert rig.client.retrieve(x).value == rig.cube.entry(x)
    with pytest.raises(BudgetExhaustedError):
        rig.client.retrieve(0)
    for store in rig.stores.values():
        store.audit_no_reuse()


def test_padding_cells_and_record_trim():
    rig = build_rig(n=7, sessions=2)
    real = rig.client.retrieve(2, record_length=2)
    assert real.record == rig.entries[2][:2]
    assert real.padding is False
    pad = rig.client.retrieve(7)
    assert pad.padding is True
    assert pad.value == bytes(3)


def test_interleaved_sessions_with_out_of_order_frames():
    rig = build_rig(sessions=4)
    geom, network = rig.geometry, rig.network
    m = geom.m
    store = rig.stores["user"]
    plan = {0: 3, 1: 6}  # session index -> requested entry
    sids, slices, queries = {}, {}, {}
    for idx, x in plan.items():
        sids[idx] = new_session_id(idx, BitSource(f"sid-{idx}"))
        slices[idx] = {
            pool: reserve_user_slices(store, pool, f"session-{idx}", geom, idx)
            for pool in ("user-dc1", "user-dc2")
        }
        rng = BitSource(f"q-{idx}")
        queries[idx] = gen_queries(x, sample_user_randomness(m, rng), m)

    def provision(dc, idx):
        frame = Frame(
            MsgType.PROVISION,
            sids[idx],
            encode_provision(geom.n, geom.record_bits, idx),
        )
        replies = network.request("user", dc, frame)
        assert [f.msg_type for f in replies] == [MsgType.PROVISION]

    def query(dc, pool, idx, which):
        payload = store.otp_apply(
            encode_query(queries[idx][which]),
            slices[idx][pool].send,
            geom.query_bits,
        )
        answer, close = network.request(
            "user", dc, Frame(MsgType.QUERY, sids[idx], payload)
        )
        assert close.msg_type is MsgType.CLOSE
        plain = store.otp_apply(
            answer.payload, slices[idx][pool].receive, geom.answer_bits
        )
        return deserialize_masked_bundle(plain, m, geom.record_bits)

    # Arrival order differs per daemon and between phases.
    provision("dc1", 1)
    provision("dc1", 0)
    provision("dc2", 0)
    provision("dc2", 1)
    b1 = {1: query("dc1", "user-dc1", 1, 0)}
    b2 = {0: query("dc2", "user-dc2", 0, 1)}
    b1[0] = query("dc1", "user-dc1", 0, 0)
    b2[1] = query("dc2", "user-dc2", 1, 1)

    for idx, x in plan.items():
        assert unmask_reconstruct(b1[idx], b2[idx], x) == rig.cube.entry(x)
    for store in rig.stores.values():
        store.audit_no_reuse()


# -- daemon error paths ------------------------------------------------------


def test_query_without_provision():
    rig = build_rig(sessions=1)
    sid = new_session_id(0, BitSource("z"))
    replies = rig.dc1.handle_frame(Frame(MsgType.QUERY, sid, b"\x00"), "user")
    assert [error_reason(f) for f in replies] == [ErrorReason.NOT_PROVISIONED]
    assert rig.dc1.sessions == {}


def test_double_query_aborts_with_bad_phase():
    rig = build_rig(sessions=2)
    rig.client.retrieve(1)
    sid = next(iter(rig.dc1.sessions))
    payload = bytes(bytes_for_bits(rig.geometry.query_bits))
    replies = rig.dc1.handle_frame(Frame(MsgType.QUERY, sid, payload), "user")
    assert [error_reason(f) for f in replies] == [ErrorReason.BAD_PHASE]
    assert rig.dc1.sessions[sid].aborted is True


def test_unexpected_frame_type_and_close():
    rig = build_rig(sessions=1)
    sid = new_session_id(0, BitSource("z"))
    replies = rig.dc1.handle_frame(Frame(MsgType.ANSWER, sid, b""), "user")
    assert [error_reason(f) for f in replies] == [ErrorReason.BAD_PHASE]
    assert rig.dc1.handle_frame(Frame(MsgType.CLOSE, sid), "user") == []


def test_malformed_query_releases_and_index_is_reusable():
    rig = build_rig(sessions=2)
    geom = rig.geometry
    sid = new_session_id(0, BitSource("first-try"))
    provision = encode_provision(geom.n, geom.record_bits, 0)
    ok = rig.dc1.handle_frame(Frame(MsgType.PROVISION, sid, provision), "user")
    assert [f.msg_type for f in ok] == [MsgType.PROVISION]
    pool_report = rig.stores["dc1"].pool("user-dc1").report()
    assert pool_report.reserved_bits > 0

    bad = rig.dc1.handle_frame(Frame(MsgType.QUERY, sid, b"\x00\x00"), "user")
    assert [error_reason(f) for f in bad] == [ErrorReason.MALFORMED_QUERY]
    after = rig.stores["dc1"].pool("user-dc1").report()
    assert after.reserved_bits == 0  # nothing was consumed, all released
    assert rig.stores["dc1"].pool("dc-pair").report().reserved_bits == 0

    # The same session id stays burned, but a fresh id may redo the index.
    again = rig.dc1.handle_frame(
        Frame(MsgType.PROVISION, sid, provision), "user"
    )
    assert [error_reason(f) for f in again] == [ErrorReason.BAD_PARAMETERS]
    sid2 = new_session_id(0, BitSource("second-try"))
    redo = rig.dc1.handle_frame(
        Frame(MsgType.PROVISION, sid2, provision), "user"
    )
    assert [f.msg_type for f in redo] == [MsgType.PROVISION]


def _provisioned(rig, seed):
    geom = rig.geometry
    sid = new_session_id(0, BitSource(seed))
    provision = encode_provision(geom.n, geom.record_bits, 0)
    ok = rig.dc1.handle_frame(Frame(MsgType.PROVISION, sid, provision), "user")
    assert [f.msg_type for f in ok] == [MsgType.PROVISION]
    return sid


def test_query_with_spare_bits_set_aborts_with_error_frame():
    rig = build_rig(sessions=2)
    sid = _provisioned(rig, "spare-bits")
    # m = 2: the 6 query bits are padded, the high two pass through clear.
    assert rig.geometry.query_bits == 6
    replies = rig.dc1.handle_frame(Frame(MsgType.QUERY, sid, b"\xc0"), "user")
    assert [error_reason(f) for f in replies] == [ErrorReason.MALFORMED_QUERY]
    state = rig.dc1.sessions[sid]
    assert state.phase.value == "closed" and state.aborted is True
    # The send pad was applied and stays burnt; the rest is released.
    user_pool = rig.stores["dc1"].pool("user-dc1")
    assert user_pool.slice_used(state.slices.send)
    assert user_pool.report().reserved_bits == state.slices.send.bits
    assert rig.stores["dc1"].pool("dc-pair").report().reserved_bits == 0
    rig.stores["dc1"].audit_no_reuse()


def test_frames_after_abort_get_bad_phase_without_second_release():
    rig = build_rig(sessions=2)
    sid = _provisioned(rig, "re-abort")
    bad = rig.dc1.handle_frame(Frame(MsgType.QUERY, sid, b"\x00\x00"), "user")
    assert [error_reason(f) for f in bad] == [ErrorReason.MALFORMED_QUERY]
    ledger_lines = len(rig.stores["dc1"].entries)
    payload = bytes(bytes_for_bits(rig.geometry.query_bits))
    for query in (b"\x00\x00", payload):
        again = rig.dc1.handle_frame(Frame(MsgType.QUERY, sid, query), "user")
        assert [error_reason(f) for f in again] == [ErrorReason.BAD_PHASE]
    assert len(rig.stores["dc1"].entries) == ledger_lines
    for pool_id in ("user-dc1", "dc-pair"):
        assert rig.stores["dc1"].pool(pool_id).report().reserved_bits == 0


def test_close_in_init_releases_once():
    rig = build_rig(sessions=2)
    sid = _provisioned(rig, "close-in-init")
    store = rig.stores["dc1"]
    assert store.pool("user-dc1").report().reserved_bits > 0
    assert rig.dc1.handle_frame(Frame(MsgType.CLOSE, sid), "user") == []
    assert rig.dc1.sessions[sid].phase.value == "closed"
    for pool_id in ("user-dc1", "dc-pair"):
        assert store.pool(pool_id).report().reserved_bits == 0
    releases = [e for e in store.entries if e.purpose.startswith("release:")]
    assert len(releases) == 3
    ledger_lines = len(store.entries)
    assert rig.dc1.handle_frame(Frame(MsgType.CLOSE, sid), "user") == []
    assert len(store.entries) == ledger_lines  # nothing released twice
    store.audit_no_reuse()


# -- restarts ----------------------------------------------------------------


def test_restarted_daemon_refuses_an_index_it_already_served(tmp_path):
    rig = build_rig(sessions=2, pool_dir=tmp_path)
    first = rig.client.retrieve(3)
    assert first.index == 0
    # Rebuild dc1 over the same pool files and ledger, as serve-dc does.
    store = load_party_store(
        str(tmp_path), "dc1", str(tmp_path / "dc1.ledger")
    )
    dc1 = DataCentreDaemon("dc1", 1, rig.cube, store, *PARTY_LINKS["dc1"])
    geom = rig.geometry
    sid = new_session_id(0, BitSource("replayed"))
    replies = dc1.handle_frame(
        Frame(
            MsgType.PROVISION, sid,
            encode_provision(geom.n, geom.record_bits, 0),
        ),
        "user",
    )
    assert [error_reason(f) for f in replies] == [
        ErrorReason.BUDGET_EXHAUSTED
    ]
    ledger = KeyStore.read_ledger(str(tmp_path / "dc1.ledger"))
    session_0 = [e for e in ledger if e.session == "session-0"]
    assert [e.purpose for e in session_0] == [
        "query-otp", "answer-otp", "mask-set"
    ]
    assert [e.timestamp for e in ledger] == [1, 2, 3]
    # The next index is still served by the restarted daemon.
    replies = dc1.handle_frame(
        Frame(
            MsgType.PROVISION, new_session_id(1, BitSource("next")),
            encode_provision(geom.n, geom.record_bits, 1),
        ),
        "user",
    )
    assert [f.msg_type for f in replies] == [MsgType.PROVISION]
    assert [e.timestamp for e in store.entries][3:] == [4, 5, 6]


def test_client_over_a_replayed_store_resumes_after_its_last_index(tmp_path):
    rig = build_rig(sessions=3, pool_dir=tmp_path)
    assert rig.client.retrieve(5).index == 0
    store = load_party_store(
        str(tmp_path), "user", str(tmp_path / "user.ledger")
    )
    client = UserClient(
        store, rig.geometry, rig.client.dc1, rig.client.dc2,
        rng=BitSource("second-client"),
    )
    result = client.retrieve(4)
    assert result.index == 1
    assert result.value == rig.entries[4]
    for party in PARTY_LINKS:
        replayed = load_party_store(
            str(tmp_path), party, str(tmp_path / f"{party}.ledger")
        )
        replayed.audit_no_reuse()


def test_party_whose_links_share_key_material_is_refused(tmp_path):
    shared = bytes(64)
    install_pools(
        str(tmp_path),
        {"user-dc1": shared, "user-dc2": shared, "dc-pair": bytes(range(64))},
    )
    with pytest.raises(StorageError, match="share one key material"):
        load_party_store(str(tmp_path), "user")
    for party in ("dc1", "dc2"):  # each data centre holds distinct links
        load_party_store(str(tmp_path), party)


def test_provision_parameter_validation():
    rig = build_rig(sessions=2)
    geom = rig.geometry
    sid = new_session_id(0, BitSource("p"))
    cases = (
        encode_provision(geom.n + 1, geom.record_bits, 0),
        encode_provision(geom.n, geom.record_bits + 8, 0),
        encode_provision(geom.n, geom.record_bits, 5),  # index != sid index
        b"\x00\x01",  # undecodable payload
    )
    for payload in cases:
        replies = rig.dc1.handle_frame(
            Frame(MsgType.PROVISION, sid, payload), "user"
        )
        assert [error_reason(f) for f in replies] == [ErrorReason.BAD_PARAMETERS]
    ok = rig.dc1.handle_frame(
        Frame(
            MsgType.PROVISION, sid, encode_provision(geom.n, geom.record_bits, 0)
        ),
        "user",
    )
    assert [f.msg_type for f in ok] == [MsgType.PROVISION]
    dup = rig.dc1.handle_frame(
        Frame(
            MsgType.PROVISION, sid, encode_provision(geom.n, geom.record_bits, 0)
        ),
        "user",
    )
    assert [error_reason(f) for f in dup] == [ErrorReason.BAD_PARAMETERS]


def test_pair_digest_handshake():
    rig = build_rig(sessions=1)
    sid = new_session_id(9, BitSource("d"))
    good = rig.dc2.handle_frame(
        Frame(MsgType.PROVISION, sid, rig.dc1.pair_digest()), "dc1"
    )
    assert [f.msg_type for f in good] == [MsgType.PROVISION]
    assert good[0].payload == rig.dc2.pair_digest()
    bad = rig.dc2.handle_frame(
        Frame(MsgType.PROVISION, sid, bytes(32)), "dc1"
    )
    assert [error_reason(f) for f in bad] == [ErrorReason.BAD_PARAMETERS]
    assert sid not in rig.dc2.sessions


def test_daemon_budget_exhaustion_releases_everywhere():
    rig = build_rig(sessions=4, pair_sessions=1)
    rig.client.retrieve(2)
    user_before = {
        p: rig.stores["user"].pool(p).report().reserved_bits
        for p in ("user-dc1", "user-dc2")
    }
    dc1_before = rig.stores["dc1"].pool("user-dc1").report().reserved_bits

    with pytest.raises(ProtocolError, match="BUDGET_EXHAUSTED"):
        rig.client.retrieve(5)

    for p, before in user_before.items():
        assert rig.stores["user"].pool(p).report().reserved_bits == before
    assert rig.stores["dc1"].pool("user-dc1").report().reserved_bits == dc1_before
    assert len(rig.dc1.sessions) == 1  # only the first session remains
    for store in rig.stores.values():
        store.audit_no_reuse()


def test_client_releases_after_its_own_reserve_failure():
    rig = build_rig(sessions=2, user2_sessions=0)
    with pytest.raises(BudgetExhaustedError):
        rig.client.retrieve(1)
    report = rig.stores["user"].pool("user-dc1").report()
    assert report.reserved_bits == 0
    assert report.consumed_bits == 0


def test_transport_failure_aborts_cleanly():
    rig = build_rig(sessions=2)

    def dead(frame):
        return []

    rig.client.dc2 = DataCentreLink("dc2", "user-dc2", dead)
    with pytest.raises(ProtocolError, match="no reply"):
        rig.client.retrieve(0)
    for p in ("user-dc1", "user-dc2"):
        assert rig.stores["user"].pool(p).report().reserved_bits == 0


# -- monitor and audit log ---------------------------------------------------


def test_monitor_blocks_and_alarms_after_sealing(tmp_path):
    audit = tmp_path / "audit.txt"
    rig = build_rig(sessions=2, audit_path=str(audit))
    rig.client.retrieve(4)
    assert rig.monitor.alarms == ()

    injected = Frame(MsgType.QUERY, new_session_id(3, BitSource("i")), b"\x00")
    sessions_before = dict(rig.dc2.sessions)
    replies = rig.network.request("dc1", "dc2", injected)
    assert replies == []
    assert rig.dc2.sessions == sessions_before  # handler never saw the frame
    assert len(rig.monitor.alarms) == 1
    assert rig.monitor.alarms[0].event == "alarm-blocked QUERY"
    assert rig.monitor.alarms[0].link == "dc1->dc2"

    events = rig.monitor.events
    assert [e.timestamp for e in events] == list(range(1, len(events) + 1))
    assert events[0].event == "provision-pass PROVISION"
    assert events[2].event == "provisioning-closed"
    assert any(e.event == "pass QUERY" for e in events)
    assert audit.read_text().splitlines() == [e.format() for e in events]


def test_unknown_endpoint_is_a_protocol_error():
    rig = build_rig(sessions=1)
    with pytest.raises(ProtocolError, match="unreachable"):
        rig.network.request("user", "dc9", Frame(MsgType.CLOSE, bytes(16)))


def test_garbled_query_still_completes():
    rig = build_rig(sessions=2)
    true_link = rig.client.dc1

    def flip_one_bit(frame):
        if frame.msg_type is MsgType.QUERY:
            tampered = bytes([frame.payload[0] ^ 0x01]) + frame.payload[1:]
            frame = Frame(frame.msg_type, frame.session_id, tampered)
        return true_link.request(frame)

    rig.client.dc1 = DataCentreLink("dc1", "user-dc1", flip_one_bit)
    result = rig.client.retrieve(3)
    assert result.value != rig.cube.entry(3)  # wrong, but no protocol fault
    assert rig.monitor.alarms == ()
    for store in rig.stores.values():
        store.audit_no_reuse()


# -- TCP transport -----------------------------------------------------------


def _tcp_client(rig, servers):
    return UserClient(
        rig.stores["user"],
        rig.geometry,
        DataCentreLink(
            "dc1", "user-dc1",
            tcp_transport("127.0.0.1", servers[0].server_address[1]),
        ),
        DataCentreLink(
            "dc2", "user-dc2",
            tcp_transport("127.0.0.1", servers[1].server_address[1]),
        ),
        rng=BitSource("tcp-client"),
    )


def test_tcp_retrieval_roundtrip():
    rig = build_rig(sessions=2)
    servers = [
        DaemonServer(("127.0.0.1", 0), rig.dc1),
        DaemonServer(("127.0.0.1", 0), rig.dc2),
    ]
    try:
        for server in servers:
            server.serve_in_background()
        result = _tcp_client(rig, servers).retrieve(6)
        assert result.value == rig.cube.entry(6)
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()


def test_daemon_drops_a_malformed_frame_without_a_traceback(capfd):
    rig = build_rig(sessions=2)
    servers = [
        DaemonServer(("127.0.0.1", 0), rig.dc1),
        DaemonServer(("127.0.0.1", 0), rig.dc2),
    ]
    try:
        for server in servers:
            server.serve_in_background()
        with socket.create_connection(
            ("127.0.0.1", servers[0].server_address[1]), timeout=10
        ) as sock:
            sock.sendall(b"X" * HEADER_LEN)  # bad magic, 1.5 GB claimed
            assert sock.recv(1) == b""  # closed without a reply
        result = _tcp_client(rig, servers).retrieve(6)
        assert result.value == rig.cube.entry(6)
    finally:
        for server in servers:
            server.shutdown()
            server.server_close()
    assert "Traceback" not in capfd.readouterr().err


def test_read_frame_stream_behaviour():
    frame = Frame(MsgType.PROVISION, bytes(16), b"abcdef")
    wire = encode_frame(frame)

    def feed(data):
        a, b = socket.socketpair()
        a.sendall(data)
        a.close()
        return b

    sock = feed(wire)
    assert read_frame(sock) == frame
    assert read_frame(sock) is None  # clean EOF
    sock.close()

    sock = feed(wire[:HEADER_LEN - 3])
    with pytest.raises(FramingError, match="mid-header"):
        read_frame(sock)
    sock.close()

    sock = feed(wire[:HEADER_LEN + 2])
    with pytest.raises(FramingError, match="mid-payload"):
        read_frame(sock)
    sock.close()


def _forged_header(magic=b"QSPR", payload_len=1 << 31):
    header = encode_frame(Frame(MsgType.QUERY, bytes(16)))
    return magic + header[4:HEADER_LEN - 4] + struct.pack(">I", payload_len)


def test_read_frame_forged_length_allocates_only_what_arrives():
    a, b = socket.socketpair()
    a.sendall(_forged_header() + bytes(10))
    a.close()
    tracemalloc.start()
    try:
        with pytest.raises(FramingError, match="mid-payload"):
            read_frame(b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        b.close()
    assert peak < 1 << 20


def test_read_frame_refuses_a_bad_header_before_its_payload():
    a, b = socket.socketpair()
    b.settimeout(10)  # a reader waiting for the payload would time out
    try:
        a.sendall(_forged_header(magic=b"XXXX"))
        with pytest.raises(FramingError, match="bad magic"):
            read_frame(b)
    finally:
        a.close()
        b.close()


def test_read_frame_reassembles_frames_sent_in_small_pieces():
    frames = [
        Frame(MsgType.PROVISION, bytes(range(16)), b"abcdef"),
        Frame(MsgType.CLOSE, bytes(16)),
        Frame(
            MsgType.ANSWER,
            bytes(16),
            BitSource("big-payload").take_bytes(200_005),  # several recvs
        ),
    ]
    wire = b"".join(encode_frame(f) for f in frames)
    a, b = socket.socketpair()

    def send_in_pieces():
        step = 1
        pos = 0
        while pos < len(wire):
            a.sendall(wire[pos:pos + step])
            pos += step
            step = 4093 if pos > 2 * HEADER_LEN else 3
        a.close()

    sender = threading.Thread(target=send_in_pieces)
    sender.start()
    try:
        assert [read_frame(b) for _ in frames] == frames
        assert read_frame(b) is None
    finally:
        sender.join(timeout=30)
        b.close()
