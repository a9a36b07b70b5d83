"""Committed conformance vectors: the wire bytes and ledgers of fixed sessions.

Each shape runs two seeded retrievals in process: the database, the three
link pools and the client's randomness all come from fixed ``BitSource``
seeds, so every frame and every ledger line is a pure function of the
code. The SHA-256 of the encoded request and reply frames, in the order
the client sees them, and of each party's formatted ledger lines are
pinned below. A refactor that keeps the wire must leave them unchanged; a
change that alters the wire or the ledger on purpose regenerates them and
says so.
"""

from __future__ import annotations

import hashlib

import pytest

from qspir.bitops import bytes_for_bits
from qspir.cube import Database
from qspir.keystore import KeyPool, KeyStore
from qspir.netsvc import (
    DataCentreDaemon,
    DataCentreLink,
    SessionGeometry,
    UserClient,
    encode_frame,
)
from qspir.rng import BitSource
from qspir.topology import PARTY_LINKS

SESSIONS = 2

#: (n, L) -> SHA-256 of (frames, user ledger, dc1 ledger, dc2 ledger).
VECTORS = {
    (800, 4656): (
        "304d135ced0aa98d60f7bf182bcb5d4e48e9e82ff71a47d222ba2743c28ff3eb",
        "2a88fd7809573a89ed913495c8ce5df346389d07f85a2a701f4816fd64af000a",
        "467b4b155e8f1ad92f761882ea77506b0509fc904fd747226f44fe364c85bac0",
        "a4b2ffbecef094b4f4e0cdde43ec2985ca5d45b085ee2aa7aa9ef19d60536bb4",
    ),
    (1, 1): (
        "859b2b8f991713a50cdbb945e27b16e4f0bab0f3d1267b3bbd42339d529ca482",
        "28f652f0e82465070f3287192b0adf5e23934b99a527f012bd7e9f1ccbcab6ad",
        "f4c4a2ece91e0fb771393b684bab67d16b5f2ff6a66aa812980e6379fbf9e6dc",
        "32c7614ad0b40c4de67dfa95e90496480eb67d0caf7f9d537ff9aaebf3ff0750",
    ),
    (1, 5): (
        "49e3f61f9961a7799e78cb4c12c536ed0b1e9ad0b9331df9d59d2a2ab53825e7",
        "193e95f98360fba983dbea6582ba88d756d97d90b19ecd2a1079707258e69ec5",
        "3d4bf0484544a9a211ab129841b174ffa03ccfab488450ca3088111af4a384b6",
        "934bf50a354426a28fa49d0f5719de33a9789db4c2429c516adcce9d2108a3c9",
    ),
    (1, 17): (
        "0ca81c16f1848728e09fc1cc7f10f5afbeeaa4ac652ab3e110acd623360107f0",
        "23fddd019fe09488f60b80f8eb6f300239de8bc6c886d63b109af3f4230b8e10",
        "c7dabe6900a70094dbddf2507476b09b4f4e7e41e47707b75a757f5db5e73575",
        "52963125f1307c8ed206b8cb6eb62e8e95f97f8c313d548a61cc5f4b80571863",
    ),
    (8, 1): (
        "5a04f7f22a92948021b65a575235fb3b81ef0f478b841a6ddd58bb7b10fda3b3",
        "9c9713f8f6695008a1227c52a7ac50e1324ba44b4311a93dfe1dc746b19cebe7",
        "e9d765de1c6aee30bab71c69705c66c47da32a07cb67d69a7daa5935e91b75ac",
        "510f047c0ed64a6c93ec4a9a4ebf1696ab5e30721da320cb4f71d49e9cc2e610",
    ),
    (8, 5): (
        "55a527c24e67913be9c28b03dddd3ea073234a12bd828523ad9fde9fdc14ed5b",
        "2c09bfef936c24d7fd2f655fc349062923ce335bc28aecf97166d614fb19191e",
        "7b51960dfb02f9424b81d4418c7ef71d621bb8d04be7937bd86ba8f89367f41f",
        "20dd0a65aa685fdccf0d0bebbaa4a8398dc1f7bb485af219bf7bf966e354d698",
    ),
    (8, 17): (
        "f90434b812b757d028702292c1de0c187dfcbec7e5e860e1c026a62b613519fa",
        "d7ed06b3f9f1d5fbe4deb648e407fb56ba9c7ea4bbccc18ea6c26e28c28b5b26",
        "4105bfe154be3c6654e62b29cf9a044b3e2418a80a9f30c611b7c01b27a9cb51",
        "02b062c98e60544735d4814e51f9bc5900fe50332c8ad42c09f19f659dfa1311",
    ),
    (27, 1): (
        "efcd198db185a2664ee088a899e34cbc3be9fa2004d7b0b46377e4fb395b5ca5",
        "b58f2f6c55ef88653c8429cde3030c3ab32638cfcced2b690195ce7e0ac7b80f",
        "53a7516f6d1feaf4b6cb68eb83ebd045d2efcde7d8b910388f52bda34d9b5817",
        "52df92b086b77504a62acc503bd221256925ad755bb8726145243d6e1a8150a3",
    ),
    (27, 5): (
        "226e9fd18a2fc7fd7c54c0beef84b7fee53739b0b7e17adaa1c557be637fe118",
        "9233a684296ad67af9d87fe4cda194128812e2e6272953affd5ba34bdf28a99a",
        "e7da88c3ddb7ba9538a49d783fae3d240aa481a596755d3b3ddefc47ef157035",
        "1e94346dc930c5b12f62329a612e7f4656391aeaf56b50ff09ce15155108e0e1",
    ),
    (27, 17): (
        "44b5a695baa1591e825418b41a7da58406132c2b320b37a711a7e8be4f0efdc9",
        "a543209ef202874f61c69b595aea904114a9d2aac35d6a31d31a97eb722a5162",
        "5689095b5d53d6293f466d90d65cbe3ae47523b7dda2d2d3e3bda7a46bfe24fd",
        "3e92eecf732efe3e1594a85079ea59a1af554570cda1f7b0aa40cc2c40af1d3e",
    ),
}


def run_sessions(n, record_bits):
    """Two retrievals at one shape; (frame bytes, ledgers, records, entries)."""
    tag = f"vectors-{n}-{record_bits}"
    source = BitSource(f"{tag}/entries")
    entries = [source.take_bits(record_bits) for _ in range(n)]
    cube = Database.from_entries(entries, record_bits)
    geom = SessionGeometry.for_database(n, record_bits)
    user_bits = SESSIONS * (geom.send_slice_bits + geom.receive_slice_bits)
    sizes = {
        "user-dc1": user_bits,
        "user-dc2": user_bits,
        "dc-pair": SESSIONS * geom.mask_slice_bits,
    }
    materials = {
        link: BitSource(f"{tag}/{link}").take_bytes(bytes_for_bits(bits))
        for link, bits in sizes.items()
    }
    stores = {}
    for party, links in PARTY_LINKS.items():
        stores[party] = KeyStore()
        for link in links:
            stores[party].add_pool(KeyPool(link, materials[link]))
    daemons = {
        name: DataCentreDaemon(
            name, role, cube, stores[name], f"user-{name}", "dc-pair"
        )
        for role, name in ((1, "dc1"), (2, "dc2"))
    }
    frames = []

    def transport(daemon):
        def request(frame):
            replies = daemon.handle_frame(frame, "user")
            frames.extend(encode_frame(f) for f in (frame, *replies))
            return replies

        return request

    client = UserClient(
        stores["user"],
        geom,
        *(
            DataCentreLink(name, f"user-{name}", transport(daemons[name]))
            for name in ("dc1", "dc2")
        ),
        rng=BitSource(f"{tag}/client"),
    )
    wanted = [n - 1, n // 3]
    records = [client.retrieve(x).record for x in wanted]
    ledgers = {
        party: [entry.format() for entry in store.entries]
        for party, store in stores.items()
    }
    return frames, ledgers, records, [entries[x] for x in wanted]


def digests(frames, ledgers):
    def sha(parts):
        h = hashlib.sha256()
        for part in parts:
            h.update(len(part).to_bytes(4, "big") + part)
        return h.hexdigest()

    return (
        sha(frames),
        *(
            sha([line.encode() for line in ledgers[party]])
            for party in ("user", "dc1", "dc2")
        ),
    )


SHAPES = [(800, 4656)] + [
    (n, record_bits) for n in (1, 8, 27) for record_bits in (1, 5, 17)
]


@pytest.mark.parametrize("n,record_bits", SHAPES)
def test_session_bytes_match_committed_vectors(n, record_bits):
    frames, ledgers, records, expect = run_sessions(n, record_bits)
    assert records == expect
    # PROVISION and QUERY each way to each data centre: 2 + 3 frames.
    assert len(frames) == SESSIONS * 2 * 5
    assert digests(frames, ledgers) == VECTORS[(n, record_bits)]
