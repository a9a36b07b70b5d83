import random

import pytest

from oracles import brute_subcube_xor
from qspir.bitops import bytes_for_bits, xor_bytes
from qspir.cube import (
    Database,
    coords_to_index,
    cube_dims,
    index_to_coords,
    load_manifest,
)
from qspir.errors import RangeError, StorageError, ValidationError
from qspir.protocol import QueryTriple, compute_answer_bundle


def test_cube_dims_exact_cover():
    for n in range(1, 3000):
        m = cube_dims(n)
        assert m**3 >= n
        assert m == 1 or (m - 1) ** 3 < n
    assert cube_dims(800) == 10
    assert cube_dims(1000) == 10
    assert cube_dims(1001) == 11
    with pytest.raises(RangeError):
        cube_dims(0)


def test_coordinate_roundtrip():
    for m in (1, 2, 3, 5):
        for x in range(m**3):
            i, j, k = index_to_coords(x, m)
            assert all(0 <= c < m for c in (i, j, k))
            assert coords_to_index(i, j, k, m) == x
    with pytest.raises(RangeError):
        index_to_coords(8, 2)
    with pytest.raises(RangeError):
        coords_to_index(0, 2, 0, 2)


def _random_database(rng, n, record_bits):
    nbytes = bytes_for_bits(record_bits)
    entries = []
    for _ in range(n):
        value = rng.getrandbits(record_bits)
        entries.append(value.to_bytes(nbytes, "little"))
    return entries, Database.from_entries(entries, record_bits)


def _bundle(db, masks):
    return compute_answer_bundle(db, QueryTriple(*masks, m=db.m))


def test_entry_returns_padded_value():
    rng = random.Random(11)
    entries, db = _random_database(rng, 6, 12)
    assert db.m == 2 and db.record_bytes == 2
    for x in range(6):
        assert db.entry(x) == entries[x]
    with pytest.raises(RangeError):
        db.entry(6)  # padding cell, not a real record


def test_subcube_xor_matches_brute_force():
    rng = random.Random(12)
    for n, record_bits in ((8, 8), (20, 5), (50, 17)):
        entries, db = _random_database(rng, n, record_bits)
        m = db.m
        padded = entries + [bytes(db.record_bytes)] * (m**3 - n)
        for _ in range(60):
            masks = [rng.getrandbits(m) for _ in range(3)]
            expect = brute_subcube_xor(
                padded, m, db.record_bytes, *masks
            )
            assert _bundle(db, masks).a0 == expect
        assert _bundle(db, (0, (1 << m) - 1, 1)).a0 == bytes(db.record_bytes)


def test_axis_slabs_match_brute_force():
    """a0 ^ flips[d][p] is the slab at position p of axis d."""
    rng = random.Random(13)
    entries, db = _random_database(rng, 27, 9)
    m = db.m
    padded = entries + [bytes(db.record_bytes)] * (m**3 - 27)
    for axis in range(3):
        masks = [rng.getrandbits(m) for _ in range(3)]
        bundle = _bundle(db, masks)
        for p in range(m):
            full = list(masks)
            full[axis] = 1 << p
            expect = brute_subcube_xor(padded, m, db.record_bytes, *full)
            assert xor_bytes(bundle.a0, bundle.flips[axis][p]) == expect
    with pytest.raises(ValidationError):
        compute_answer_bundle(db, QueryTriple(0, 0, 0, m=m + 1))


def test_slab_toggle_identity():
    """flips[d][p] is the a0 of the query toggled at position p of d."""
    rng = random.Random(14)
    _, db = _random_database(rng, 27, 16)
    m = db.m
    q = [rng.getrandbits(m) for _ in range(3)]
    bundle = _bundle(db, q)
    for d in range(3):
        for p in range(m):
            toggled = list(q)
            toggled[d] ^= 1 << p
            assert bundle.flips[d][p].tobytes() == _bundle(db, toggled).a0


def test_snapshot_roundtrip(tmp_path):
    rng = random.Random(15)
    _, db = _random_database(rng, 30, 11)
    path = tmp_path / "db.qcub"
    db.save(path)
    back = Database.load(path)
    assert (back.n, back.record_bits, back.m) == (db.n, db.record_bits, db.m)
    assert back.cells.tobytes() == db.cells.tobytes()


def test_snapshot_rejects_corruption(tmp_path):
    rng = random.Random(16)
    _, db = _random_database(rng, 9, 8)
    path = tmp_path / "db.qcub"
    db.save(path)
    blob = path.read_bytes()
    (tmp_path / "magic.qcub").write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(StorageError):
        Database.load(tmp_path / "magic.qcub")
    (tmp_path / "short.qcub").write_bytes(blob[:-3])
    with pytest.raises(StorageError):
        Database.load(tmp_path / "short.qcub")


def _write_records(tmp_path, payloads):
    lines = []
    for i, payload in enumerate(payloads):
        name = f"r{i}.bin"
        (tmp_path / name).write_bytes(payload)
        lines.append(f"{i} {len(payload)} {name}")
    manifest = tmp_path / "manifest.txt"
    manifest.write_text("# comment line\n" + "\n".join(lines) + "\n")
    return manifest


def test_manifest_roundtrip(tmp_path):
    payloads = [b"abc", b"", b"hello world", bytes(range(50))]
    manifest = _write_records(tmp_path, payloads)
    entries, lengths = load_manifest(manifest, tmp_path)
    assert entries == payloads
    assert lengths == [len(p) for p in payloads]


def test_manifest_rejects_gaps_and_mismatches(tmp_path):
    manifest = _write_records(tmp_path, [b"a", b"bb"])
    text = manifest.read_text().replace("1 2 r1.bin", "2 2 r1.bin")
    manifest.write_text(text)
    with pytest.raises(ValidationError, match="without gaps"):
        load_manifest(manifest, tmp_path)

    manifest = _write_records(tmp_path, [b"a", b"bb"])
    (tmp_path / "r1.bin").write_bytes(b"bbb")  # length lie
    with pytest.raises(ValidationError, match="manifest says"):
        load_manifest(manifest, tmp_path)

    (tmp_path / "empty.txt").write_text("# nothing\n")
    with pytest.raises(ValidationError, match="empty"):
        load_manifest(tmp_path / "empty.txt", tmp_path)
