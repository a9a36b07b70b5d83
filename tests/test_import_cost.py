"""The retrieval path loads no SciPy; the key layer still computes the same.

``serve-dc``, ``get`` and ``ingest`` import ``qspir.cli``, which imports the
``qkd`` package. SciPy is imported inside the two functions that call it,
so only a distillation pays for loading it.
"""

import json
import os
import subprocess
import sys

import qspir
from qspir.qkd.channel import ChannelModel, ProtocolParams, simulate_tallies
from qspir.qkd.toeplitz import toeplitz_hash
from qspir.rng import BitSource

N_BITS = 5000
OUT_LEN = 1200

CHILD = f"""
import json, sys
import qspir.cli, qspir.netsvc, qspir.topology, qspir.qkd
loaded = sorted(
    k for k in sys.modules if k == "scipy" or k.startswith("scipy.")
)
from qspir.qkd.channel import ChannelModel, ProtocolParams, simulate_tallies
from qspir.qkd.toeplitz import toeplitz_hash
from qspir.rng import BitSource
data = BitSource("import-data").take_bytes({(N_BITS + 7) // 8})
seed = BitSource("import-seed").take_bytes({(N_BITS + OUT_LEN + 6) // 8})
digest = toeplitz_hash(data, {N_BITS}, seed, {OUT_LEN}, method="fft")
tallies = simulate_tallies(ChannelModel(), ProtocolParams())
print(json.dumps({{
    "scipy_before": loaded,
    "hash": digest.hex(),
    "tallies": repr((tallies.sent, tallies.coinc, tallies.errors)),
}}))
"""


def test_retrieval_modules_load_no_scipy_and_key_layer_is_unchanged():
    src_dir = os.path.dirname(os.path.dirname(qspir.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    ).stdout
    child = json.loads(out)

    assert child["scipy_before"] == []

    data = BitSource("import-data").take_bytes((N_BITS + 7) // 8)
    seed = BitSource("import-seed").take_bytes((N_BITS + OUT_LEN + 6) // 8)
    digest = toeplitz_hash(data, N_BITS, seed, OUT_LEN, method="fft")
    assert child["hash"] == digest.hex()
    assert digest == toeplitz_hash(data, N_BITS, seed, OUT_LEN, "naive")
    tallies = simulate_tallies(ChannelModel(), ProtocolParams())
    assert child["tallies"] == repr(
        (tallies.sent, tallies.coinc, tallies.errors)
    )
