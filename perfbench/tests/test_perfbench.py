"""Tests of the benchmark itself: metric names, determinism, a live gate.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import bench  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from qspir.netsvc import daemon as qspir_daemon  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_lists_the_metrics_the_benchmark_computes():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(bench.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert tuple(bench.WORKLOADS) == run.WORKLOAD_NAMES


def test_every_end_to_end_metric_prints_with_name_and_unit():
    proc = _run_cli("--workload", "paper-n800", "--seed", "3",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    for name, unit, _ in bench.END_TO_END:
        metric = result["metrics"][name]
        assert metric["unit"] == unit and metric["value"] > 0, name
        assert any(
            line.startswith(f"{name} ") and f" {unit} (samples " in line
            for line in lines
        ), name
    budget = bench.required_key_budget(800, bench.RECORD_BITS)
    assert result["metrics"]["user_dc_key_bits_per_retrieval"]["value"] \
        == budget.user_dc_bits == 172_314
    assert result["metrics"]["dc_pair_key_bits_per_retrieval"]["value"] \
        == budget.dc_dc_bits == 465_600


def test_same_seed_gives_identical_inputs():
    a, b = bench.Inputs(7, "paper-n800"), bench.Inputs(7, "paper-n800")
    assert (a.records(800) == b.records(800)).all()
    assert a.indices(64, 800) == b.indices(64, 800)
    assert a.pool_material(10_000) == b.pool_material(10_000)
    c = bench.Inputs(8, "paper-n800")
    assert (a.records(800) != c.records(800)).any()
    assert a.indices(64, 800) != c.indices(64, 800)


def _flip_first_answer(fn):
    flipped = []

    def faulty(cube, query):
        bundle = fn(cube, query)
        if flipped:
            return bundle
        flipped.append(True)
        a0 = bytes([bundle.a0[0] ^ 1]) + bundle.a0[1:]
        return dataclasses.replace(bundle, a0=a0)

    return faulty


def test_flipped_answer_bit_fails_the_gate(capsys):
    patches = spans.Patches()
    patches.replace(qspir_daemon, "compute_answer_bundle", _flip_first_answer)
    try:
        code = run.main(["--workload", "paper-n800", "--seed", "1",
                         "--seconds", "0.5", "--trace", "0"])
    finally:
        patches.undo()
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code != 0
    assert result["correct"] is False and result["failed"] == 1
    assert any("wrong record" in line for line in out)


def test_over_reservation_fails_the_gate(capsys):
    geometry = bench.SessionGeometry
    patches = spans.Patches()
    patches.replace(
        geometry, "mask_slice_bits",
        lambda prop: property(lambda self: prop.fget(self) + 8),
    )
    try:
        code = run.main(["--workload", "paper-n800", "--seed", "1",
                         "--seconds", "0.3", "--trace", "0"])
    finally:
        patches.undo()
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0 and result["failed"] > 0


def test_traced_deploy_run_reports_daemon_layers():
    started = time.perf_counter()
    report = bench.run("deploy-tcp-n800", 2, 3.0, True, ROOT, started)
    assert report.correct, report.tally.problems
    values = {name: value for name, (value, _u, _n) in report.metrics.items()}
    assert list(values) == [name for name, _u, _b in layers.PER_LAYER]
    for name in ("protocol.answer_ms", "masking.derive_ms", "cube.load_ms",
                 "netsvc.daemon.query_ms", "netsvc.tcp.wait_ms"):
        assert values[name] > 0, name
    assert values["keystore.reservations_per_retrieval"] == 10
    assert values["keystore.applies_per_retrieval"] == 10
    assert values["netsvc.tcp.connections_per_retrieval"] == 4
    assert values["keystore.applied_over_reserved.dc_pair"] == \
        pytest.approx(0.73)
    assert values["keystore.ledger_bytes_per_retrieval"] > 0
    assert values["qkd.toeplitz.hash_ms"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli("--workload", "paper-n800", "--seed", "1",
                    "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
