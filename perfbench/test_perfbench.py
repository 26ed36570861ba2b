"""Tiny-scale self-check of the benchmark: PYTHONPATH=src python3 -m pytest -q perfbench"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
bench = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SCALE = 0.1


def _declared(kind):
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_benchmark_json_lists_what_run_emits():
    assert _declared("end_to_end") == bench.END_TO_END
    assert _declared("per_layer") == bench.PER_LAYER


def test_self_times_subtract_children():
    spans = [
        ["cli.main", 0, 100, -1],
        ["extrema.search", 10, 60, 0],
        ["wavefield.eval", 20, 30, 1],
        ["extrema.classify", 40, 50, 1],
        ["wavefield.eval", 42, 45, 3],
    ]
    got = bench.self_times(spans)
    assert got["cli.self_s"] == pytest.approx(50e-9)
    assert got["extrema.search_s"] == pytest.approx(30e-9)
    assert got["wavefield.eval_s"] == pytest.approx(13e-9)
    assert got["extrema.classify_s"] == pytest.approx(7e-9)
    assert sum(got.values()) == pytest.approx(100e-9)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_untraced(workload):
    result, _, failed_ratio = bench.run_workload(workload, 0, 0, 0, SCALE)
    assert failed_ratio == 0 and result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_traced(workload):
    result, _, failed_ratio = bench.run_workload(workload, 5, 0, 1, SCALE)
    assert failed_ratio == 0 and result["correct"]
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == bench.PER_LAYER
    assert metrics["cli.self_s"] > 0 and metrics["cli.output_bytes"] > 0
    busy = {
        "field": ("wavefield.series_s", "svgout.build_s", "svgout.write_s"),
        "series": ("wavefield.series_s", "identities.sweep_s"),
        "match": ("extrema.search_s", "extrema.classify_s", "pentagrid.register_s"),
        "tiling": ("pentagrid.tiles_s", "svgout.build_s"),
    }[workload]
    assert all(metrics[name] > 0 for name in busy)
    assert metrics["svgout.used_ratio"] == (0.0 if workload in ("series", "tiling") else 1.0)
    assert metrics["cli.outside_main_s"] > 0


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_layers_account_for_traced_wall_time(workload):
    """Outside cli.main, a traced child spends no more than about a bare import."""
    env = bench.child_env()
    setup = max(bench.setup_times(env, 3))
    invs = bench.invocations(workload, 5, SCALE)
    trace_dir = bench.ROOT / bench.OUT / "trace" / workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    tally = bench.Tally()
    walls = bench.run_pass(invs, env, None, tally, trace_dir)["invocation_walls"]
    assert tally.failed == 0
    for inv, wall in zip(invs, walls):
        trace_file = trace_dir / f"{inv.command}.json"
        spans = json.loads(trace_file.read_text(encoding="utf-8"))["spans"]
        inside = sum(bench.self_times(spans).values())
        assert inside == pytest.approx(bench.main_seconds(spans))
        assert 0 < wall - inside < 2 * setup + 0.25, (inv.command, wall, inside, setup)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "field", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
