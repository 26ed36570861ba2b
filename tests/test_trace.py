"""Smoke test of perfbench/trace_child.py, the benchmark's traced child, on tiny runs.

The child wraps pentawave names from outside, so it fails at once when one of them is
deleted or changes its signature. Some names are kept only for it: TilingPatch.tiles,
which it counts with len, the one-element SvgCanvas.circle and polygon,
cli.matching_correspondences, and the three-argument FieldTriple it times the search
through. All six commands run; each must exit 0 and write a spans file that parses.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = {
    "match": ["match", "--radius", "20", "--format", "csv,json,svg"],
    "tiling": ["tiling", "--radius", "60", "--format", "json"],
    "field": ["field", "--radius", "1.4", "--grid-step", "0.05", "--terms", "12",
              "--format", "csv,json,svg"],
    "extrema": ["extrema", "--radius", "5", "--format", "csv,json,svg"],
    "identity": ["identity", "--radius", "2", "--format", "csv,json"],
    "converge": ["converge", "--radius", "2", "--terms", "10", "--format", "csv,json,svg"],
}


def _traced(tmp_path, argv):
    """Run trace_child.py on one CLI command; returns its parsed spans file and output dir."""
    spans, out = tmp_path / "spans.json", tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace_child.py"), str(spans), *argv,
         "--out", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans.read_text(encoding="utf-8")), out


@pytest.mark.parametrize("command", list(RUNS))
def test_trace_child_runs_each_command(tmp_path, command):
    trace, out = _traced(tmp_path, RUNS[command])
    assert trace["exit"] == 0
    kinds = {span[0] for span in trace["spans"]}
    assert "cli.main" in kinds
    counts = trace["counts"]
    if command == "tiling":
        report = json.loads((out / "tiling.json").read_text(encoding="utf-8"))["report"]
        assert counts["pentagrid.tiles"] == report["num_tiles"] > 0
    if command == "match":
        report = json.loads((out / "match.json").read_text(encoding="utf-8"))["report"]
        assert {"extrema.search", "pentagrid.register", "svgout.write"} <= kinds
        assert counts["extrema.critical_points"] > report["num_extrema"] > 0
    if command == "field":
        assert {"wavefield.eval", "wavefield.series", "svgout.write"} <= kinds
    if command == "extrema":
        report = json.loads((out / "extrema.json").read_text(encoding="utf-8"))["report"]
        assert counts["extrema.critical_points"] == report["num_points"] > 0
    if command == "identity":
        report = json.loads((out / "identity.json").read_text(encoding="utf-8"))["report"]
        assert counts["identities.points"] == report["num_points"] > 0
    if command == "converge":
        assert "svgout.write" in kinds
