#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the pentawave CLI.

Run from the repository root (the checkout holding ``src/pentawave``):

    python3 perfbench/run.py --workload match --seed 0 --seconds 55 --trace 0

Each workload launches the real CLI (``python3 -m pentawave.cli``, with the
checkout's ``src`` on ``PYTHONPATH``) as child processes, one at a time, and
repeats the whole workload (a "pass") until ``--seconds`` is used up. Every
invocation's exit code and outputs are checked. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced passes with passes
through ``trace_child.py`` and reports per-layer self times and counts.
A table of every metric goes to stdout, then one JSON line with the result.
See ``README.md`` next to this file for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Relative on purpose: config.json and every report echo --out, and the
# recorded digests hold for this exact string.
OUT = ".perfbench_out"
DIGESTS = HERE / "digests.json"

# One thread for OpenBLAS/OpenMP in every child: with default threading the
# series workload spends more CPU than wall time and its wall time spreads
# more. Outputs are byte-identical either way.
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = ("field", "series", "match", "tiling")
MIN_PASSES = 3
SETUP_REPEATS = 11
# Item count of each workload's counting invocation at full scale, k = 1.
FULL_SCALE_ITEMS = {"field": 246245, "converge": 502617, "match": 4970, "tiling": 104574}
# Other seeds change k, which moves lattice points across the disk edge.
ITEMS_REL_TOL = 0.005
IDENTITY_POINTS = 400000

# tests/test_acceptance.py: criterion 8, `match --k 1 --radius 40 --seed 7`.
PINNED_MATCH_ARGS = ["match", "--k", "1", "--radius", "40", "--seed", "7"]
PINNED_MATCH = {
    "num_extrema": 130,
    "num_regions_hit": 110,
    "regions_with_exactly_one": 90,
    "mean_residual": 0.25417661094469146,
    "median_residual": 0.1504318860116373,
    "max_residual": 0.868493163255616,
}

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Span kind (see trace_child.py) -> per-layer self-time metric.
SELF_TIME = {
    "wavefield.series": "wavefield.series_s",
    "wavefield.eval": "wavefield.eval_s",
    "identities.sweep": "identities.sweep_s",
    "extrema.search": "extrema.search_s",
    "extrema.classify": "extrema.classify_s",
    "pentagrid.tiles": "pentagrid.tiles_s",
    "pentagrid.register": "pentagrid.register_s",
    "svgout.build": "svgout.build_s",
    "svgout.write": "svgout.write_s",
    "cli.main": "cli.self_s",
}
COUNTS = (
    "wavefield.series_term_points",
    "wavefield.eval_calls",
    "wavefield.eval_points",
    "identities.points",
    "extrema.classify_calls",
    "extrema.seeds",
    "extrema.critical_points",
    "pentagrid.tiles",
    "pentagrid.register_calls",
    "svgout.elements",
)
PER_LAYER = {
    **{name: "s" for name in SELF_TIME.values()},
    **{name: "count" for name in COUNTS},
    "extrema.yield": "1",
    "svgout.used_ratio": "1",
    "cli.output_bytes": "B",
    "cli.outside_main_s": "s",
    "trace.overhead_ratio": "1",
}


@dataclass(frozen=True)
class Invocation:
    command: str
    argv: tuple[str, ...]
    out: Path
    report_key: str  # report field holding this invocation's item count
    expected: int | None  # exact item count to require, if known
    counts_items: bool  # whether report_key is the workload's item count


def wavenumber(seed):
    """k = 1 for the default seed 0, else uniform in [0.9, 1.1] from the seed."""
    return 1.0 if seed == 0 else 0.9 + 0.2 * random.Random(seed).random()


def invocations(workload, seed, scale=1.0):
    """The CLI invocations of one workload pass, with radii and pitch divided by k.

    For series this also writes the identity config file its argv names.
    """
    k = wavenumber(seed)
    step = repr(0.05 / k)

    def radius(r):
        return repr(r * scale / k)

    points = int(IDENTITY_POINTS * scale * scale)
    runs = {
        "field": [("field", ["--radius", radius(14), "--grid-step", step, "--terms", "12",
                             "--format", "csv,json,svg"], "num_samples")],
        "series": [
            ("converge", ["--radius", radius(20), "--grid-step", step, "--terms", "14",
                          "--format", "csv,json"], "num_samples"),
            ("identity", ["--radius", radius(10), "--config", f"{OUT}/{workload}-identity.json"],
             "num_points"),
        ],
        "match": [("match", ["--radius", radius(200), "--format", "csv,json,svg"], "num_extrema")],
        "tiling": [("tiling", ["--radius", radius(600), "--format", "json"], "num_tiles")],
    }[workload]
    out = []
    for command, flags, key in runs:
        full = FULL_SCALE_ITEMS.get(command) if scale == 1.0 else None
        out.append(Invocation(
            command=command,
            argv=(command, "--k", repr(k), "--seed", str(seed), *flags,
                  "--out", f"{OUT}/{workload}/{command}"),
            out=ROOT / OUT / workload / command,
            report_key=key,
            expected=points if command == "identity" else full,
            counts_items=command != "identity",
        ))
    if workload == "series":
        config = ROOT / OUT / f"{workload}-identity.json"
        config.parent.mkdir(parents=True, exist_ok=True)
        config.write_text(json.dumps({"tolerances": {"identity_num_points": points}}) + "\n")
    return out


def child_env():
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    )
    return env


def launch(argv, env):
    """Run one child to completion; returns (exit code, wall s, cpu s, max RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def output_digests(out):
    return {p.relative_to(out).as_posix(): sha256(p) for p in sorted(out.rglob("*")) if p.is_file()}


def _failed(what, why):
    print(f"perfbench: {what} failed: {why}", file=sys.stderr)
    return None


def check(inv, code, digests):
    """Item count of a correct invocation, or None (with a message) if a check failed."""
    if code != 0:
        return _failed(inv.command, f"exit code {code}")
    if digests is not None:
        got = output_digests(inv.out)
        want = digests.get(inv.command, {})
        if got != want:
            wrong = sorted(name for name in got.keys() | want.keys() if got.get(name) != want.get(name))
            return _failed(inv.command, f"sha256 differs from digests.json for {', '.join(wrong)}")
    try:
        with open(inv.out / f"{inv.command}.json", encoding="utf-8") as fh:
            items = int(json.load(fh)["report"][inv.report_key])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return _failed(inv.command, f"no report {inv.report_key}: {exc!r}")
    if inv.expected is not None:
        slack = 0 if digests is not None or inv.command == "identity" else ITEMS_REL_TOL
        if abs(items - inv.expected) > slack * inv.expected:
            return _failed(inv.command, f"{inv.report_key} is {items}, expected {inv.expected}")
    elif items <= 0:
        return _failed(inv.command, f"{inv.report_key} is {items}")
    return items


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok):
        self.attempted += 1
        self.failed += not ok


def run_pass(invs, env, digests, tally, trace_dir=None):
    """One pass over a workload's invocations, traced when trace_dir is given."""
    for inv in invs:
        shutil.rmtree(inv.out, ignore_errors=True)
        if trace_dir is not None:
            (trace_dir / f"{inv.command}.json").unlink(missing_ok=True)
    results = []
    start = time.perf_counter()
    for inv in invs:
        if trace_dir is None:
            argv = [sys.executable, "-m", "pentawave.cli", *inv.argv]
        else:
            argv = [sys.executable, str(HERE / "trace_child.py"),
                    str(trace_dir / f"{inv.command}.json"), *inv.argv]
        results.append(launch(argv, env))
    wall = time.perf_counter() - start
    items = 0
    for inv, (code, *_) in zip(invs, results):
        counted = check(inv, code, digests)
        tally.record(counted is not None)
        if counted is not None and inv.counts_items:
            items += counted
    return {
        "wall_s": wall,
        "cpu_s": sum(r[2] for r in results),
        "peak_rss_mb": max(r[3] for r in results),
        "items_per_s": items / wall,
        "invocation_walls": [r[1] for r in results],
    }


def self_times(spans):
    """Per-layer self time in seconds: each span's duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals = dict.fromkeys(SELF_TIME.values(), 0.0)
    for (kind, *_), ns in zip(spans, own):
        totals[SELF_TIME[kind]] += ns / 1e9
    return totals


def main_seconds(spans):
    """Duration of the root span, cli.main, in seconds."""
    (root,) = [span for span in spans if span[3] == -1]
    return (root[2] - root[1]) / 1e9


def layer_metrics(invs, trace_dir, walls):
    """Per-layer metrics of one traced pass, summed over its invocations.

    walls holds each traced child's wall time; the part of it outside
    cli.main (interpreter start, imports, writing the spans) is
    cli.outside_main_s. An invocation that crashed before writing its spans
    is left out; its failed check already marks the run incorrect.
    """
    values = dict.fromkeys(
        [*SELF_TIME.values(), *COUNTS, "cli.output_bytes", "cli.outside_main_s"], 0.0
    )
    written = 0
    for inv, wall in zip(invs, walls):
        path = trace_dir / f"{inv.command}.json"
        if not path.is_file():
            continue
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        for name, seconds in self_times(trace["spans"]).items():
            values[name] += seconds
        values["cli.outside_main_s"] += wall - main_seconds(trace["spans"])
        for name in COUNTS:
            values[name] += trace["counts"].get(name, 0)
        written += trace["counts"].get("svgout.written", 0)
        values["cli.output_bytes"] += sum(p.stat().st_size for p in inv.out.rglob("*") if p.is_file())
    seeds, elements = values["extrema.seeds"], values["svgout.elements"]
    values["extrema.yield"] = values["extrema.critical_points"] / seeds if seeds else 0.0
    values["svgout.used_ratio"] = written / elements if elements else 1.0
    return values


def setup_times(env, repeats):
    """Wall time of a child that only imports pentawave.cli, after one warm-up."""
    argv = [sys.executable, "-c", "import pentawave.cli"]
    code = launch(argv, env)[0]
    if code != 0:
        raise SystemExit(f"perfbench: `import pentawave.cli` failed with exit code {code}")
    return [launch(argv, env)[1] for _ in range(repeats)]


def check_pinned_match(env, tally):
    """The criterion-8 registration run, untimed, against its pinned report values."""
    out = f"{OUT}/pinned"
    shutil.rmtree(ROOT / out, ignore_errors=True)
    code = launch([sys.executable, "-m", "pentawave.cli", *PINNED_MATCH_ARGS, "--out", out], env)[0]
    ok = code == 0
    if ok:
        with open(ROOT / out / "match.json", encoding="utf-8") as fh:
            report = json.load(fh)["report"]
        wrong = [key for key, want in PINNED_MATCH.items() if report[key] != want]
        ok = not wrong
        if wrong:
            _failed("criterion-8 match", f"{', '.join(wrong)} differ from the pinned values")
    else:
        _failed("criterion-8 match", f"exit code {code}")
    tally.record(ok)


def spread(values):
    """(median, first quartile, third quartile, count)."""
    if len(values) < 2:
        return values[0], values[0], values[0], len(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, len(values)


def run_workload(workload, seed, seconds, trace, scale=1.0):
    """Measure one workload; returns (result dict, {metric: samples}, failed_ratio)."""
    env = child_env()
    invs = invocations(workload, seed, scale)
    digests = None
    if seed == 0 and scale == 1.0:
        digests = json.loads(DIGESTS.read_text(encoding="utf-8"))[workload]
    tally = Tally()
    check_pinned_match(env, tally)
    samples = {}
    if not trace:
        samples["setup_s"] = setup_times(env, SETUP_REPEATS)
    trace_dir = ROOT / OUT / "trace" / workload
    trace_dir.mkdir(parents=True, exist_ok=True)
    untraced, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        untraced.append(run_pass(invs, env, digests, tally))
        if trace:
            traced.append(run_pass(invs, env, digests, tally, trace_dir))
            layers.append(layer_metrics(invs, trace_dir, traced[-1]["invocation_walls"]))
        elapsed = time.perf_counter() - start
        done = len(untraced) >= (1 if trace else MIN_PASSES)
        if done and elapsed * (1 + 1 / len(untraced)) > seconds:
            break
    if trace:
        for name in PER_LAYER:
            if name != "trace.overhead_ratio":
                samples[name] = [layer[name] for layer in layers]
        ratio = (statistics.median(p["wall_s"] for p in traced)
                 / statistics.median(p["wall_s"] for p in untraced) - 1.0)
        samples["trace.overhead_ratio"] = [ratio]
        units = PER_LAYER
    else:
        for name in ("wall_s", "cpu_s", "items_per_s", "peak_rss_mb"):
            samples[name] = [p[name] for p in untraced]
        units = END_TO_END
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in units.items()
        },
    }
    return result, samples, tally.failed / tally.attempted


def print_table(workload, samples, failed_ratio):
    print(f"workload {workload}")
    print(f"  {'metric':30s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>3s}  unit")
    units = {**END_TO_END, **PER_LAYER}
    for name, values in samples.items():
        median, q1, q3, n = spread(values)
        print(f"  {name:30s} {median:14.6g} {q1:14.6g} {q3:14.6g} {n:3d}  {units[name]}")
    print(f"  {'failed_ratio':30s} {failed_ratio:14.6g} {'':14s} {'':14s} {'':3s}  1")


def record_digests():
    """Rewrite digests.json from one default-seed pass of every workload."""
    env = child_env()
    recorded = {}
    for workload in WORKLOADS:
        invs = invocations(workload, 0)
        run_pass(invs, env, None, Tally())
        recorded[workload] = {inv.command: output_digests(inv.out) for inv in invs}
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true",
                        help="rewrite digests.json from the default seed and exit")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pentawave" / "cli.py").is_file():
        print("perfbench: run from a pentawave checkout (src/pentawave/cli.py not found)",
              file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result, samples, failed_ratio = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_table(args.workload, samples, failed_ratio)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
