"""Command line harness for the wave-field pipelines.

Subcommands: field (sample the fields on a disk grid), identity (seeded
residual sweep), converge (truncation error versus bound per term count),
extrema (critical point search), tiling (dual rhombus generation), and
match (register dual tiling vertices against field extrema).

Every command is deterministic given its resolved configuration: flags
override an optional JSON config file, the resolved configuration is
echoed into the output directory as config.json, CSV cells carry full
round-trip float precision, and JSON is emitted with sorted keys.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 internal
contract violation (a computed result broke a guaranteed bound).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .extrema import (
    KIND_DEGENERATE,
    KIND_MAXIMUM,
    KIND_MINIMUM,
    KIND_SADDLE,
    default_search_config,
    find_critical_points,
    seed_count,
)
from .identities import suite_residual_breakdown
# matching_correspondences is unused here but stays importable as
# cli.matching_correspondences, a name perfbench/trace_child.py wraps.
from .pentagrid import (  # noqa: F401
    PentagridSpec,
    crossing_count,
    match_report,
    matching_correspondences,
    tiles,
)
from .svgout import SvgCanvas, clip_line_to_box, diverging_color
from .wavefield import (
    GOLDEN_RATIO,
    SeriesSpec,
    direction_basis,
    p5,
    s5,
    series_partial,
    series_term,
    tail_bound,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_CONTRACT = 4

# Cap on the sample grid, the extrema seed grid and the tiling crossings, each
# checked before its arrays are allocated.
_MAX_GRID_SAMPLES = 10 ** 8

# Bytes of the terms x points block of signed series terms that converge holds
# at once; the disk grid is processed in chunks of points sized to fit it.
_CONVERGE_BLOCK_BYTES = 1 << 25

_COMMANDS = (
    ("field", "sample s5, the leading product term, and the series on a disk grid"),
    ("identity", "seeded random sweep of the algebraic identity residuals"),
    ("converge", "truncation error versus the closed-form bound per term count"),
    ("extrema", "locate and classify critical points inside the disk"),
    ("tiling", "dualize the pentagrid to rhombus tiles over a square window"),
    ("match", "register dual tiling vertices against the field extrema"),
)

_CONFIG_KEYS = ("k", "radius", "terms", "grid_step", "seed", "out", "format")

# Per-module numeric overrides accepted under "tolerances" in a config file.
_TOLERANCE_KEYS = (
    "grad_tol",
    "eig_degenerate_tol",
    "seed_spacing",
    "dedupe_radius",
    "max_newton_steps",
    "singular_eps",
    "boundary_eps",
    "identity_num_points",
    "identity_k_min",
    "identity_k_max",
)

_DEFAULTS = {
    "k": 1.0,
    "radius": 10.0,
    "terms": 8,
    "grid_step": 0.25,
    "seed": 0,
    "out": "pentawave_out",
    "format": "csv,json",
}


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


class ContractViolation(Exception):
    """A computed result violated a bound the pipeline guarantees."""


@dataclass(frozen=True)
class RunConfig:
    command: str
    k: float
    radius: float
    terms: int
    grid_step: float
    seed: int
    out_dir: str
    formats: tuple[str, ...]
    tolerances: dict


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pentawave",
        description="Deterministic experiment harness for the fivefold wave field.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, help_text in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--k", type=float, default=None, help="wavenumber (default 1.0)")
        cmd.add_argument(
            "--radius", type=float, default=None, help="disk radius or window half-size (default 10)"
        )
        cmd.add_argument(
            "--terms", type=int, default=None, help="retained series terms (default 8)"
        )
        cmd.add_argument(
            "--grid-step", type=float, default=None, dest="grid_step",
            help="sampling grid pitch (default 0.25)",
        )
        cmd.add_argument("--seed", type=int, default=None, help="RNG seed (default 0)")
        cmd.add_argument("--out", type=str, default=None, help="output directory")
        cmd.add_argument(
            "--format", type=str, default=None,
            help="comma separated subset of csv,json,svg (default csv,json)",
        )
        cmd.add_argument(
            "--config", type=str, default=None,
            help="JSON file whose keys fill in unset flags; flags win",
        )
    return parser


def _load_config_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - set(_CONFIG_KEYS) - {"tolerances"}
    if unknown:
        raise ConfigError(f"unknown config file keys: {', '.join(sorted(unknown))}")
    return data


def resolve_config(args):
    """Merge flags over config-file values over defaults, then validate."""
    file_cfg = _load_config_file(args.config) if args.config else {}

    def pick(name):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        if name in file_cfg:
            return file_cfg[name]
        return _DEFAULTS[name]

    try:
        k = float(pick("k"))
        radius = float(pick("radius"))
        terms = int(pick("terms"))
        grid_step = float(pick("grid_step"))
        seed = int(pick("seed"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"non-numeric configuration value: {exc}") from exc
    out_dir = str(pick("out"))
    formats = tuple(part.strip() for part in str(pick("format")).split(",") if part.strip())

    if not (math.isfinite(k) and k > 0):
        raise ConfigError("k must be finite and positive")
    if not (math.isfinite(radius) and radius >= 0):
        raise ConfigError("radius must be finite and nonnegative")
    if terms < 0:
        raise ConfigError("terms must be nonnegative")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ConfigError("grid-step must be finite and positive")
    if not formats or not set(formats) <= {"csv", "json", "svg"}:
        raise ConfigError("format must be a nonempty subset of csv,json,svg")

    tolerances = file_cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a JSON object")
    unknown = set(tolerances) - set(_TOLERANCE_KEYS)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {', '.join(sorted(unknown))}")
    for key, value in tolerances.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"tolerance {key} must be numeric")
        if key in ("max_newton_steps", "identity_num_points"):
            tolerances[key] = int(value)
        else:
            tolerances[key] = float(value)

    return RunConfig(
        command=args.command,
        k=k,
        radius=radius,
        terms=terms,
        grid_step=grid_step,
        seed=seed,
        out_dir=out_dir,
        formats=formats,
        tolerances=dict(tolerances),
    )


def _config_dict(cfg):
    return {
        "command": cfg.command,
        "k": cfg.k,
        "radius": cfg.radius,
        "terms": cfg.terms,
        "grid_step": cfg.grid_step,
        "seed": cfg.seed,
        "out": cfg.out_dir,
        "formats": list(cfg.formats),
        "tolerances": cfg.tolerances,
    }


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    # repr of a Python float is the shortest round-trip decimal form
    return repr(float(value))


def _write_csv(cfg, name, header, rows):
    if "csv" not in cfg.formats:
        return
    path = os.path.join(cfg.out_dir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_json(cfg, name, report):
    if "json" not in cfg.formats:
        return
    payload = {"config": _config_dict(cfg), "report": report, "version": __version__}
    path = os.path.join(cfg.out_dir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_svg(cfg, name, draw):
    """Write the canvas draw() returns (None for no drawing); draw runs only if svg was requested."""
    if "svg" not in cfg.formats:
        return
    canvas = draw()
    if canvas is not None:
        canvas.write(os.path.join(cfg.out_dir, f"{name}.svg"))


def _config_checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError from the configured values reported as a config error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _echo_config(cfg):
    path = os.path.join(cfg.out_dir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_config_dict(cfg), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _disk_grid(radius, step):
    """Deterministic square lattice clipped to the disk, rows ordered by (x, y)."""
    n = int(math.floor(radius / step))
    total = (2 * n + 1) ** 2
    if total > _MAX_GRID_SAMPLES:
        suggestion = radius / (0.5 * (math.sqrt(_MAX_GRID_SAMPLES) - 1.0))
        raise ConfigError(
            f"grid of {total} samples exceeds {_MAX_GRID_SAMPLES}; "
            f"use --grid-step of at least {suggestion:.6g}"
        )
    vals = step * np.arange(-n, n + 1)
    gx, gy = np.meshgrid(vals, vals, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    return pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 <= radius ** 2]


def _check_count(count, what):
    """Refuse a run whose count of seeds or crossings exceeds _MAX_GRID_SAMPLES."""
    if not count <= _MAX_GRID_SAMPLES:
        raise ConfigError(
            f"{count:.6g} {what} exceed {_MAX_GRID_SAMPLES}; use a smaller --radius or --k"
        )


def _critical_points(cfg):
    allowed = ("seed_spacing", "grad_tol", "dedupe_radius", "max_newton_steps", "eig_degenerate_tol")
    overrides = {key: cfg.tolerances[key] for key in allowed if key in cfg.tolerances}
    search = _config_checked(default_search_config, cfg.k, cfg.radius, **overrides)
    _check_count(seed_count(search), "extrema seeds")
    return find_critical_points(cfg.k, search)


def _pentagrid_spec(cfg):
    return _config_checked(PentagridSpec, cfg.k / (2.0 * GOLDEN_RATIO))


def _tiles(cfg, spec, window):
    _check_count(crossing_count(spec, window), "tiling line crossings")
    return tiles(spec, window, singular_eps=cfg.tolerances.get("singular_eps"))


def _run_field(cfg):
    spec = _config_checked(SeriesSpec, cfg.k, cfg.terms)
    bound = _config_checked(tail_bound, cfg.k, cfg.radius, cfg.terms).scaled_bound
    lead_k = series_term(cfg.k, 0)[1]
    if not lead_k > 0:
        raise ConfigError("k is too small: the lead wavenumber k/(2*tau) underflows to zero")
    pts = _disk_grid(cfg.radius, cfg.grid_step)
    s5_vals = np.atleast_1d(s5(cfg.k, pts))
    lead_vals = np.atleast_1d(p5(lead_k, pts))
    series_vals = np.atleast_1d(series_partial(spec, pts))
    deviation = float(np.abs(s5_vals - series_vals).max())
    if deviation > bound:
        raise ContractViolation(
            f"series deviation {deviation:g} exceeds the scaled bound {bound:g}"
        )
    rows = zip(pts[:, 0], pts[:, 1], s5_vals, lead_vals, series_vals)
    _write_csv(cfg, "field", ["x", "y", "s5", "p5_lead", "series_N"], rows)
    report = {
        "num_samples": len(pts),
        "max_abs_series_deviation": deviation,
        "scaled_bound": bound,
        "num_terms": cfg.terms,
    }
    _write_json(cfg, "field", report)

    def draw():
        if cfg.radius == 0:
            return None
        canvas = SvgCanvas((-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
        stride = max(1, int(math.ceil(math.sqrt(len(pts) / 20000.0))))
        vmax = float(np.abs(s5_vals).max()) or 1.0
        half = 0.5 * cfg.grid_step * stride
        for (x, y), value in zip(pts[::stride], s5_vals[::stride]):
            canvas.polygon(
                [(x - half, y - half), (x + half, y - half), (x + half, y + half), (x - half, y + half)],
                fill=diverging_color(value, vmax),
                stroke="none",
            )
        canvas.world_circle((0.0, 0.0), cfg.radius, stroke="#333333", width=1.5)
        return canvas

    _write_svg(cfg, "field", draw)
    return EXIT_OK


def _run_identity(cfg):
    tol = cfg.tolerances
    num_points = int(tol.get("identity_num_points", 10000))
    k_lo = float(tol.get("identity_k_min", 0.1))
    k_hi = float(tol.get("identity_k_max", 10.0))
    breakdown = _config_checked(
        suite_residual_breakdown, num_points, cfg.seed, (k_lo, k_hi), cfg.radius
    )
    worst = max(breakdown.values())
    allowance = 1e-9 * (1.0 + k_hi * cfg.radius) ** 5
    if worst > allowance:
        raise ContractViolation(
            f"identity residual {worst:g} exceeds the allowance {allowance:g}"
        )
    _write_csv(
        cfg,
        "identity",
        ["check", "max_abs_residual"],
        sorted(breakdown.items()),
    )
    report = {
        "max_abs_residual": worst,
        "num_points": num_points,
        "rng_seed": cfg.seed,
        "per_identity": breakdown,
        "allowance": allowance,
    }
    _write_json(cfg, "identity", report)
    if "svg" in cfg.formats:
        print("identity: no svg output defined for this command", file=sys.stderr)
    return EXIT_OK


def _series_max_errors(spec, pts, s5_vals):
    """max |s5_vals - series_partial(SeriesSpec(spec.k, N), pts)| for N = 0..spec.num_terms.

    Each series term is evaluated once, through p5, over a chunk of points;
    the terms are then re-added for every N in series_partial's order (from
    zero, n = N-1 down to 0), so each maximum equals the one-N-at-a-time result
    bit for bit.
    """
    terms = spec.num_terms
    params = [series_term(spec.k, n) for n in range(terms)]
    chunk = max(2, _CONVERGE_BLOCK_BYTES // (8 * max(1, terms)))
    # No chunk starts at the last point of a larger grid: numpy projects a lone
    # point with a BLAS matrix-vector call, which can round differently from
    # the matrix-matrix call series_partial makes on the whole grid.
    edges = [*range(0, max(len(pts) - 1, 1), chunk), len(pts)]
    maxima = []
    for start, stop in zip(edges, edges[1:]):
        part = pts[start:stop]
        block = np.empty((terms, len(part)))
        for n, (coeff, kn) in enumerate(params):
            # a wavenumber that underflowed to zero makes a zero term
            block[n] = coeff * p5(kn, part) if kn > 0 else 0.0
        total = np.empty(len(part))
        errors = []
        for num in range(terms + 1):
            total.fill(0.0)
            for n in range(num - 1, -1, -1):
                total += block[n]
            errors.append(np.abs(s5_vals[start:stop] - 16.0 * total).max())
        maxima.append(errors)
    return np.max(maxima, axis=0)


def _run_converge(cfg):
    spec = _config_checked(SeriesSpec, cfg.k, cfg.terms)
    bounds = [
        _config_checked(tail_bound, cfg.k, cfg.radius, n).scaled_bound
        for n in range(cfg.terms + 1)
    ]
    pts = _disk_grid(cfg.radius, cfg.grid_step)
    s5_vals = np.atleast_1d(s5(cfg.k, pts))
    errors = _series_max_errors(spec, pts, s5_vals)
    rows = list(zip(range(cfg.terms + 1), map(float, errors), bounds))
    for n, err, bound in rows:
        if err > bound:
            raise ContractViolation(
                f"max error {err:g} exceeds bound {bound:g} at {n} terms"
            )
    _write_csv(cfg, "converge", ["N", "max_error", "bound"], rows)
    report = {
        "num_samples": len(pts),
        "rows": [{"N": n, "max_error": e, "bound": b} for n, e, b in rows],
    }
    _write_json(cfg, "converge", report)

    def draw():
        positive = [v for _, e, b in rows for v in (e, b) if v > 0]
        if not positive:
            return None
        lo = math.floor(math.log10(min(positive))) - 1
        hi = math.ceil(math.log10(max(positive))) + 1
        canvas = SvgCanvas((-0.5, cfg.terms + 0.5, lo, hi))

        def chart_y(value):
            return math.log10(value) if value > 0 else lo

        for series, color in ((1, "#cc3333"), (2, "#3355cc")):
            for (n0, *v0), (n1, *v1) in zip(rows, rows[1:]):
                canvas.line(
                    (n0, chart_y(v0[series - 1])),
                    (n1, chart_y(v1[series - 1])),
                    stroke=color,
                    width=2.0,
                )
        canvas.line((0, lo), (cfg.terms, lo), stroke="#222222", width=1.0)
        canvas.text((0.0, hi - 0.5), "log10 max_error (red), log10 bound (blue)")
        return canvas

    _write_svg(cfg, "converge", draw)
    return EXIT_OK


_KIND_COLORS = {
    KIND_MAXIMUM: "#cc3333",
    KIND_MINIMUM: "#3355cc",
    KIND_SADDLE: "#999999",
    KIND_DEGENERATE: "#dd8800",
}


def _run_extrema(cfg):
    if cfg.radius <= 0:
        raise ConfigError("extrema requires a positive radius")
    points = _critical_points(cfg)
    rows = [
        (cp.location[0], cp.location[1], cp.value, cp.kind, cp.eigenvalues[0], cp.eigenvalues[1])
        for cp in points
    ]
    _write_csv(cfg, "extrema", ["x", "y", "value", "kind", "eig_low", "eig_high"], rows)
    counts = {kind: 0 for kind in _KIND_COLORS}
    for cp in points:
        counts[cp.kind] += 1
    report = {"num_points": len(points), "counts": counts}
    _write_json(cfg, "extrema", report)

    def draw():
        canvas = SvgCanvas((-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
        canvas.world_circle((0.0, 0.0), cfg.radius, stroke="#333333", width=1.5)
        for cp in points:
            canvas.circle(cp.location, 3.0, fill=_KIND_COLORS[cp.kind])
        return canvas

    _write_svg(cfg, "extrema", draw)
    return EXIT_OK


def _run_tiling(cfg):
    if cfg.radius <= 0:
        raise ConfigError("tiling requires a positive radius")
    spec = _pentagrid_spec(cfg)
    patch = _tiles(cfg, spec, (-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
    rows = []
    for tile in patch.tiles:
        flat = [coord for vertex in tile.vertices for coord in vertex]
        rows.append(
            (tile.kind, tile.families[0], tile.families[1], tile.intersection[0], tile.intersection[1], *flat)
        )
    header = ["kind", "family_i", "family_j", "cross_x", "cross_y",
              "x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3"]
    _write_csv(cfg, "tiling", header, rows)
    num_thin = sum(1 for t in patch.tiles if t.kind == "thin")
    report = {
        "num_tiles": len(patch.tiles),
        "num_thin": num_thin,
        "num_thick": len(patch.tiles) - num_thin,
        "skipped_singular": patch.skipped_singular,
        "grid_wavenumber": spec.c,
        "spacing": spec.spacing,
    }
    _write_json(cfg, "tiling", report)

    def draw():
        if not patch.tiles:
            return None
        verts = np.array([v for t in patch.tiles for v in t.vertices])
        pad = 1.0
        canvas = SvgCanvas(
            (verts[:, 0].min() - pad, verts[:, 0].max() + pad,
             verts[:, 1].min() - pad, verts[:, 1].max() + pad)
        )
        fills = {"thin": "#f0d060", "thick": "#6090c0"}
        for tile in patch.tiles:
            canvas.polygon(tile.vertices, fill=fills[tile.kind], stroke="#333333",
                           width=0.8, opacity=0.85)
        return canvas

    _write_svg(cfg, "tiling", draw)
    return EXIT_OK


def _run_match(cfg):
    if cfg.radius <= 0:
        raise ConfigError("match requires a positive radius")
    spec = _pentagrid_spec(cfg)
    critical_points = _critical_points(cfg)
    try:
        report_obj = match_report(spec, critical_points, disk_radius=cfg.radius,
                                  boundary_eps=cfg.tolerances.get("boundary_eps"))
    except ValueError as exc:
        payload = {
            "config": _config_dict(cfg),
            "error": str(exc),
            "report": None,
            "version": __version__,
        }
        path = os.path.join(cfg.out_dir, "match.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"match: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    report = {
        "num_extrema": report_obj.num_extrema,
        "num_regions_hit": report_obj.num_regions_hit,
        "regions_with_exactly_one": report_obj.regions_with_exactly_one,
        "residuals": list(report_obj.residuals),
        "mean_residual": report_obj.mean_residual,
        "median_residual": report_obj.median_residual,
        "max_residual": report_obj.max_residual,
        "excluded_near_singular": report_obj.excluded_near_singular,
        "dual_position_collisions": report_obj.dual_position_collisions,
        "transform": {
            "scale": report_obj.transform.scale,
            "rotation": report_obj.transform.rotation,
            "translation": list(report_obj.transform.translation),
        },
    }
    _write_json(cfg, "match", report)

    trips = report_obj.correspondences
    rows = [
        (cp.location[0], cp.location[1], cp.kind, *iv, dv.position[0], dv.position[1], residual)
        for (cp, iv, dv), residual in zip(trips, report_obj.residuals)
    ]
    header = ["x", "y", "kind", "m0", "m1", "m2", "m3", "m4", "dual_x", "dual_y", "residual"]
    _write_csv(cfg, "match", header, rows)

    def draw():
        bbox = (-cfg.radius, cfg.radius, -cfg.radius, cfg.radius)
        canvas = SvgCanvas(bbox)
        reach = int(math.ceil(cfg.radius * math.sqrt(2.0) / spec.spacing))
        for normal in direction_basis():
            tangent = (-normal[1], normal[0])
            for m in range(-reach, reach + 1):
                anchor = (m * spec.spacing * normal[0], m * spec.spacing * normal[1])
                seg = clip_line_to_box(anchor, tangent, bbox)
                if seg:
                    canvas.line(seg[0], seg[1], stroke="#cccccc", width=0.6)
        transform = report_obj.transform
        patch = _tiles(cfg, spec, bbox)
        quads = transform.apply(np.array([t.vertices for t in patch.tiles]).reshape(-1, 4, 2))
        for quad in quads:
            canvas.polygon(quad.tolist(), fill="none", stroke="#77aa77", width=0.8)
        duals = transform.apply(np.array([dv.position for _, _, dv in trips]))
        for (cp, _, _), dual in zip(trips, duals.tolist()):
            canvas.line(dual, cp.location, stroke="#dd8800", width=1.2)
        for cp in critical_points:
            if cp.kind in (KIND_MAXIMUM, KIND_MINIMUM):
                canvas.circle(cp.location, 2.5, fill=_KIND_COLORS[cp.kind])
        canvas.world_circle((0.0, 0.0), cfg.radius, stroke="#333333", width=1.5)
        return canvas

    _write_svg(cfg, "match", draw)
    return EXIT_OK


_RUNNERS = {
    "field": _run_field,
    "identity": _run_identity,
    "converge": _run_converge,
    "extrema": _run_extrema,
    "tiling": _run_tiling,
    "match": _run_match,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"pentawave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        os.makedirs(cfg.out_dir, exist_ok=True)
        _echo_config(cfg)
        return _RUNNERS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"pentawave: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"pentawave: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ContractViolation as exc:
        print(f"pentawave: contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
