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
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .extrema import (
    KIND_MAXIMUM,
    KIND_MINIMUM,
    KINDS,
    check_search_grid,
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
from .svgout import SvgCanvas, clip_line_to_box, diverging_colors
from .wavefield import (
    GOLDEN_RATIO,
    SeriesSpec,
    _disk_lattice_blocks,
    _map_blocks,
    _sin_prod,
    _sin_sum,
    _whole_lattice,
    direction_basis,
    p5,
    project,
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

# Bytes of the terms x points block of signed series terms that each worker of
# the block pool holds at once; the disk grid is processed in chunks of points
# sized to fit it.
_CONVERGE_BLOCK_BYTES = 1 << 21

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

# Config-file keys that must hold whole numbers; every other key but out and format
# holds a float.
_WHOLE_KEYS = ("terms", "seed", "max_newton_steps", "identity_num_points")

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


def _config_value(key, value, prefix=""):
    """A config-file value, checked; prefix + key names it in the messages.

    out and format must be strings. Every other key must hold a finite JSON
    number, not a bool, and is returned as a float, or for _WHOLE_KEYS as an
    int, exact if it was one.
    """
    what = prefix + key
    if key in ("out", "format"):
        if not isinstance(value, str):
            raise ConfigError(f"{what} must be a string")
        return value
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{what} must be numeric")
    try:
        number = float(value)
    except OverflowError as exc:
        raise ConfigError(f"{what} is out of range") from exc
    if not math.isfinite(number):
        raise ConfigError(f"{what} must be finite")
    if key not in _WHOLE_KEYS:
        return number
    if not number.is_integer():
        raise ConfigError(f"{what} must be a whole number, not {number!r}")
    return int(value)


def resolve_config(args):
    """Merge flags over config-file values over defaults, then validate.

    Every value in the config file is checked, also one a flag overrides.
    """
    file_cfg = _load_config_file(args.config) if args.config else {}
    file_values = {
        key: _config_value(key, value) for key, value in file_cfg.items() if key != "tolerances"
    }

    def pick(name):
        flag = getattr(args, name)
        if flag is not None:
            return flag
        return file_values.get(name, _DEFAULTS[name])

    k, radius, terms, grid_step, seed = map(pick, ("k", "radius", "terms", "grid_step", "seed"))
    out_dir = pick("out")
    formats = tuple(part.strip() for part in pick("format").split(",") if part.strip())

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
    resolved = {key: _config_value(key, value, "tolerance ") for key, value in tolerances.items()}

    return RunConfig(
        command=args.command,
        k=k,
        radius=radius,
        terms=terms,
        grid_step=grid_step,
        seed=seed,
        out_dir=out_dir,
        formats=formats,
        tolerances=resolved,
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


def _cells(column):
    """CSV cells of one column: floats as repr, the shortest round-trip decimal form."""
    values = np.asarray(column)
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def _write_csv(cfg, name, header, columns):
    """Write the table given column by column, one column per header name.

    Cells are joined by commas and never quoted: every cell is a float repr,
    an int or a fixed name, none of which holds a comma, a quote or a line
    break. Rows are checked for that a chunk at a time, by counting.
    """
    if "csv" not in cfg.formats:
        return
    rows = itertools.chain([header], zip(*map(_cells, columns)))
    path = os.path.join(cfg.out_dir, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        while lines := [",".join(row) for row in itertools.islice(rows, 1 << 12)]:
            text = "\n".join(lines) + "\n"
            assert text.count(",") == len(lines) * (len(header) - 1), "a CSV cell holds a comma"
            assert text.count("\n") == len(lines), "a CSV cell holds a line break"
            assert '"' not in text and "\r" not in text, "a CSV cell holds a quote or a return"
            fh.write(text)


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_json(cfg, name, report):
    if "json" not in cfg.formats:
        return
    payload = {"config": _config_dict(cfg), "report": report, "version": __version__}
    _dump_json(os.path.join(cfg.out_dir, f"{name}.json"), payload)


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


def _disk_blocks(radius, step, size):
    """The half grid of wavefield._disk_lattice_blocks, once the whole grid is within the cap."""
    # counted in floats, so an overflowing grid is refused instead of raising
    side = 2.0 * float(np.floor(radius / step)) + 1.0
    suggestion = radius / (0.5 * (math.sqrt(_MAX_GRID_SAMPLES) - 1.0))
    _check_count(side * side, "disk grid samples", f"--grid-step of at least {suggestion:.6g}")
    yield from _disk_lattice_blocks(radius, step, size)


def _disk_grid(radius, step):
    """The whole disk grid of _disk_blocks as one array; the block size leaves its rows unchanged."""
    return _whole_lattice(np.concatenate(list(_disk_blocks(radius, step, 1 << 16))))


def _check_count(count, what, remedy="a smaller --radius or --k"):
    """Refuse a run whose count of seeds, crossings or samples exceeds _MAX_GRID_SAMPLES."""
    if not count <= _MAX_GRID_SAMPLES:
        raise ConfigError(f"{count:.6g} {what} exceed {_MAX_GRID_SAMPLES}; use {remedy}")


def _critical_points(cfg):
    allowed = ("seed_spacing", "grad_tol", "dedupe_radius", "max_newton_steps", "eig_degenerate_tol")
    overrides = {key: cfg.tolerances[key] for key in allowed if key in cfg.tolerances}
    search = _config_checked(default_search_config, cfg.k, cfg.radius, **overrides)
    _check_count(seed_count(search), "extrema seeds")
    _config_checked(check_search_grid, cfg.k, search)
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
    columns = [pts[:, 0], pts[:, 1], s5_vals, lead_vals, series_vals]
    _write_csv(cfg, "field", ["x", "y", "s5", "p5_lead", "series_N"], columns)
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
        corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]) * half
        canvas.polygons(
            pts[::stride, None, :] + corners,
            fill=diverging_colors(s5_vals[::stride], vmax),
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
    _check_count(num_points, "identity sample points", "a smaller identity_num_points")
    try:
        allowance = 1e-9 * (1.0 + k_hi * cfg.radius) ** 5
    except OverflowError:
        allowance = math.inf
    if not math.isfinite(allowance):
        raise ConfigError(
            "the residual allowance 1e-9 * (1 + identity_k_max * radius)**5 is not finite"
        )
    if not math.isfinite(2.0 * GOLDEN_RATIO * k_hi):
        raise ConfigError(
            "the functional check's wavenumber 2 * tau * identity_k_max is not finite"
        )
    breakdown = _config_checked(
        suite_residual_breakdown, num_points, cfg.seed, (k_lo, k_hi), cfg.radius
    )
    worst = max(breakdown.values())
    if worst > allowance:
        raise ContractViolation(
            f"identity residual {worst:g} exceeds the allowance {allowance:g}"
        )
    checks = sorted(breakdown)
    _write_csv(
        cfg,
        "identity",
        ["check", "max_abs_residual"],
        [checks, [breakdown[name] for name in checks]],
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


def _converge_chunk(terms):
    """Points per block of converge, sized so terms x points doubles fit _CONVERGE_BLOCK_BYTES."""
    return max(2, _CONVERGE_BLOCK_BYTES // (8 * max(1, terms)))


def _blocked_max_errors(spec, blocks):
    """(max |s5 - series_partial(SeriesSpec(spec.k, N))| for N = 0..spec.num_terms, points).

    The maxima run over every point of an iterable of point blocks, and the
    second item counts those points. The blocks run on the block pool
    (_map_blocks). Each block is projected once; s5 and every series term are
    evaluated from that projection, each term once. The terms are then
    re-added for every N in series_partial's order (from zero, n = N-1 down
    to 0), so each maximum equals the one-N-at-a-time result bit for bit.
    """
    terms = spec.num_terms
    params = [series_term(spec.k, n) for n in range(terms)]

    def block_errors(pts):
        a = project(pts)
        s5_vals = _sin_sum(spec.k, a)
        block = np.empty((terms, len(a)))
        for n, (coeff, kn) in enumerate(params):
            block[n] = coeff * _sin_prod(kn, a)
        total = np.empty(len(a))
        errors = []
        for num in range(terms + 1):
            total.fill(0.0)
            for n in range(num - 1, -1, -1):
                total += block[n]
            errors.append(np.abs(s5_vals - 16.0 * total).max())
        return errors, len(pts)

    worst = np.zeros(terms + 1)  # every error is an absolute value
    num_points = 0
    for errors, size in _map_blocks(block_errors, blocks):
        num_points += size
        worst = np.maximum(worst, errors)
    return worst, num_points


def _run_converge(cfg):
    spec = _config_checked(SeriesSpec, cfg.k, cfg.terms)
    bounds = [
        _config_checked(tail_bound, cfg.k, cfg.radius, n).scaled_bound
        for n in range(cfg.terms + 1)
    ]
    # s5 (a sum of sines) and each term (a product of five) are odd bit for bit, so
    # |s5 - series_N| is the same at p and -p and the half grid has every maximum
    blocks = _disk_blocks(cfg.radius, cfg.grid_step, _converge_chunk(cfg.terms))
    errors, half = _blocked_max_errors(spec, blocks)
    rows = list(zip(range(cfg.terms + 1), map(float, errors), bounds))
    for n, err, bound in rows:
        if err > bound:
            raise ContractViolation(
                f"max error {err:g} exceeds bound {bound:g} at {n} terms"
            )
    _write_csv(cfg, "converge", ["N", "max_error", "bound"], list(zip(*rows)))
    report = {
        "num_samples": 2 * half - 1,
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

        for column, color in ((1, "#cc3333"), (2, "#3355cc")):
            chart = [(row[0], chart_y(row[column])) for row in rows]
            canvas.lines(chart[:-1], chart[1:], stroke=color, width=2.0)
        canvas.line((0, lo), (cfg.terms, lo), stroke="#222222", width=1.0)
        canvas.text((0.0, hi - 0.5), "log10 max_error (red), log10 bound (blue)")
        return canvas

    _write_svg(cfg, "converge", draw)
    return EXIT_OK


# Marker colors of KINDS, indexed by a CriticalSet's kind codes.
_KIND_COLORS = np.array(["#cc3333", "#3355cc", "#999999", "#dd8800"])


def _run_extrema(cfg):
    if cfg.radius <= 0:
        raise ConfigError("extrema requires a positive radius")
    points = _critical_points(cfg)
    columns = [*points.location.T, points.value, np.array(KINDS)[points.kind],
               *points.eigenvalues.T]
    _write_csv(cfg, "extrema", ["x", "y", "value", "kind", "eig_low", "eig_high"], columns)
    counts = np.bincount(points.kind, minlength=len(KINDS)).tolist()
    report = {"num_points": len(points), "counts": dict(zip(KINDS, counts))}
    _write_json(cfg, "extrema", report)

    def draw():
        canvas = SvgCanvas((-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
        canvas.world_circle((0.0, 0.0), cfg.radius, stroke="#333333", width=1.5)
        canvas.circles(points.location, 3.0, fill=_KIND_COLORS[points.kind].tolist())
        return canvas

    _write_svg(cfg, "extrema", draw)
    return EXIT_OK


def _run_tiling(cfg):
    if cfg.radius <= 0:
        raise ConfigError("tiling requires a positive radius")
    spec = _pentagrid_spec(cfg)
    patch = _tiles(cfg, spec, (-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
    header = ["kind", "family_i", "family_j", "cross_x", "cross_y",
              "x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3"]
    columns = [np.where(patch.thin, "thin", "thick"), *patch.families.T,
               *patch.intersection.T, *patch.vertices.reshape(-1, 8).T]
    _write_csv(cfg, "tiling", header, columns)
    num_thin = int(patch.thin.sum())
    report = {
        "num_tiles": len(patch.thin),
        "num_thin": num_thin,
        "num_thick": len(patch.thin) - num_thin,
        "skipped_singular": patch.skipped_singular,
        "grid_wavenumber": spec.c,
        "spacing": spec.spacing,
    }
    _write_json(cfg, "tiling", report)

    def draw():
        if not len(patch.thin):
            return None
        verts = patch.vertices.reshape(-1, 2)
        pad = 1.0
        canvas = SvgCanvas(
            (verts[:, 0].min() - pad, verts[:, 0].max() + pad,
             verts[:, 1].min() - pad, verts[:, 1].max() + pad)
        )
        canvas.polygons(patch.vertices, fill=np.where(patch.thin, "#f0d060", "#6090c0").tolist(),
                        stroke="#333333", width=0.8, opacity=0.85)
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
        _dump_json(os.path.join(cfg.out_dir, "match.json"), payload)
        print(f"match: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    report = dict(vars(report_obj), transform=vars(report_obj.transform))
    del report["correspondences"]
    _write_json(cfg, "match", report)

    matched = report_obj.correspondences
    locations = critical_points.location[matched.rows]
    header = ["x", "y", "kind", "m0", "m1", "m2", "m3", "m4", "dual_x", "dual_y", "residual"]
    columns = [*locations.T, np.array(KINDS)[critical_points.kind[matched.rows]],
               *matched.index.T, *matched.position.T, report_obj.residuals]
    _write_csv(cfg, "match", header, columns)

    def draw():
        bbox = (-cfg.radius, cfg.radius, -cfg.radius, cfg.radius)
        canvas = SvgCanvas(bbox)
        reach = int(math.ceil(cfg.radius * math.sqrt(2.0) / spec.spacing))
        segments = []
        for normal in direction_basis():
            tangent = (-normal[1], normal[0])
            for m in range(-reach, reach + 1):
                anchor = (m * spec.spacing * normal[0], m * spec.spacing * normal[1])
                seg = clip_line_to_box(anchor, tangent, bbox)
                if seg:
                    segments.append(seg)
        canvas.lines(*zip(*segments), stroke="#cccccc", width=0.6)
        transform = report_obj.transform
        quads = transform.apply(_tiles(cfg, spec, bbox).vertices)
        canvas.polygons(quads, fill="none", stroke="#77aa77", width=0.8)
        canvas.lines(transform.apply(matched.position), locations, stroke="#dd8800", width=1.2)
        extrema = critical_points.of_kind(KIND_MAXIMUM, KIND_MINIMUM)
        canvas.circles(critical_points.location[extrema], 2.5,
                       fill=_KIND_COLORS[critical_points.kind[extrema]].tolist())
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
        _dump_json(os.path.join(cfg.out_dir, "config.json"), _config_dict(cfg))
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
