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
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .extrema import (
    KIND_MAXIMUM,
    KIND_MINIMUM,
    KINDS,
    SearchConfig,
    check_search_grid,
    default_search_config,
    find_critical_points,
)
from .identities import suite_residual_breakdown
# matching_correspondences is unused here but stays importable as
# cli.matching_correspondences, a name perfbench/trace_child.py wraps.
from .pentagrid import (  # noqa: F401
    THICK,
    THIN,
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
    _disk_lattice,
    _disk_lattice_size,
    direction_basis,
    p5,
    s5,
    series_max_errors,
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

# Every top-level setting, set by the flag --name (- for _) or the config-file key
# name: its type, default and flag help. Each is the RunConfig field of its name,
# but format, which RunConfig holds split into formats.
_SETTINGS = {
    "k": (float, 1.0, "wavenumber (default 1.0)"),
    "radius": (float, 10.0, "disk radius or window half-size (default 10)"),
    "terms": (int, 8, "retained series terms (default 8)"),
    "grid_step": (float, 0.25, "sampling grid pitch (default 0.25)"),
    "seed": (int, 0, "RNG seed (default 0)"),
    "out": (str, "pentawave_out", "output directory"),
    "format": (str, "csv,json", "comma separated subset of csv,json,svg (default csv,json)"),
}

# Per-module numeric overrides accepted under "tolerances" in a config file, and their types.
_TOLERANCES = {
    "grad_tol": float,
    "eig_degenerate_tol": float,
    "seed_spacing": float,
    "dedupe_radius": float,
    "max_newton_steps": int,
    "singular_eps": float,
    "boundary_eps": float,
    "identity_num_points": int,
    "identity_k_min": float,
    "identity_k_max": float,
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
    out: str
    formats: tuple[str, ...]
    tolerances: dict


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pentawave",
        description="Deterministic experiment harness for the fivefold wave field.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for command, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for name, (kind, _, flag_help) in _SETTINGS.items():
            cmd.add_argument("--" + name.replace("_", "-"), type=kind, help=flag_help)
        cmd.add_argument("--config", help="JSON file whose keys fill in unset flags; flags win")
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
    unknown = set(data) - set(_SETTINGS) - {"tolerances"}
    if unknown:
        raise ConfigError(f"unknown config file keys: {', '.join(sorted(unknown))}")
    return data


def _config_value(what, kind, value):
    """A config-file value of type kind (str, float or int), checked; what names it.

    A str must be a string. A float or int must be a finite JSON number, not a
    bool; it is returned as a float, or for int as an int, which must be whole
    and is exact if it was given as one.
    """
    if kind is str:
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
    if kind is float:
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
        key: _config_value(key, _SETTINGS[key][0], value)
        for key, value in file_cfg.items() if key != "tolerances"
    }
    settings = {}
    for name, (_, default, _) in _SETTINGS.items():
        flag = getattr(args, name)
        settings[name] = file_values.get(name, default) if flag is None else flag
    formats = tuple(part.strip() for part in settings.pop("format").split(",") if part.strip())

    k, radius, grid_step = settings["k"], settings["radius"], settings["grid_step"]
    if not (math.isfinite(k) and k > 0):
        raise ConfigError("k must be finite and positive")
    if not (math.isfinite(radius) and radius >= 0):
        raise ConfigError("radius must be finite and nonnegative")
    if settings["terms"] < 0:
        raise ConfigError("terms must be nonnegative")
    if not (math.isfinite(grid_step) and grid_step > 0):
        raise ConfigError("grid-step must be finite and positive")
    if not formats or not set(formats) <= {"csv", "json", "svg"}:
        raise ConfigError("format must be a nonempty subset of csv,json,svg")

    tolerances = file_cfg.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("tolerances must be a JSON object")
    unknown = set(tolerances) - set(_TOLERANCES)
    if unknown:
        raise ConfigError(f"unknown tolerance keys: {', '.join(sorted(unknown))}")
    resolved = {
        key: _config_value(f"tolerance {key}", _TOLERANCES[key], value)
        for key, value in tolerances.items()
    }
    return RunConfig(args.command, **settings, formats=formats, tolerances=resolved)


# Rows of a CSV table converted, joined, checked and written at a time.
_CSV_CHUNK = 1 << 12


def _cells(values):
    """CSV cells of one column array: floats as repr, the shortest round-trip decimal form."""
    return map(repr if values.dtype.kind == "f" else str, values.tolist())


def _write_csv(cfg, name, header, columns):
    """Write the table given column by column, one column per header name.

    Cells are joined by commas and never quoted: every cell is a float repr,
    an int or a fixed name, none of which holds a comma, a quote or a line
    break. Rows are checked for that a chunk at a time, by counting. Only one
    chunk of each column is converted to cells at a time.
    """
    columns = [np.asarray(column) for column in columns]
    chunks = (zip(*(_cells(c[start:start + _CSV_CHUNK]) for c in columns))
              for start in range(0, len(columns[0]), _CSV_CHUNK))
    rows = itertools.chain([header], itertools.chain.from_iterable(chunks))
    path = os.path.join(cfg.out, f"{name}.csv")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        while lines := [",".join(row) for row in itertools.islice(rows, _CSV_CHUNK)]:
            text = "\n".join(lines) + "\n"
            assert text.count(",") == len(lines) * (len(header) - 1), "a CSV cell holds a comma"
            assert text.count("\n") == len(lines), "a CSV cell holds a line break"
            assert '"' not in text and "\r" not in text, "a CSV cell holds a quote or a return"
            fh.write(text)


def _dump_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(cfg, name, report, header, columns, draw=None):
    """Write a command's artifacts in the formats cfg asks for, in the order csv, json, svg.

    The CSV table is given column by column, one per header name, and the JSON
    report is written in its {"config", "report", "version"} envelope. draw()
    runs only if svg was asked for, and returns the canvas to write, or None for
    no drawing; a ValueError it raises (a span too small to scale onto the
    canvas) is a config error. A command with no draw says it has no svg
    output. Returns EXIT_OK.
    """
    path = os.path.join(cfg.out, name)
    if "csv" in cfg.formats:
        _write_csv(cfg, name, header, columns)
    if "json" in cfg.formats:
        payload = {"config": asdict(cfg), "report": report, "version": __version__}
        _dump_json(path + ".json", payload)
    if "svg" in cfg.formats:
        if draw is None:
            print(f"{name}: no svg output defined for this command", file=sys.stderr)
        elif (canvas := _config_checked(draw)) is not None:
            canvas.write(path + ".svg")
    return EXIT_OK


def _config_checked(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError from the configured values reported as a config error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _check_disk_grid(radius, step):
    """Refuse a disk grid whose whole lattice exceeds _MAX_GRID_SAMPLES, before it is made."""
    suggestion = radius / (0.5 * (math.sqrt(_MAX_GRID_SAMPLES) - 1.0))
    _check_count(_disk_lattice_size(radius, step), "disk grid samples",
                 f"--grid-step of at least {suggestion:.6g}")


def _check_count(count, what, remedy="a smaller --radius or --k"):
    """Refuse a run whose count of seeds, crossings or samples exceeds _MAX_GRID_SAMPLES."""
    if not count <= _MAX_GRID_SAMPLES:
        raise ConfigError(f"{count:.6g} {what} exceed {_MAX_GRID_SAMPLES}; use {remedy}")


def _critical_points(cfg):
    search_keys = {field.name for field in fields(SearchConfig)}
    overrides = {key: value for key, value in cfg.tolerances.items() if key in search_keys}
    search = _config_checked(default_search_config, cfg.k, cfg.radius, **overrides)
    # the search holds one band of seeds at a time, but its converged rows, about one
    # per seed, are held together for the dedupe
    _check_count(_disk_lattice_size(search.radius, search.seed_spacing), "extrema seeds")
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
    _check_disk_grid(cfg.radius, cfg.grid_step)
    pts = _disk_lattice(cfg.radius, cfg.grid_step)
    s5_vals = s5(cfg.k, pts)
    lead_vals = p5(lead_k, pts)
    series_vals = series_partial(spec, pts)
    deviation = float(np.abs(s5_vals - series_vals).max())
    if deviation > bound:
        raise ContractViolation(
            f"series deviation {deviation:g} exceeds the scaled bound {bound:g}"
        )
    columns = [pts[:, 0], pts[:, 1], s5_vals, lead_vals, series_vals]
    report = {
        "num_samples": len(pts),
        "max_abs_series_deviation": deviation,
        "scaled_bound": bound,
        "num_terms": cfg.terms,
    }

    def draw():
        if cfg.radius == 0:
            return None
        canvas = SvgCanvas((-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
        stride = max(1, int(math.ceil(math.sqrt(len(pts) / 20000.0))))
        vmax = float(np.abs(s5_vals).max())
        half = 0.5 * cfg.grid_step * stride
        corners = np.array([(-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0)]) * half
        canvas.polygons(pts[::stride, None, :] + corners,
                        diverging_colors(s5_vals[::stride], vmax), "none")
        canvas.world_circle(cfg.radius)
        return canvas

    return _emit(cfg, "field", report, ["x", "y", "s5", "p5_lead", "series_N"], columns, draw)


def _run_identity(cfg):
    tol = cfg.tolerances
    num_points = tol.get("identity_num_points", 10000)
    k_lo = tol.get("identity_k_min", 0.1)
    k_hi = tol.get("identity_k_max", 10.0)
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
    report = {
        "max_abs_residual": worst,
        "num_points": num_points,
        "rng_seed": cfg.seed,
        "per_identity": breakdown,
        "allowance": allowance,
    }
    checks = sorted(breakdown)
    columns = [checks, [breakdown[name] for name in checks]]
    return _emit(cfg, "identity", report, ["check", "max_abs_residual"], columns)


def _run_converge(cfg):
    spec = _config_checked(SeriesSpec, cfg.k, cfg.terms)
    bounds = [
        _config_checked(tail_bound, cfg.k, cfg.radius, n).scaled_bound
        for n in range(cfg.terms + 1)
    ]
    _check_disk_grid(cfg.radius, cfg.grid_step)
    errors, num_samples = series_max_errors(spec, cfg.radius, cfg.grid_step)
    rows = list(zip(range(cfg.terms + 1), map(float, errors), bounds))
    for n, err, bound in rows:
        if err > bound:
            raise ContractViolation(
                f"max error {err:g} exceeds bound {bound:g} at {n} terms"
            )
    report = {
        "num_samples": num_samples,
        "rows": [{"N": n, "max_error": e, "bound": b} for n, e, b in rows],
    }

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
            canvas.lines(chart[:-1], chart[1:], color, 2.0)
        canvas.line((0, lo), (cfg.terms, lo), "#222222", 1.0)
        canvas.text((0.0, hi - 0.5), "log10 max_error (red), log10 bound (blue)")
        return canvas

    return _emit(cfg, "converge", report, ["N", "max_error", "bound"], list(zip(*rows)), draw)


# Marker colors of KINDS, indexed by a CriticalSet's kind codes.
_KIND_COLORS = np.array(["#cc3333", "#3355cc", "#999999", "#dd8800"])


def _run_extrema(cfg):
    if cfg.radius <= 0:
        raise ConfigError("extrema requires a positive radius")
    points = _critical_points(cfg)
    columns = [*points.location.T, points.value, np.array(KINDS)[points.kind],
               *points.eigenvalues.T]
    counts = np.bincount(points.kind, minlength=len(KINDS)).tolist()
    report = {"num_points": len(points), "counts": dict(zip(KINDS, counts))}

    def draw():
        canvas = SvgCanvas((-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
        canvas.world_circle(cfg.radius)
        canvas.circles(points.location, 3.0, _KIND_COLORS[points.kind].tolist())
        return canvas

    header = ["x", "y", "value", "kind", "eig_low", "eig_high"]
    return _emit(cfg, "extrema", report, header, columns, draw)


def _run_tiling(cfg):
    if cfg.radius <= 0:
        raise ConfigError("tiling requires a positive radius")
    spec = _pentagrid_spec(cfg)
    patch = _tiles(cfg, spec, (-cfg.radius, cfg.radius, -cfg.radius, cfg.radius))
    header = ["kind", "family_i", "family_j", "cross_x", "cross_y",
              "x0", "y0", "x1", "y1", "x2", "y2", "x3", "y3"]
    columns = [np.where(patch.thin, THIN, THICK), *patch.families.T,
               *patch.intersection.T, *patch.vertices.reshape(-1, 8).T]
    num_thin = int(patch.thin.sum())
    report = {
        "num_tiles": len(patch.thin),
        "num_thin": num_thin,
        "num_thick": len(patch.thin) - num_thin,
        "skipped_singular": patch.skipped_singular,
        "grid_wavenumber": spec.c,
        "spacing": spec.spacing,
    }

    def draw():
        if not len(patch.thin):
            return None
        verts = patch.vertices.reshape(-1, 2)
        pad = 1.0
        canvas = SvgCanvas(
            (verts[:, 0].min() - pad, verts[:, 0].max() + pad,
             verts[:, 1].min() - pad, verts[:, 1].max() + pad)
        )
        canvas.polygons(patch.vertices, np.where(patch.thin, "#f0d060", "#6090c0").tolist(),
                        "#333333", width=0.8, opacity=0.85)
        return canvas

    return _emit(cfg, "tiling", report, header, columns, draw)


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
            "config": asdict(cfg),
            "error": str(exc),
            "report": None,
            "version": __version__,
        }
        _dump_json(os.path.join(cfg.out, "match.json"), payload)
        print(f"match: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    report = dict(vars(report_obj), transform=vars(report_obj.transform))
    del report["correspondences"]

    matched = report_obj.correspondences
    locations = critical_points.location[matched.rows]
    header = ["x", "y", "kind", "m0", "m1", "m2", "m3", "m4", "dual_x", "dual_y", "residual"]
    columns = [*locations.T, np.array(KINDS)[critical_points.kind[matched.rows]],
               *matched.index.T, *matched.position.T, report_obj.residuals]

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
        canvas.lines(*zip(*segments), "#cccccc", 0.6)
        transform = report_obj.transform
        quads = transform.apply(_tiles(cfg, spec, bbox).vertices)
        canvas.polygons(quads, ["none"] * len(quads), "#77aa77", width=0.8)
        canvas.lines(transform.apply(matched.position), locations, "#dd8800", 1.2)
        extrema = critical_points.of_kind(KIND_MAXIMUM, KIND_MINIMUM)
        canvas.circles(critical_points.location[extrema], 2.5,
                       _KIND_COLORS[critical_points.kind[extrema]].tolist())
        canvas.world_circle(cfg.radius)
        return canvas

    return _emit(cfg, "match", report, header, columns, draw)


# Every command: its runner and its help line, in the order --help lists them.
_COMMANDS = {
    "field": (_run_field, "sample s5, the leading product term, and the series on a disk grid"),
    "identity": (_run_identity, "seeded random sweep of the algebraic identity residuals"),
    "converge": (_run_converge, "truncation error versus the closed-form bound per term count"),
    "extrema": (_run_extrema, "locate and classify critical points inside the disk"),
    "tiling": (_run_tiling, "dualize the pentagrid to rhombus tiles over a square window"),
    "match": (_run_match, "register dual tiling vertices against the field extrema"),
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        os.makedirs(cfg.out, exist_ok=True)
        _dump_json(os.path.join(cfg.out, "config.json"), asdict(cfg))
        return _COMMANDS[cfg.command][0](cfg)
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
