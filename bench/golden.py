#!/usr/bin/env python3
"""Golden-output digests of all six pentawave commands.

Run from anywhere; ``--src`` picks the checkout to test (default: the
``src`` next to this script):

    python3 bench/golden.py record before.json --src PARENT/src
    python3 bench/golden.py check before.json

Every command runs in-process at two small scales and at k = 1 and k = 0.93,
plus one ``identity`` sweep of 50,002 points that spans several blocks of
the sweep, each with ``--format csv,json,svg``, inside a temporary directory and with a
fixed relative ``--out`` (config.json and the JSON reports echo it).
Every command also runs at the smaller scale and k = 1 once with each format
alone, and ``match`` once at a radius where registration fails (exit 4 and
its error envelope) and once at a fixed radius where it succeeds, and
``extrema`` once at a fixed radius whose search spans several bands; ``extrema``
and ``match`` also run at k = 1e-8 and k = 1e5 over fixed disks of kR = 20 and
kR = 40. It also
runs ``--help`` at the top level and for each command, and one run per config
file in BAD_CONFIGS, each holding one value the CLI refuses. Every run has
``COLUMNS=80``, so argparse wraps its lines the same way everywhere.
``record`` writes the sha256 of every output file and of what every run
prints on stdout and stderr, plus each exit code; ``check`` reruns the same
invocations and exits 1, listing every difference, unless all bytes match.
Uses only the standard library and numpy (through pentawave itself).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
WAVENUMBERS = ("1", "0.93")
EXTREME_WAVENUMBERS = ("1e-8", "1e5")
SCALES = (1, 2)
FORMATS = "csv,json,svg"
# Radius of each command at scale 1, and its other flags.
RADII = {"field": 3, "identity": 2, "converge": 3, "extrema": 20, "tiling": 30, "match": 40}
EXTRA_FLAGS = {
    "field": ["--grid-step", "0.1", "--terms", "8"],
    "identity": ["--seed", "3"],
    "converge": ["--grid-step", "0.1", "--terms", "10"],
}
# One more identity run reads this config file: a sweep of several blocks of
# points whose count is 2 mod 4, so the last block is short and the digests
# cover the block boundaries.
IDENTITY_BLOCKS_CONFIG = "identity_blocks.json"
IDENTITY_BLOCKS_POINTS = 50002
# Config files that each hold one value the CLI refuses, by run name; a run reads
# its file and digests the one-line message it prints.
BAD_CONFIGS = {
    "terms-infinite": '{"terms": Infinity}',
    "seed-infinite": '{"seed": -Infinity}',
    "terms-fractional": '{"terms": 2.5}',
    "terms-string": '{"terms": "8"}',
    "k-bool": '{"k": true}',
    "radius-overflow": '{"radius": 1e400}',
    "seed-beyond-doubles": '{"seed": 1%s}' % ("0" * 400),
    "out-null": '{"out": null}',
    "format-number": '{"format": 3}',
    "unknown-key": '{"kk": 1, "tolerance": {}}',
    "tolerances-list": '{"tolerances": []}',
    "tolerance-unknown": '{"tolerances": {"grad_tol": 1e-9, "grid_tol": 1e-9}}',
    "tolerance-fractional": '{"tolerances": {"max_newton_steps": 2.5}}',
}


def invocations(scale):
    """(run name, argv) of every golden run that writes files; radii are multiplied by scale."""

    def run(name, command, k, radius, formats):
        return name, [command, "--k", k, "--radius", repr(radius), *EXTRA_FLAGS.get(command, []),
                      "--format", formats, "--out", f"golden_out/{name}"]

    runs = [run(f"{command}-s{size}-k{k}", command, k, r * size * scale, FORMATS)
            for size in SCALES for k in WAVENUMBERS for command, r in RADII.items()]
    runs.append(("identity-blocks", ["identity", "--radius", repr(10 * scale), "--seed", "5",
                                     "--config", IDENTITY_BLOCKS_CONFIG, "--format", FORMATS,
                                     "--out", "golden_out/identity-blocks"]))
    runs += [run(f"{command}-{fmt}", command, "1", r * SCALES[0] * scale, fmt)
             for fmt in FORMATS.split(",") for command, r in RADII.items()]
    # a fixed radius with too few extrema to register: exit 4, and match.json holds
    # the error envelope although only csv was asked for
    runs.append(run("match-exit4", "match", "1", 10, "csv"))
    # a fixed radius that registers (radii 4 to 16 end in exit 4): at every scale a
    # match that succeeds is digested, with its CSV, JSON and SVG
    runs.append(run("match-r20", "match", "1", 20, FORMATS))
    # a fixed radius whose search refines four bands of seeds (the scaled runs fit in one)
    runs.append(run("extrema-r150", "extrema", "0.93", 150, "csv,json"))
    # extreme wavenumbers at fixed kR (20 for extrema, 40 for match, criterion 8's disk):
    # the search runs in u = k p, so these give k = 1's points, mapped back
    runs += [run(f"{command}-k{k}", command, k, kr / float(k), FORMATS)
             for k in EXTREME_WAVENUMBERS for command, kr in (("extrema", 20), ("match", 40))]
    return runs


def message_runs():
    """(run name, argv) of every golden run that only prints."""
    runs = [("help", ["--help"]), *((f"help-{command}", [command, "--help"]) for command in RADII)]
    runs += [(f"config-{name}", ["field", "--config", f"{name}.json", "--out", "golden_out/bad"])
             for name in BAD_CONFIGS]
    return runs


def digests(scale, src):
    """Exit code and sha256 of every output file and printed stream of every golden run."""
    sys.path.insert(0, str(src))
    from pentawave import cli

    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        config = {"tolerances": {"identity_num_points": IDENTITY_BLOCKS_POINTS}}
        Path(IDENTITY_BLOCKS_CONFIG).write_text(json.dumps(config), encoding="utf-8")
        for name, text in BAD_CONFIGS.items():
            Path(f"{name}.json").write_text(text, encoding="utf-8")
        try:
            for name, argv in invocations(scale) + message_runs():
                out, err = io.StringIO(), io.StringIO()
                with (mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out),
                      contextlib.redirect_stderr(err)):
                    try:
                        result[f"{name}/exit"] = cli.main(argv)
                    except SystemExit as exc:  # argparse exits after printing the help
                        result[f"{name}/exit"] = exc.code
                for stream, text in (("stdout", out), ("stderr", err)):
                    digest = hashlib.sha256(text.getvalue().encode("utf-8")).hexdigest()
                    result[f"{name}/{stream}"] = digest
                for path in sorted(Path(work, "golden_out", name).glob("*")):
                    result[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
        finally:
            os.chdir(cwd)
    return result


def main(argv=None, scale=1.0):
    """Record or check the digests; scale multiplies every radius."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("digest_file", type=Path)
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory holding the pentawave package to run")
    args = parser.parse_args(argv)
    if args.action == "record":
        recorded = digests(scale, args.src.resolve())
        args.digest_file.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")
        print(f"recorded {len(recorded)} digests to {args.digest_file}")
        return 0
    want = json.loads(args.digest_file.read_text(encoding="utf-8"))
    got = digests(scale, args.src.resolve())
    differ = sorted(key for key in set(want) | set(got) if want.get(key) != got.get(key))
    for key in differ:
        print(f"differs: {key}: recorded {want.get(key)}, got {got.get(key)}")
    print(f"{len(want) - len(differ)} of {len(want)} digests identical" if not differ
          else f"{len(differ)} digests differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
