#!/usr/bin/env python3
"""Golden-output digests of all six pentawave commands.

Run from anywhere; ``--src`` picks the checkout to test (default: the
``src`` next to this script):

    python3 bench/golden.py record before.json --src PARENT/src
    python3 bench/golden.py check before.json

Every command runs in-process at two small scales and at k = 1 and k = 0.93,
each with ``--format csv,json,svg``, inside a temporary directory and with a
fixed relative ``--out`` (config.json and the JSON reports echo it).
``record`` writes the sha256 of every output file plus each exit code;
``check`` reruns the same invocations and exits 1, listing every difference,
unless all bytes match. Uses only the standard library and numpy (through
pentawave itself).
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

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
WAVENUMBERS = ("1", "0.93")
SCALES = (1, 2)
FORMATS = "csv,json,svg"
# Radius of each command at scale 1, and its other flags.
RADII = {"field": 3, "identity": 2, "converge": 3, "extrema": 20, "tiling": 30, "match": 40}
EXTRA_FLAGS = {
    "field": ["--grid-step", "0.1", "--terms", "8"],
    "identity": ["--seed", "3"],
    "converge": ["--grid-step", "0.1", "--terms", "10"],
}


def invocations(scale):
    """(run name, argv) of every golden run; radii are multiplied by scale."""
    runs = []
    for size in SCALES:
        for k in WAVENUMBERS:
            for command, r in RADII.items():
                name = f"{command}-s{size}-k{k}"
                runs.append((name, [command, "--k", k, "--radius", repr(r * size * scale),
                                    *EXTRA_FLAGS.get(command, []), "--format", FORMATS,
                                    "--out", f"golden_out/{name}"]))
    return runs


def digests(scale, src):
    """Exit code and sha256 of every output file of every golden run."""
    sys.path.insert(0, str(src))
    from pentawave import cli

    result = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, argv in invocations(scale):
                with contextlib.redirect_stderr(io.StringIO()):
                    result[f"{name}/exit"] = cli.main(argv)
                out = Path(work, "golden_out", name)
                for path in sorted(out.iterdir()):
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
