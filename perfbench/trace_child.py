"""Run one pentawave CLI command in-process, with a span around each layer call.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/trace_child.py SPANS_JSON COMMAND [FLAGS...]

Nothing inside ``src/`` is instrumented. The spans wrap public names only,
from outside: the evaluators, series, sweep, search, tiling and
registration functions that ``pentawave.cli`` imported, ``extrema.classify``,
the ``SvgCanvas`` element and ``write`` methods, and the field evaluators
through a timed ``FieldTriple`` handed to ``find_critical_points``. Spans
are kept in memory and written to SPANS_JSON when the command returns, as
``{"spans": [[kind, start_ns, end_ns, parent], ...], "counts": {...},
"exit": code}``; ``run.py`` turns them into per-layer self times. The exit
code is the command's own.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

from pentawave import cli, extrema, svgout

SVG_ELEMENTS = ("line", "circle", "polygon", "text", "world_circle")


class Tracer:
    """Nested spans, each ``[kind, start_ns, end_ns, parent_index]``, plus counters."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._open = []

    def wrap(self, kind, fn, count=None):
        """Return fn wrapped in a span; count(counts, args, result) runs after it."""

        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([kind, 0, 0, self._open[-1] if self._open else -1])
            self._open.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self.spans[index][1] = start
                self.spans[index][2] = end
            if count is not None:
                count(self.counts, args, result)
            return result

        return traced


def _points(p):
    """Number of 2-D points in a point or a batch of points."""
    return int(getattr(p, "size", 2)) // 2


def _count_eval(counts, args, result):
    counts["wavefield.eval_calls"] += 1
    counts["wavefield.eval_points"] += _points(args[1])


def _count_series(counts, args, result):
    counts["wavefield.series_term_points"] += args[0].num_terms * _points(args[1])


def _count_sweep(counts, args, result):
    counts["identities.points"] += int(args[0])


def _count_tiles(counts, args, result):
    counts["pentagrid.tiles"] += len(result.tiles)


def _count_register(counts, args, result):
    counts["pentagrid.register_calls"] += 1


def _count_classify(counts, args, result):
    counts["extrema.classify_calls"] += 1


def install(tracer):
    """Replace the public names the CLI calls with traced wrappers."""
    cli.s5 = tracer.wrap("wavefield.eval", cli.s5, _count_eval)
    cli.p5 = tracer.wrap("wavefield.eval", cli.p5, _count_eval)
    cli.series_partial = tracer.wrap("wavefield.series", cli.series_partial, _count_series)
    cli.suite_residual_breakdown = tracer.wrap(
        "identities.sweep", cli.suite_residual_breakdown, _count_sweep
    )
    cli.tiles = tracer.wrap("pentagrid.tiles", cli.tiles, _count_tiles)
    cli.match_report = tracer.wrap("pentagrid.register", cli.match_report, _count_register)
    cli.matching_correspondences = tracer.wrap(
        "pentagrid.register", cli.matching_correspondences, _count_register
    )
    extrema.classify = tracer.wrap("extrema.classify", extrema.classify, _count_classify)

    search = cli.find_critical_points

    def find_critical_points(k, cfg, field=extrema.S5_FIELD):
        first_grad = [True]

        def grad(kk, p):
            if first_grad[0]:
                first_grad[0] = False
                tracer.counts["extrema.seeds"] += _points(p)
            return field.grad(kk, p)

        timed = extrema.FieldTriple(
            tracer.wrap("wavefield.eval", field.value, _count_eval),
            tracer.wrap("wavefield.eval", grad, _count_eval),
            tracer.wrap("wavefield.eval", field.hess, _count_eval),
        )
        found = search(k, cfg, field=timed)
        tracer.counts["extrema.critical_points"] += len(found)
        return found

    cli.find_critical_points = tracer.wrap("extrema.search", find_critical_points)

    # Elements built per canvas, so that write() can count the ones it emits.
    built = {}

    def count_element(counts, args, result):
        counts["svgout.elements"] += 1
        built.setdefault(id(args[0]), [args[0], 0])[1] += 1

    def count_write(counts, args, result):
        counts["svgout.written"] += built.get(id(args[0]), [None, 0])[1]

    canvas = svgout.SvgCanvas
    for name in SVG_ELEMENTS:
        setattr(canvas, name, tracer.wrap("svgout.build", getattr(canvas, name), count_element))
    canvas.write = tracer.wrap("svgout.write", canvas.write, count_write)


def main(argv):
    spans_path, command = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    code = tracer.wrap("cli.main", cli.main)(command)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts, "exit": code}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
