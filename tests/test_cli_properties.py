"""Property test: every command ends in a documented exit code on any flags.

Every run must return 0, 2, 3 or 4, print at most one line to stderr (none on
success, apart from identity's note that it draws no svg), raise nothing and
warn nothing. Most values are usable and a few are not. The config file may
also hold top-level keys of any JSON value; every file value is checked, and
the flags win over it, so those values never change the size of a run. For extrema, tiling and
match, wavenumbers, radii and seed spacings are drawn so that every run either
seeds at most about 6 * 10^4 points and crosses a few hundred grid lines, or
is refused by a count check before it allocates; these commands never use the
block pool. field, identity and converge are drawn with radii up to 4, grid
steps from 0.05, at most 20 series terms and at most 2 * 10^4 identity points,
or values refused before they allocate; converge and identity run their blocks
on the two-worker block pool, and no value asks it for more threads. A third test
draws moderate disks (kR <= 20, at most 20 grid steps per radius) and scales k by
2**-e and the radius and step by 2**e, for e from -1000 to 1000, so field, converge,
extrema and match meet disks whose squares overflow or underflow a double.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pentawave import cli


def _mostly(usual, odd):
    """usual eight times in ten, odd otherwise."""
    return st.integers(0, 9).flatmap(lambda n: usual if n < 8 else odd)


# Values the CLI must refuse before allocating anything: not finite or positive,
# so small that the pentagrid wavenumber underflows to zero (extrema searches the
# disk of radius kR in u = k p, the origin alone), or so large that with any
# radius below the seed and crossing counts pass the cap.
_K = _mostly(st.one_of(st.sampled_from([0.5, 1.0, 2.5, 4.0]), st.floats(0.2, 4.0)),
             st.sampled_from([1e-3, 0.0, -1.0, math.nan, math.inf, -math.inf, 5e-324, 1e20,
                              1e300]))
# from 0.5, so no radius is small enough to turn a refused wavenumber into a small grid
_RADIUS = _mostly(st.one_of(st.sampled_from([2.0, 8.0, 12.0]), st.floats(0.5, 12.0)),
                  st.sampled_from([0.0, -1.0, math.nan, math.inf, 1e300]))
_ANY_NUMBER = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e154, 1e300, math.inf, -math.inf]),
    st.integers(-3, 3),
    st.booleans(), st.none(), st.text(max_size=2), st.integers(10 ** 309),
)
_TOLERANCES = {
    "grad_tol": _mostly(st.floats(1e-14, 1e-2), _ANY_NUMBER),
    "eig_degenerate_tol": _mostly(st.floats(1e-12, 1.0), _ANY_NUMBER),
    # in u = k p, from 0.4 up: at most about 6 * 10^4 seeds at kR = 48
    "seed_spacing": _mostly(st.floats(0.4, 1.5), st.sampled_from([0.0, -1.0, 1e-300, 1e300])),
    "dedupe_radius": _mostly(st.floats(1e-6, 0.3), _ANY_NUMBER),
    # the Newton loop runs as many steps as asked for, so the count stays small
    "max_newton_steps": _mostly(st.integers(1, 60), st.sampled_from([0, -2, 2.5, -0.5, "3"])),
    "identity_num_points": _ANY_NUMBER,
    "identity_k_min": _ANY_NUMBER,
    "unknown_key": _ANY_NUMBER,
}
_FORMATS = _mostly(st.sampled_from(["csv,json,svg", "csv", "json", "svg", "json,svg"]),
                   st.sampled_from(["", "png", "csv,,json", " svg "]))


_TOP_LEVEL = st.one_of(st.none(), st.dictionaries(st.sampled_from(list(cli._SETTINGS)),
                                                 _ANY_NUMBER, max_size=3))


@st.composite
def _tolerances(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_TOLERANCES)), unique=True, max_size=3))
    return {key: draw(_TOLERANCES[key]) for key in keys}


def _run(argv, tolerances, top):
    """(exit code, stderr) of one in-process run, in a fresh directory, with a config
    file of the top-level keys and the tolerances unless both are None."""
    with tempfile.TemporaryDirectory() as work:
        if tolerances is not None or top is not None:
            config = os.path.join(work, "config.json")
            with open(config, "w", encoding="utf-8") as fh:
                json.dump({**(top or {}), "tolerances": tolerances or {}}, fh)
            argv = [*argv, "--config", config]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = cli.main([*argv, "--out", os.path.join(work, "out")])
        assert not caught, [str(w.message) for w in caught]
    return code, err.getvalue()


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["extrema", "tiling", "match"]),
    k=_K,
    radius=_RADIUS,
    grid_step=_mostly(st.just(0.25), st.sampled_from([0.0, -1.0, math.nan])),
    fmt=_FORMATS,
    tolerances=st.one_of(st.none(), _tolerances()),
    top=_TOP_LEVEL,
)
def test_commands_end_in_a_documented_exit_code(command, k, radius, grid_step, fmt, tolerances,
                                                top):
    # --flag=value, so a value such as -inf is not read as a flag
    argv = [command, f"--k={k!r}", f"--radius={radius!r}", f"--grid-step={grid_step!r}",
            f"--format={fmt}"]
    code, err = _run(argv, tolerances, top)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


_SMALL_RADIUS = _mostly(st.one_of(st.sampled_from([0.0, 1.0, 4.0]), st.floats(0.0, 4.0)),
                        st.sampled_from([-1.0, math.nan, math.inf, 1e300]))
_SERIES_TOLERANCES = {
    **_TOLERANCES,
    "identity_num_points": _mostly(st.integers(0, 2 * 10 ** 4), _ANY_NUMBER),
    "identity_k_min": _mostly(st.floats(0.0, 10.0), _ANY_NUMBER),
    "identity_k_max": _mostly(st.floats(0.0, 10.0), _ANY_NUMBER),
}
_IDENTITY_SVG_NOTE = "identity: no svg output defined for this command\n"


@st.composite
def _series_tolerances(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_SERIES_TOLERANCES)), unique=True, max_size=3))
    return {key: draw(_SERIES_TOLERANCES[key]) for key in keys}


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["field", "identity", "converge"]),
    k=_K,
    radius=_SMALL_RADIUS,
    grid_step=_mostly(st.floats(0.05, 2.0), st.sampled_from([0.0, -1.0, math.nan, 1e-300])),
    terms=_mostly(st.integers(0, 20), st.sampled_from([-1, 1475, 10 ** 6])),
    seed=_mostly(st.integers(0, 2 ** 32), st.sampled_from([-1, 2 ** 64, 10 ** 30])),
    fmt=_FORMATS,
    tolerances=st.one_of(st.none(), _series_tolerances()),
    top=_TOP_LEVEL,
)
def test_series_commands_end_in_a_documented_exit_code(command, k, radius, grid_step, terms,
                                                      seed, fmt, tolerances, top):
    argv = [command, f"--k={k!r}", f"--radius={radius!r}", f"--grid-step={grid_step!r}",
            f"--terms={terms}", f"--seed={seed}", f"--format={fmt}"]
    code, err = _run(argv, tolerances, top)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err in ("", _IDENTITY_SVG_NOTE), err
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err


@st.composite
def _scaled_disk(draw):
    """(k, radius, grid step): k in [0.2, 4], kR in [0, 20] and the radius cut into 1 to 20
    steps (a disk of radius 0 takes a step of 1/k), then k scaled by 2**-e and the radius
    and step by 2**e, exactly, for e in [-1000, 1000]."""
    k = draw(st.floats(0.2, 4.0))
    radius = draw(st.floats(0.0, 20.0)) / k
    step = (radius or 1.0 / k) / draw(st.floats(1.0, 20.0))
    e = draw(st.one_of(st.integers(-1000, 1000), st.sampled_from([-1000, -600, 0, 600, 1000])))
    return math.ldexp(k, -e), math.ldexp(radius, e), math.ldexp(step, e)


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    command=st.sampled_from(["field", "converge", "extrema", "match"]),
    disk=_scaled_disk(),
    terms=st.integers(0, 12),
    fmt=_FORMATS,
)
def test_scaled_disks_end_in_a_documented_exit_code(command, disk, terms, fmt):
    k, radius, grid_step = disk
    argv = [command, f"--k={k!r}", f"--radius={radius!r}", f"--grid-step={grid_step!r}",
            f"--format={fmt}"]
    if command in ("field", "converge"):
        argv.append(f"--terms={terms}")
    code, err = _run(argv, None, None)
    assert code in (0, 2, 3, 4), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.count("\n") == 1 and err.endswith("\n"), err
        assert "Traceback" not in err
