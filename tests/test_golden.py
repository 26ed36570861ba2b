"""Smoke test of bench/golden.py, the golden-output digest tool, at a tiny scale."""

import hashlib
import importlib.util
import json
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "bench" / "golden.py"
_spec = importlib.util.spec_from_file_location("golden", _PATH)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def test_golden_record_then_check(tmp_path, capsys):
    digest_file = tmp_path / "golden.json"
    assert golden.main(["record", str(digest_file)], scale=0.1) == 0
    recorded = json.loads(digest_file.read_text())
    runs = {name for name, _ in golden.invocations(0.1)}
    assert len(runs) == (6 * len(golden.SCALES) * len(golden.WAVENUMBERS) + 1 + 6 * 3 + 3
                         + 2 * len(golden.EXTREME_WAVENUMBERS))
    assert "identity-blocks/identity.json" in recorded
    messages = {name for name, _ in golden.message_runs()}
    assert len(messages) == 1 + 6 + len(golden.BAD_CONFIGS)
    assert {key.split("/")[0] for key in recorded} == runs | messages
    assert all(f"{run}/config.json" in recorded for run in runs)
    empty = hashlib.sha256(b"").hexdigest()
    for run, argv in golden.invocations(0.1):
        command, formats = argv[0], argv[argv.index("--format") + 1].split(",")
        # at this scale some match windows hold too few extrema to register
        failed = recorded[f"{run}/exit"] == 4
        assert recorded[f"{run}/exit"] == 0 or command == "match" and failed, run
        files = {key.split("/")[1] for key in recorded if key.startswith(f"{run}/")}
        files -= {"exit", "stdout", "stderr", "config.json"}
        # a failed registration writes its error envelope whatever the formats;
        # an svg is left out when there is nothing to draw
        wanted = {"match.json"} if failed else {f"{command}.{fmt}" for fmt in formats}
        assert {name for name in wanted if not name.endswith(".svg")} <= files <= wanted, run
        # identity says on stderr that it draws no svg; a failed registration says why
        notes = (command == "identity" and "svg" in formats) or failed
        assert recorded[f"{run}/stdout"] == empty, run
        assert (recorded[f"{run}/stderr"] != empty) == notes, run
    assert recorded["match-exit4/exit"] == 4
    # every scaled match run may fail here; this fixed radius registers and writes all three
    assert recorded["match-r20/exit"] == 0
    assert all(f"match-r20/match.{fmt}" in recorded for fmt in ("csv", "json", "svg"))
    # a search of several bands, unscaled
    assert recorded["extrema-r150/exit"] == 0
    # extrema and match at extreme k, over fixed disks of kR = 20 and 40, unscaled
    assert all(recorded[f"{command}-k{k}/exit"] == 0 for k in golden.EXTREME_WAVENUMBERS
               for command in ("extrema", "match"))
    for run in messages:
        # the help exits 0 and prints to stdout; a bad config file exits 2 and
        # prints its one-line message to stderr
        is_help = run.startswith("help")
        printed, silent = ("stdout", "stderr") if is_help else ("stderr", "stdout")
        assert recorded[f"{run}/exit"] == (0 if is_help else 2), run
        assert recorded[f"{run}/{silent}"] == empty and recorded[f"{run}/{printed}"] != empty, run
    assert golden.main(["check", str(digest_file)], scale=0.1) == 0

    key = "match-s2-k1/config.json"
    recorded[key] = "0" * 64
    digest_file.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert golden.main(["check", str(digest_file)], scale=0.1) == 1
    assert f"differs: {key}" in capsys.readouterr().out
