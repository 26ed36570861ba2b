"""Smoke test of bench/golden.py, the golden-output digest tool, at a tiny scale."""

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
    assert len(runs) == 6 * len(golden.SCALES) * len(golden.WAVENUMBERS)
    assert {key.split("/")[0] for key in recorded} == runs
    assert all(f"{run}/config.json" in recorded for run in runs)
    assert golden.main(["check", str(digest_file)], scale=0.1) == 0

    key = "match-s2-k1/config.json"
    recorded[key] = "0" * 64
    digest_file.write_text(json.dumps(recorded))
    capsys.readouterr()
    assert golden.main(["check", str(digest_file)], scale=0.1) == 1
    assert f"differs: {key}" in capsys.readouterr().out
