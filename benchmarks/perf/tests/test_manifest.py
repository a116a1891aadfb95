"""``BENCHMARK.json`` is generated from ``metrics.py``; the driver
refuses a file outside its limits before a single run."""

import json
import pathlib
import re

import metrics

ROOT = pathlib.Path(__file__).resolve().parents[3]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def test_benchmark_json_matches_the_table():
    written = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert written == metrics.manifest()


def test_manifest_is_within_the_drivers_limits():
    manifest = metrics.manifest()
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    assert isinstance(manifest["run_seconds"], int)
    assert 1 <= manifest["run_seconds"] <= 60
    names = []
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in manifest["end_to_end"])
    assert len(json.dumps(manifest)) <= 64 * 1024
