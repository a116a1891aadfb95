import compare


def record(workload, **metrics):
    return {
        "workload": workload,
        "metrics": {
            name: {"value": value, "unit": "x"} for name, value in metrics.items()
        },
    }


def test_verdicts_follow_bound_direction_and_spread():
    steady = [100.0, 100.5, 99.5, 100.2, 99.8]
    assert compare.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10) == "ok"
    assert compare.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "worse"
    # Higher is better: a drop is the worsening.
    assert compare.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10) == "worse"
    assert compare.verdict(steady, [v * 1.50 for v in steady], "higher", 0.10) == "ok"
    # A spread wider than the bound cannot resolve a difference ...
    noisy = [100.0, 130.0, 80.0, 120.0, 90.0]
    assert compare.verdict(noisy, [v * 1.2 for v in noisy], "lower", 0.10) == "unresolved"
    # ... unless every candidate run beats every base run.
    assert compare.verdict(noisy, [v * 0.5 for v in noisy], "lower", 0.10) == "ok"
    # One run a side: no spread, the ratio alone decides.
    assert compare.verdict([100.0], [111.0], "lower", 0.10) == "worse"
    assert compare.verdict([100.0], [100.0], "lower", None) == "-"


def test_exact_counts_use_bound_zero(tmp_path):
    import json

    base = record("yield_array", pass_ms=10.0)
    base["counts"] = {"modeled_cycles": 1000}
    changed = record("yield_array", pass_ms=10.5)
    changed["counts"] = {"modeled_cycles": 1001}
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([base]))
    b.write_text(json.dumps(changed))  # a single record is a set of one
    table = {
        row["metric"]: row
        for row in compare.rows(compare.load(str(a)), compare.load(str(b)))
    }
    assert table["pass_ms"]["verdict"] == "ok"
    assert table["modeled_cycles"]["bound"] == 0.0
    assert table["modeled_cycles"]["verdict"] == "worse"
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0
