"""A smoke-sized benchmark run never overwrites a committed snapshot."""

from benchmarks import conftest as bench


def _snapshots():
    return {path.name: path.read_bytes()
            for path in bench.BENCH_DIR.glob("BENCH_*.json")}


def test_smoke_save_leaves_committed_snapshots_untouched(monkeypatch,
                                                         tmp_path):
    before = _snapshots()
    assert before
    monkeypatch.setattr(bench, "SMOKE", True)
    monkeypatch.setattr(bench, "RESULTS_DIR", tmp_path / "results")
    for filename in before:
        name = filename[len("BENCH_"):-len(".json")]
        path = bench.save_bench_json(name, {"smoke": True})
        assert path == tmp_path / "results" / filename
    assert _snapshots() == before
