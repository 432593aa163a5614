import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)


def _result(wall, setup, rss, failed=0, attempted=10):
    return {"correct": failed == 0, "failed": failed, "attempted": attempted,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": setup, "unit": "s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_of_fixed_pairs():
    parent = [_result(w, 0.2, 81.0 + k) for k, w in
              enumerate([1.0, 1.2, 1.1, 1.3, 1.4])]
    change = [_result(w, 0.2, 74.0, failed=f) for w, f in
              zip([0.9, 1.25, 1.0, 1.3, 1.2], [0, 0, 1, 0, 0])]
    first = ["parent", "change", "parent", "change", "parent"]
    ratios = [1.02, 1.9, 2.0004, 0.98, 1.5]
    block = bench_pairs.summarize(parent, change, first, ratios)

    assert block["pairs"] == 5 and block["first_side"] == first
    assert block["fork_ratio"] == [1.02, 1.9, 2.0, 0.98, 1.5]
    assert block["all_correct"] is False
    assert block["failed"] == {"parent": 0, "change": 1}
    assert block["attempted"] == {"parent": 50, "change": 50}
    wall = block["wall_s"]
    # numpy.percentile([1.0, 1.1, 1.2, 1.3, 1.4], [25, 50, 75])
    assert wall["parent_median"] == 1.2
    assert wall["parent_q1_q3"] == [1.1, 1.3]
    assert wall["change_median"] == 1.2
    assert wall["change_q1_q3"] == [1.0, 1.25]
    # pair by pair: lower, higher, lower, tied, lower
    assert (wall["change_lower_pairs"], wall["change_higher_pairs"]) == (3, 1)
    assert wall["ratio"] == 1.0
    assert wall["summary"] == "1.2 -> 1.2, lower in 3 of 5"
    assert wall["parent_runs"] == [1.0, 1.2, 1.1, 1.3, 1.4]
    assert block["setup_s"]["change_lower_pairs"] == 0
    assert block["setup_s"]["change_higher_pairs"] == 0
    rss = block["peak_rss_mb"]
    assert rss["parent_median"] == 83.0 and rss["change_median"] == 74.0
    assert rss["ratio"] == round(74.0 / 83.0, 4)
    assert rss["summary"] == "83 -> 74, lower in 5 of 5"


def test_one_pair_has_its_value_as_every_quartile():
    block = bench_pairs.summarize([_result(1.0, 0.2, 80.0)],
                                  [_result(0.8, 0.3, 80.0)], ["parent"],
                                  [1.1])
    assert block["wall_s"]["parent_q1_q3"] == [1.0, 1.0]
    assert block["setup_s"]["change_higher_pairs"] == 1
    assert block["peak_rss_mb"]["summary"] == "80 -> 80, lower in 0 of 1"


def test_fork_ratio_reaps_its_copies(assert_no_child):
    # about 1 side by side, about 2 on one CPU; either way both copies
    # are reaped
    assert bench_pairs.fork_ratio(200_000) > 0
    assert_no_child()
