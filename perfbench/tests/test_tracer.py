import sys

from perfbench.tracer import Tracer


def test_self_time_of_nested_spans():
    tr = Tracer()
    tr.spans = [
        ["outer", 0.0, 10.0, -1],
        ["a", 1.0, 3.0, 0],
        ["b", 4.0, 8.0, 0],
        ["c", 5.0, 6.0, 2],
        ["r", 20.0, 30.0, -1],
        ["r", 22.0, 25.0, 4],
    ]
    agg = tr.aggregate()
    assert agg["outer"] == {"calls": 1, "s": 10.0, "self_s": 4.0}
    assert agg["a"] == {"calls": 1, "s": 2.0, "self_s": 2.0}
    assert agg["b"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert agg["c"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    # a span nested in one of its own name is not counted twice
    assert agg["r"] == {"calls": 2, "s": 10.0, "self_s": 10.0}


def test_wrappers_record_parents_with_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))

    def leaf():
        return 1

    wrapped_leaf = tr.traced(leaf, "leaf")

    def root():
        return wrapped_leaf() + wrapped_leaf()

    assert tr.traced(root, "root")() == 2
    assert [s[0] for s in tr.spans] == ["root", "leaf", "leaf"]
    assert [s[3] for s in tr.spans] == [-1, 0, 0]
    agg = tr.aggregate()
    assert agg["root"] == {"calls": 1, "s": 5.0, "self_s": 3.0}
    assert agg["leaf"]["calls"] == 2 and agg["leaf"]["s"] == 2.0


def _snapshot():
    import numpy.fft
    import scipy.fft

    import sllab.contextuality  # noqa: F401  (loaded lazily by experiments)
    import sllab.experiments  # noqa: F401
    from sllab.trajectories import FrameInterpolator

    owners = [m for n, m in sys.modules.items()
              if (n == "sllab" or n.startswith("sllab.")) and m is not None]
    owners += [numpy.fft, scipy.fft]
    snap = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    snap[("FrameInterpolator", "velocity_at")] = vars(
        FrameInterpolator)["velocity_at"]
    return snap


def test_uninstall_restores_every_patched_attribute():
    import sllab
    import sllab.dynamics
    import sllab.experiments
    from sllab.trajectories import FrameInterpolator

    before = _snapshot()
    tr = Tracer()
    tr.install()
    try:
        patched = tr.patched()
        assert len(patched) > 30
        # every import site carries the same wrapper
        assert sllab.evolve is sllab.dynamics.evolve is sllab.experiments.evolve
        assert sllab.evolve is not before[(id(sllab), "evolve")]
        assert vars(FrameInterpolator)["velocity_at"] is not before[
            ("FrameInterpolator", "velocity_at")]
    finally:
        tr.uninstall()
    assert tr.patched() == []
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_traced_experiment_counts_reach_every_import_site(tmp_path):
    from sllab.experiments import ExperimentConfig

    cfg = ExperimentConfig.from_dict({
        "experiment": "free_packet",
        "params": {"n": 64, "length": 40.0, "dt": 0.001, "t_final": 0.01}})
    tr = Tracer()
    tr.install()
    try:
        import sllab.experiments
        sllab.experiments.run_experiment(cfg, tmp_path)
    finally:
        tr.uninstall()
    agg = tr.aggregate()
    assert agg["experiments.free_packet"]["calls"] == 1
    assert agg["dynamics.evolve"]["calls"] == 1
    assert tr.counts["dynamics.evolve.steps"] == 10
    assert agg["grid_field.polar_decompose"]["calls"] == 1   # via io_formats
    assert tr.counts["grid_field.polar_decompose.points"] == 64
    assert agg["io_formats.write"]["calls"] == 5   # 3 payloads, summary, manifest
    assert tr.counts["grid_field.fft.calls"] > 20
    assert agg["experiments.free_packet"]["s"] >= agg["dynamics.evolve"]["s"]

