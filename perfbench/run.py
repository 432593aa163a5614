"""sllab benchmark: one seeded workload per run, checked and timed.

    python3 perfbench/run.py --workload {wave,ensemble,pointer,lp} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``.
The run generates its inputs from the seed (set-up), then runs the
workload's operations back to back, one pass after another, while the
next pass is predicted to end within ``--seconds`` (at least one pass),
and checks every pass's outputs.  With ``--trace 1`` a further pass runs
with the wrappers of ``tracer.py`` installed and the per-layer metrics
are printed instead of the end-to-end ones.  The last line of standard
output is the JSON result.  Scratch files go to ``.perfbench_out/`` and
are removed at exit; the span dump of a traced run stays there.

``wall_s`` and ``setup_s`` are given at the host's reference speed; see
``SpeedSampler``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BASELINE_LAMBDA_SWEEP_S = 10.7   # ROADMAP re-anchor table, single run

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
EXPERIMENTS = ("free_packet", "eigenstate_hold", "lambda_sweep",
               "equivariance", "nelson_born", "relaxation", "measurement",
               "contextuality")
# span name -> aggregate fields reported for it
SPAN_FIELDS = {
    "grid_field.quantum_potential_from_abs": ("calls", "s"),
    "grid_field.polar_decompose": ("calls", "s"),
    "grid_field.differentiate": ("calls", "s"),
    "dynamics.evolve": ("calls", "s", "self_s"),
    "dynamics.energy_expectation": ("calls", "s"),
    "dynamics.lambda_energy": ("calls", "s"),
    "trajectories.integrate_nelson": ("calls", "s", "self_s"),
    "trajectories.integrate_bohmian": ("calls", "s", "self_s"),
    "trajectories.velocity_field": ("calls", "s"),
    "trajectories.interpolate_grid": ("calls", "s"),
    "ensemble.sample_density": ("calls", "s"),
    "ensemble.chi2_against_target": ("calls", "s"),
    "ensemble.relaxation_h_series": ("s",),
    "measurement.evolve_pointer": ("calls", "s"),
    "measurement.run_measurement": ("calls", "s"),
    "contextuality.solve_lp": ("calls", "s"),
    "contextuality.contextual_fraction": ("s",),
    "contextuality.noncontextual_decompose": ("s",),
    "contextuality.enumerate_global_sections": ("s",),
    "contextuality.check_no_signalling": ("s",),
    "io_formats.write": ("calls", "s"),
    "io_formats.sha256_file": ("s",),
    **{f"experiments.{e}": ("s",) for e in EXPERIMENTS},
}
COUNTS = {
    "grid_field.polar_decompose.points": "count",
    "grid_field.fft.calls": "count",
    "grid_field.fft.points": "count",
    "dynamics.evolve.steps": "count",
    "trajectories.integrate_nelson.particle_steps": "count",
    "trajectories.integrate_bohmian.particle_steps": "count",
    "trajectories.velocity_at.calls": "count",
    "trajectories.interpolate_grid.points": "count",
    "ensemble.sample_density.samples": "count",
    "measurement.evolve_pointer.steps": "count",
    "contextuality.solve_lp.rows": "count",
    "contextuality.solve_lp.cols": "count",
    "contextuality.solve_lp.infeasible": "count",
    "contextuality.assignments": "count",
    "io_formats.write.bytes": "B",
    "io_formats.sha256_file.bytes": "B",
}
DERIVED = {
    "dynamics.evolve.us_per_step.lam1": "us",
    "dynamics.evolve.us_per_step.lam_lt1": "us",
    "trajectories.velocity_cache.hit_ratio": "ratio",
    "trajectories.positions_mb": "MB",
    "measurement.evolve_pointer.us_per_step": "us",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            units[f"{span}.{f}"] = "count" if f == "calls" else "s"
    units.update(COUNTS)
    units.update(DERIVED)
    return units


def spawn_age() -> float:
    """Seconds since the kernel started this process."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _T_START


def python_probe(turns=3000):
    """Fixed interpreter work: integer arithmetic and dict stores."""
    s, d = 0, {}
    for i in range(turns):
        s ^= i * 3
        d[i & 255] = s


def make_numpy_probe():
    """Fixed work like the workloads': half the Python probe, then three
    round trips of a 512-point FFT (the ``wave`` grid size)."""
    import numpy as np

    x = np.exp(1j * np.linspace(0.0, 6.0, 512))
    k = np.linspace(0.0, 1.0, 512)

    def numpy_probe():
        python_probe(1500)
        y = x
        for _ in range(3):
            y = np.fft.ifft(np.fft.fft(y) * k) + x

    return numpy_probe


class SpeedSampler:
    """Samples the host's speed: while started, every PERIOD_S of wall
    time (SIGALRM) it calls ``probe`` twice and times the second call.

    Each of the host's two cores switches, every second or so and
    independently of the other, between a fast and a slow state about
    1.4x apart, and the share of time spent slow drifts over minutes.
    CPU time drifts with it.  ``factor()`` is the mean of ``ref_s`` /
    probe time since ``reset()``: a span's wall time (less ``probe_s``,
    the time spent probing) times the factor is its time at the
    reference speed, at which the probe takes ``ref_s``.  Probes at the
    edges of an operation miss the switches inside it; sampling
    throughout does not.
    """

    PERIOD_S = 0.02

    def __init__(self, probe, ref_s):
        self.probe, self.ref_s = probe, ref_s
        self.reset()

    def reset(self):
        self.probe_s, self.ratio_sum, self.samples = 0.0, 0.0, 0

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.probe()   # warms the caches the interrupted work displaced
        t1 = time.perf_counter()
        self.probe()
        t2 = time.perf_counter()
        self.probe_s += t2 - t0
        self.ratio_sum += self.ref_s / (t2 - t1)
        self.samples += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self) -> float:
        if not self.samples:   # a span shorter than PERIOD_S
            self._sample()
        return self.ratio_sum / self.samples


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def machine_info() -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(),
            "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
            // 2 ** 20,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (d / "level").read_text().strip()
            kind = (d / "type").read_text().strip()
            size = (d / "size").read_text().strip()
        except OSError:
            continue
        suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
        info[f"L{level}{suffix}"] = size   # per cache instance
    return info


class Workload:
    def __init__(self, name, ops, configs, work):
        self.name, self.ops, self.configs, self.work = name, ops, configs, work
        self.first_checksums = {}
        self.attempted = 0
        self.failed = 0

    def run_pass(self, index, sampler) -> tuple:
        """Run every op once, unchecked.

        Returns (wall seconds less probing, cpu seconds less probing,
        output directory, errors); ``sampler`` is reset at the start.
        """
        from sllab.experiments import run_experiment

        from perfbench.workloads import pointer_export

        out = self.work / f"pass{index}"
        errors = {}
        gc.collect()
        sampler.reset()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        for op in self.ops:
            try:
                if op.kind == "export":
                    pointer_export(self.configs[op.name], out / op.name)
                else:
                    run_experiment(self.configs[op.name], out / op.name)
            except Exception:  # a failed op is counted and the loop goes on
                errors[op.name] = traceback.format_exc()
        wall = time.perf_counter() - t0 - sampler.probe_s
        cpu = cpu_seconds() - cpu0 - sampler.probe_s
        return wall, cpu, out, errors

    def check(self, out, errors):
        """Count and report the pass's failed ops, then delete its outputs."""
        for op in self.ops:
            self.attempted += 1
            if op.name in errors:
                problems = [errors[op.name]]
            else:
                try:
                    problems = self.check_op(op, out / op.name)
                except Exception:  # unreadable outputs are a failed op
                    problems = [traceback.format_exc()]
            if problems:
                self.failed += 1
                print(f"FAILED {self.name}/{op.name}:", file=sys.stderr)
                for problem in problems:
                    print(f"  {problem}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)

    def check_op(self, op, out) -> list:
        from sllab.io_formats import sha256_file

        from perfbench import checks

        cfg = self.configs[op.name]
        if op.kind == "export":
            problems = checks.check_export(out, op.expect, cfg.params)
            checksums = {"pointer_field.csv":
                         sha256_file(out / "pointer_field.csv")}
        else:
            problems, checksums, summary = checks.check_manifest(out)
            problems += checks.check_summary(cfg.experiment, summary,
                                             op.expect)
        first = self.first_checksums.setdefault(op.name, checksums)
        if checksums != first:
            problems.append("rerun is not byte-identical to the first pass")
        return problems


def baseline_probe(wl):
    """Time one untraced lambda_sweep at its shipped size and print it next
    to the ROADMAP baseline; the deviation is reported, not corrected."""
    from sllab.experiments import ExperimentConfig, run_experiment

    from perfbench import checks
    from perfbench.workloads import SHIPPED_LAMBDA_SWEEP

    out = wl.work / "baseline"
    t = time.perf_counter()
    run_experiment(ExperimentConfig.from_dict(SHIPPED_LAMBDA_SWEEP), out)
    sweep = time.perf_counter() - t
    problems = checks.check_manifest(out)[0]
    shutil.rmtree(out, ignore_errors=True)
    wl.attempted += 1
    wl.failed += bool(problems)
    print(f"baseline: experiments.lambda_sweep.s = {sweep:.3f} s at the "
          f"shipped size (one untraced run) vs ROADMAP re-anchor "
          f"{BASELINE_LAMBDA_SWEEP_S} s: "
          f"{100 * (sweep / BASELINE_LAMBDA_SWEEP_S - 1):+.1f} %"
          + (f"; FAILED: {problems}" if problems else ""))


def layer_metrics(tracer, traced_wall, walls, cpus) -> dict:
    agg, counts = tracer.aggregate(), tracer.counts
    metrics = {}
    for span, fields in SPAN_FIELDS.items():
        for f in fields:
            metrics[f"{span}.{f}"] = agg.get(span, {}).get(f, 0)
    for key in COUNTS:
        metrics[key] = counts[key]

    def per_step(seconds, steps):
        return 1e6 * seconds / steps if steps else 0.0

    for lam in ("lam1", "lam_lt1"):
        metrics[f"dynamics.evolve.us_per_step.{lam}"] = per_step(
            counts[f"dynamics.evolve.{lam}.s"],
            counts[f"dynamics.evolve.{lam}.steps"])
    at_calls = counts["trajectories.velocity_at.calls"]
    metrics["trajectories.velocity_cache.hit_ratio"] = (
        1.0 - metrics["trajectories.velocity_field.calls"] / at_calls
        if at_calls else 0.0)
    metrics["trajectories.positions_mb"] = (
        counts["positions_peak_bytes"] / 2 ** 20)
    metrics["measurement.evolve_pointer.us_per_step"] = per_step(
        metrics["measurement.evolve_pointer.s"],
        counts["measurement.evolve_pointer.steps"])
    metrics["process.cpu_s"] = statistics.median(cpus)
    metrics["trace.overhead_s"] = traced_wall - statistics.median(walls)
    return metrics


def parse_args(argv):
    from perfbench.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return ap.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "sllab" / "__init__.py").is_file():
        print(f"perfbench: no sllab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    args = parse_args(argv)
    # Set-up is mostly imports, before numpy is loaded: a Python probe.
    sampler = SpeedSampler(python_probe, 3e-4)
    sampler.start()
    try:
        return run_workload(args, sampler)
    finally:
        sampler.stop()


def run_workload(args, sampler) -> int:
    import sllab.experiments  # noqa: F401  (the program and numpy/scipy)

    from perfbench import workloads

    reference = json.loads((Path(__file__).parent / "reference.json")
                           .read_text())
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        ops = workloads.generate(args.workload, args.seed, work / "inputs",
                                 reference)
        configs = workloads.validate(ops)
        setup_raw = spawn_age() - sampler.probe_s
        setup_s = setup_raw * sampler.factor()
        sampler.stop()
        print(f"set-up: {setup_raw:.4f} s, {setup_s:.4f} s at the "
              f"reference speed ({sampler.samples} speed samples)")
        wl = Workload(args.workload, ops, configs, work)
        sampler = SpeedSampler(make_numpy_probe(), 2e-4)
        sampler.start()
        try:
            return measure(args, wl, setup_s, sampler)
        finally:
            sampler.stop()
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, wl, setup_s, sampler) -> int:
    walls, ref_walls, cpus = [], [], []
    t_start = time.perf_counter()
    while True:
        wall, cpu, out, errors = wl.run_pass(len(walls), sampler)
        ref_walls.append(wall * sampler.factor())
        wl.check(out, errors)
        walls.append(wall)
        cpus.append(cpu)
        elapsed = time.perf_counter() - t_start
        if elapsed + statistics.median(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    machine = machine_info()
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload {wl.name} seed {args.seed}: {len(walls)} untraced "
          f"pass(es), pass walls {[round(w, 3) for w in walls]} s, at the "
          f"reference speed {[round(w, 3) for w in ref_walls]} s")
    sampler.stop()   # the traced pass and the baseline probe run unsampled
    if args.trace:
        from perfbench.tracer import Tracer

        if wl.name == "wave":
            baseline_probe(wl)

        tracer = Tracer()
        tracer.install()
        try:
            traced_wall, _, out, errors = wl.run_pass(len(walls), sampler)
        finally:
            tracer.uninstall()
        wl.check(out, errors)
        metrics = layer_metrics(tracer, traced_wall, walls, cpus)
        units = per_layer_units()
        tracer.dump(OUT / f"spans-{wl.name}-seed{args.seed}.json",
                    extra={"workload": wl.name, "seed": args.seed,
                           "machine": machine, "metrics": metrics})
    else:
        metrics = {"wall_s": statistics.median(ref_walls),
                   "setup_s": setup_s,
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END
    failed_frac = wl.failed / wl.attempted
    for name, value in metrics.items():
        print(f"  {name:48s} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':48s} {failed_frac:>16.6g} ratio "
          f"({wl.failed} of {wl.attempted} operations)")
    result = {"correct": wl.failed == 0, "attempted": wl.attempted,
              "failed": wl.failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
