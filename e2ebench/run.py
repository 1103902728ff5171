"""End-to-end and per-layer benchmark of the EasyIO simulator.

Runs one workload (see README.md beside this file) through the
simulator's public entry points, serially in this process, checks its
outputs, and prints every metric by name with its unit.  The last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced (``--trace 0``, the default) it repeats the workload's units
for ``--seconds`` and reports the end-to-end metrics.  Traced
(``--trace 1``) it runs one untraced repetition and two traced ones and
reports the per-layer metrics, after checking that the traced runs'
simulated outputs equal the untraced run's and that every deterministic
count repeats exactly.  Exit status is 0 only when every check passed.

Usage, from the repository root::

    python3 e2ebench/run.py --workload fxmark_write --seed 1 --seconds 20
    python3 e2ebench/run.py --workload crash_line --seed 1 --trace 1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

#: (name, unit) of the end-to-end metrics, in report order.
END_TO_END = (("setup_s", "s"), ("host_us_per_unit", "us"),
              ("wall_s", "s"), ("peak_rss_mb", "MB"), ("pass_frac", "share"))

#: Units of the per-layer metrics named ``<layer>.<suffix>``.
LAYER_UNITS = {"self_share": "share", "calls_per_unit": "calls/unit"}

NOT_VALIDATED = ("info only, not gated: this benchmark does not "
                 "validate the model; the figure benchmarks' bands do")


class Runner:
    """Runs units, times them, and checks their simulated outputs.

    ``reference`` maps unit name -> digest of its simulated outputs; a
    unit whose outputs differ from the reference (an earlier
    repetition, or the untraced run) fails the determinism check.
    """

    def __init__(self, reference: Optional[Dict[str, str]] = None):
        from measure import Tally
        self.tally = Tally()
        self.sims: Dict[str, dict] = {}
        self.reference = reference if reference is not None else {}
        self.failed_checks: List[str] = []

    def run(self, unit, after: Optional[Callable] = None) -> None:
        from measure import digest
        t0 = time.perf_counter()
        try:
            res = unit.run()
        except Exception as exc:  # a raising unit is a failed unit
            self.tally.add_error(unit.name, f"{type(exc).__name__}: {exc}")
            return
        if after is not None:
            after(res)
        # Each unit pays for collecting its own cyclic garbage, so what
        # a unit leaves behind is finalised inside that unit.
        gc.collect()
        seconds = time.perf_counter() - t0
        self.tally.add(unit.name, seconds, res.work, res.attempted,
                       res.failed, res.problems)
        self.sims.setdefault(unit.name, res.sim)
        d = digest(res.sim)
        if self.reference.setdefault(unit.name, d) != d:
            self.failed_checks.append(
                f"{unit.name}: simulated outputs differ between "
                f"repetitions")

    def rep(self, units, after: Optional[Callable] = None) -> None:
        """One full repetition, from the same global state each time."""
        fresh_state()
        for unit in units:
            self.run(unit, after)

    def check(self, units) -> List[str]:
        missing = [u.name for u in units if u.name not in self.tally.seconds]
        return (self.failed_checks + self.tally.problems
                + [f"{name}: no successful sample" for name in missing])


def fresh_state() -> None:
    """Empty the simulator's one process-wide memo and the collector, so
    every repetition starts from the same state."""
    from repro.hw.memory import clear_waterfill_cache
    clear_waterfill_cache()
    gc.collect()


def sample_setup(code: str, samples: int) -> List[float]:
    """Seconds to import ``repro`` and run ``code`` in fresh interpreters."""
    script = ("import time\n_t0 = time.perf_counter()\nimport repro\n"
              + code + "\nprint(repr(time.perf_counter() - _t0))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"setup interpreter failed:\n{proc.stderr}")
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def show(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:<30} {value:>14.6g} {unit:<10} {note}".rstrip())


def timed(workload, args) -> dict:
    from measure import digest
    setup = sample_setup(workload.setup_code, SETUP_SAMPLES)
    units = workload.units(args.seed)
    runner = Runner()
    deadline = time.perf_counter() + args.seconds
    reps = 0
    while reps == 0 or time.perf_counter() < deadline:
        fresh_state()
        for unit in units:
            if reps and time.perf_counter() >= deadline:
                break
            runner.run(unit)
        else:
            reps += 1
    tally = runner.tally
    values = {
        "setup_s": statistics.median(setup),
        "host_us_per_unit": tally.host_us_per_unit(),
        "wall_s": tally.wall_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pass_frac": tally.pass_frac(),
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    failed_checks = runner.check(units)

    print(f"end-to-end metrics ({reps} full repetition(s), "
          f">= {tally.samples()} sample(s) per unit, "
          f"{len(units)} units of {tally.total_work()} "
          f"{workload.unit_label}s each):")
    for name, unit in END_TO_END:
        note = {"setup_s": f"median of {len(setup)} fresh interpreters",
                "host_us_per_unit": f"host us per simulated "
                                    f"{workload.unit_label}",
                "wall_s": "host s per repetition (per-unit medians)",
                }.get(name, "")
        show(name, values[name], unit, note)
    show("failed_frac", tally.failed_frac(), "share",
         f"{tally.failed} of {tally.attempted} attempted")
    report_sim(workload, runner.sims)
    print(f"sim digest: {digest(runner.sims)}")
    return finish(failed_checks, tally, metrics)


def traced(workload, args) -> dict:
    import repro
    from layers import (LAYERS, TIMED, Counters, attribute, instrument,
                        layer_metrics, profile)
    from measure import digest
    from workloads import SIM_METRICS

    pkg_dir = os.path.dirname(os.path.abspath(repro.__file__))
    units = workload.units(args.seed)
    base = Runner()
    base.rep(units)
    base_wall = base.tally.wall_s()
    failed_checks = base.check(units)

    with instrument(Counters()):
        pass  # imports what the instruments patch, outside the profile
    traced_metrics = []
    sims_identical = True
    for _ in range(2):
        counters = Counters()
        runner = Runner(reference=dict(base.reference))

        def after(res, counters=counters):
            counters.harvest()
            if "raw_states" in res.sim:
                counters.values["raw_states"] += int(res.sim["raw_states"])

        def body(runner=runner, counters=counters, after=after):
            with instrument(counters):
                runner.rep(units, after)
        attr = attribute(profile(body), pkg_dir)
        failed_checks += runner.check(units)
        sims_identical = sims_identical and not runner.failed_checks
        m = layer_metrics(attr, counters, runner.tally.total_work())
        m["trace.overhead_x"] = runner.tally.wall_s() / base_wall
        share_sum = sum(m[f"{layer}.self_share"] for layer in LAYERS)
        if abs(share_sum - 1.0) > 1e-9:
            failed_checks.append(
                f"layer self shares sum to {share_sum!r}, not 1")
        traced_metrics.append(m)

    first, second = traced_metrics
    for name in first:
        if name not in TIMED and first[name] != second[name]:
            failed_checks.append(
                f"{name}: {first[name]!r} in the first traced run "
                f"but {second[name]!r} in the second")
    values = {name: (first[name] if name not in TIMED
                     else statistics.median([first[name], second[name]]))
              for name in first}
    sim = dict.fromkeys(SIM_METRICS, 0.0)
    sim.update(workload.sim_metrics(base.sims))
    values.update(sim)

    metrics = {}
    print(f"per-layer metrics (median of 2 traced runs; unit = one "
          f"simulated {workload.unit_label}; untraced run "
          f"{base_wall:.3f} s):")
    for name in sorted(values):
        unit = unit_of(name)
        metrics[name] = {"value": values[name], "unit": unit}
        show(name, values[name], unit)
    print(f"sim digest: {digest(base.sims)} (traced runs identical: "
          f"{sims_identical})")
    report_sim(workload, base.sims)
    tally = base.tally
    return finish(failed_checks, tally, metrics)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    suffix = name.rsplit(".", 1)[-1]
    if suffix in LAYER_UNITS:
        return LAYER_UNITS[suffix]
    if name.endswith("_ms") or name.endswith("_ms_per_plan"):
        return "ms"
    if name.endswith("_frac") or name.endswith("_amp"):
        return "ratio"
    if name.endswith("_per_unit"):
        return "count/unit"
    if name.endswith("_x"):
        return "x"
    if name.endswith("_log10"):
        return "log10"
    return {"easyio_sim_kops": "kops", "easyio_sim_p99_us": "us"}.get(
        name, "count")


def report_sim(workload, sims: Dict[str, dict]) -> None:
    sim = workload.sim_metrics(sims)
    if sim:
        print("simulated outputs (deterministic):")
        for name, value in sim.items():
            show(name, value, unit_of(name))
    print(f"reference context ({NOT_VALIDATED}):")
    for line in workload.reference(sims):
        print(f"  {line}")


def finish(failed_checks: List[str], tally, metrics: dict) -> dict:
    from measure import check_metric_names
    bad = check_metric_names(metrics)
    if bad:
        failed_checks.append(f"metric names outside [A-Za-z0-9_.-]: {bad}")
    for check in failed_checks:
        print(f"CHECK FAILED: {check}")
    print("checks: " + ("all passed" if not failed_checks
                        else f"{len(failed_checks)} failed"))
    return {"correct": not failed_checks, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def parse_args(argv=None):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: simulator sources not found under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro  # noqa: F401  (writes bytecode caches before setup runs)
    from measure import provenance
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    prov = provenance(ROOT, SRC, args.seed)
    print(f"== e2ebench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} ==")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if prov["non_default"]:
        print("WARNING: numbers taken with non-default switch(es): "
              + ", ".join(prov["non_default"]))
    result = traced(workload, args) if args.trace else timed(workload, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
