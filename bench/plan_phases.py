"""Where each benchmark plan's time goes, chain by chain and run by run.

    python3 bench/plan_phases.py --root CHECKOUT [--label NAME] [--out BENCH_plan.json]
                                 [--seeds 0,1,2,3,4]

Imports augbias from CHECKOUT/src and runs each plan of this script's
perfbench/workloads (table1, plateau, theory), once per seed, with
`cli.run_plan(plan, jobs=1)`, after one unrecorded plan of each workload
to warm caches. BLAS runs on one thread and the plans run in this process,
so any process a plan forks is forked from it, as in a `perfbench` child.
For each workload it keeps the median over seeds of:

  plan_s              wall seconds of run_plan
  setup.data_s, setup.floor_s, setup.constants_s
                      the set-up phases, summed over the plan's groups
  runs.CELL.train_s, .score_s, .wall_time
                      each run's summary fields: training, scoring its
                      trace records, and the run's wall time
  chains.CELLS.wall_s the summed wall_time of each chain's runs, CELLS
                      its cells joined by "+": the runs one process ran in
                      turn (cli._chains; a checkout without it runs a
                      plan's runs as one chain)
  forks               processes forked per plan (chain processes, or an
                      older checkout's scoring workers)
  records             trace records written
  minor_faults        minor page faults of this process during the plan
  children.minor_faults, children.peak_rss_mb
                      the forked processes' minor page faults, summed, and
                      the largest peak resident set among them

The forks are counted by wrapping os.fork, and the forked processes'
resource use is read by wrapping os.waitpid with os.wait4, through which
multiprocessing reaps a forked process; spans recorded in a forked process
are not seen here, since they end with it. The result is stored under
--label in --out, next to the labels already there, so two checkouts
measured on one host sit side by side.
"""
from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from step_costs import _src_sha256  # noqa: E402  (also pins BLAS to one thread)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

WORKLOADS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench", "workloads")
PHASES = ("data_s", "floor_s", "constants_s")
RUN_FIELDS = ("train_s", "score_s", "wall_time")


class Forks:
    """Counts the processes this one forks, and sums the resource use of
    those it reaps."""

    def __init__(self):
        self.reset()
        counts, fork, waitpid = self, os.fork, os.waitpid

        def counted_fork():
            pid = fork()
            if pid:
                counts.forks += 1
            return pid

        def measured_waitpid(pid, options):
            if pid <= 0:
                return waitpid(pid, options)
            got, status, usage = os.wait4(pid, options)
            if got:
                counts.minor_faults += usage.ru_minflt
                counts.peak_rss_mb = max(counts.peak_rss_mb, usage.ru_maxrss / 1024)
            return got, status

        os.fork, os.waitpid = counted_fork, measured_waitpid

    def reset(self):
        self.forks = self.minor_faults = 0
        self.peak_rss_mb = 0.0


def chains_of(cli, plan) -> list[tuple]:
    """The plan's chains, as tuples of cell names. They go by the runs that
    the cells resolve to, so each group's set-up is built again here."""
    if not hasattr(cli, "_chains"):
        return [tuple(cell.name for cell in plan.cells)]
    chains = []
    for task, seed, cells in cli._groups(plan):
        setup = cli._build_setup(task, seed, plan.eval_n, plan.constraint_floor, plan.mode, {})
        runs = {cell.name: cli._resolve(plan, cell, setup) for cell in cells}
        chains += [tuple(cell.name for cell in chain) for chain in cli._chains(cells, runs)]
    return chains


def run_workload(name: str, seeds: list[int], forks: Forks) -> dict:
    from augbias import cli

    plan, errors = cli.validate_config(os.path.join(WORKLOADS, f"{name}.ini"))
    if errors:
        raise SystemExit(f"{name}: {'; '.join(errors)}")
    samples = []
    for i, seed in enumerate([seeds[0], *seeds]):  # the first plan warms up
        outdir = tempfile.mkdtemp(prefix=f"plan-phases-{name}-")
        seeded = dataclasses.replace(plan, seeds=(seed,), outdir=outdir)
        try:
            forks.reset()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            _, code = cli.run_plan(seeded)
            plan_s = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: run_plan exited with {code}")
            summaries = {}
            for f in sorted(os.listdir(outdir)):
                if f.endswith(".json"):
                    with open(os.path.join(outdir, f), encoding="utf-8") as fh:
                        s = json.load(fh)
                    summaries[s["cell"]] = s
        finally:
            shutil.rmtree(outdir)
        if i == 0:
            continue
        sample = {"plan_s": plan_s, "minor_faults": faults, "forks": forks.forks,
                  "children.minor_faults": forks.minor_faults,
                  "children.peak_rss_mb": forks.peak_rss_mb}
        sample["records"] = sum(s["iterations"] - s["reused_steps"] + 1
                                for s in summaries.values())
        for phase in PHASES:
            sample[f"setup.{phase}"] = sum(s.get(phase, 0.0) for s in summaries.values())
        for s in summaries.values():
            for field in RUN_FIELDS:
                sample[f"runs.{s['cell']}.{field}"] = s[field]
        for chain in chains_of(cli, seeded):
            sample[f"chains.{'+'.join(chain)}.wall_s"] = sum(
                summaries[cell]["wall_time"] for cell in chain)
        samples.append(sample)
    return {key: round(statistics.median(s[key] for s in samples), 6) for key in samples[0]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, help="checkout whose src/augbias is run")
    ap.add_argument("--label", default="current", help="key of this result in --out")
    ap.add_argument("--out", default="BENCH_plan.json", help="JSON file to add the result to")
    ap.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated plan seeds")
    args = ap.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    src = os.path.join(os.path.abspath(args.root), "src")
    if not os.path.isfile(os.path.join(src, "augbias", "trainers.py")):
        ap.error(f"no augbias source under {src}")
    sys.path.insert(0, src)

    import numpy as np

    forks = Forks()
    workloads = {name: run_workload(name, seeds, forks)
                 for name in ("table1", "plateau", "theory")}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["unit"] = ("median over seeds of one in-process plan each: seconds, counts per "
                   "plan and MB")
    doc.setdefault("runs", {})[args.label] = {
        "workloads": workloads,
        "seeds": seeds,
        "src_sha256": _src_sha256(src),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)),
                 "loadavg_at_end": list(os.getloadavg())},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, result in workloads.items():
        chains = ", ".join(f"{key[len('chains.'):-len('.wall_s')]} {value:.3f}"
                           for key, value in result.items() if key.startswith("chains."))
        print(f"{args.label}: {name:<7} plan_s {result['plan_s']:.3f}  "
              f"forks {result['forks']:g}  children peak {result['children.peak_rss_mb']:.1f} MB  "
              f"chain wall_s: {chains}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
