"""Where each benchmark plan's time goes, run by run, in one process.

    python3 bench/plan_phases.py --root CHECKOUT [--label NAME] [--out BENCH_plan.json]
                                 [--seeds 0,1,2,3,4]

Imports augbias from CHECKOUT/src and runs each plan of this script's
perfbench/workloads (table1, plateau, theory), once per seed, with
`cli.run_plan(plan, jobs=1)`, after one unrecorded plan of each workload
to warm caches. BLAS runs on one thread and the plans run in this process,
so record-scoring workers are forked from it as in a `perfbench` child. For
each workload it keeps the median over seeds of:

  plan_s              wall seconds of run_plan
  setup.data_s, setup.floor_s, setup.constants_s
                      the set-up phases, summed over the plan's groups
  runs.CELL.train_s, .score_s, .score_wait_s, .wall_time
                      each run's summary fields: training, scoring on the
                      training thread (waiting on workers included), that
                      waiting alone, and the run's wall time
  forks               scoring workers forked per plan
  own_records         trace records scored on the training thread
  records             trace records written
  chunks              chunks of records scored
  sent_kb             KB sent to the scoring workers
  minor_faults        minor page faults of this process during the plan,
                      which copy-on-write copies after a fork add to

The counts are read by wrapping trainers.ScoringWorkers.connections,
trainers._Scorer.score (in this process only), trainers._RecordScorer.start
and multiprocessing's Connection._send_bytes, which any checkout with
forked scoring workers has. The result is stored under --label in --out,
next to the labels already there, so two checkouts measured on one host
sit side by side.
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
COUNTS = ("forks", "own_records", "records", "chunks", "sent_kb")
PHASES = ("data_s", "floor_s", "constants_s")
RUN_FIELDS = ("train_s", "score_s", "score_wait_s", "wall_time")


class Counters:
    """Counts, in this process, what the wrapped functions see."""

    def __init__(self):
        import multiprocessing.connection
        from augbias import trainers

        self.calling = os.getpid()
        self.reset()
        counts = self
        connections = trainers.ScoringWorkers.connections
        score = trainers._Scorer.score
        start = trainers._RecordScorer.start
        send_bytes = multiprocessing.connection.Connection._send_bytes

        def counted_connections(self, fork):
            before = len(self._live)
            out = connections(self, fork)
            counts.forks += len(self._live) - before
            return out

        def counted_score(self, params, ws):
            if os.getpid() == counts.calling:
                counts.own_records += len(params)
            return score(self, params, ws)

        def counted_start(self, chunk, overlap_s):
            counts.chunks += 1
            return start(self, chunk, overlap_s)

        def counted_send(self, buf):
            if os.getpid() == counts.calling:
                counts.sent_kb += len(buf) / 1024
            return send_bytes(self, buf)

        trainers.ScoringWorkers.connections = counted_connections
        trainers._Scorer.score = counted_score
        trainers._RecordScorer.start = counted_start
        multiprocessing.connection.Connection._send_bytes = counted_send

    def reset(self):
        self.forks = self.own_records = self.chunks = 0
        self.sent_kb = 0.0


def run_workload(name: str, seeds: list[int], counters: Counters) -> dict:
    from augbias import cli

    plan, errors = cli.validate_config(os.path.join(WORKLOADS, f"{name}.ini"))
    if errors:
        raise SystemExit(f"{name}: {'; '.join(errors)}")
    samples = []
    for i, seed in enumerate([seeds[0], *seeds]):  # the first plan warms up
        outdir = tempfile.mkdtemp(prefix=f"plan-phases-{name}-")
        try:
            counters.reset()
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            t0 = time.perf_counter()
            _, code = cli.run_plan(dataclasses.replace(plan, seeds=(seed,), outdir=outdir))
            plan_s = time.perf_counter() - t0
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
            if code != 0:
                raise SystemExit(f"{name} seed {seed}: run_plan exited with {code}")
            summaries = []
            for f in sorted(os.listdir(outdir)):
                if f.endswith(".json"):
                    with open(os.path.join(outdir, f), encoding="utf-8") as fh:
                        summaries.append(json.load(fh))
        finally:
            shutil.rmtree(outdir)
        if i == 0:
            continue
        sample = {"plan_s": plan_s, "minor_faults": faults,
                  **{k: getattr(counters, k) for k in COUNTS if k != "records"}}
        sample["records"] = sum(s["iterations"] - s["reused_steps"] + 1 for s in summaries)
        for phase in PHASES:
            sample[f"setup.{phase}"] = sum(s.get(phase, 0.0) for s in summaries)
        for s in summaries:
            for field in RUN_FIELDS:
                sample[f"runs.{s['cell']}.{field}"] = s[field]
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

    counters = Counters()
    workloads = {name: run_workload(name, seeds, counters)
                 for name in ("table1", "plateau", "theory")}
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc.setdefault("unit", "median over seeds of one in-process plan each: seconds, "
                           "counts per plan and KB per plan")
    doc.setdefault("runs", {})[args.label] = {
        "workloads": workloads,
        "seeds": seeds,
        "src_sha256": _src_sha256(src),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count(),
                 "loadavg_at_end": list(os.getloadavg())},
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, result in workloads.items():
        counts = ", ".join(f"{k} {result[k]:g}" for k in COUNTS)
        print(f"{args.label}: {name:<7} plan_s {result['plan_s']:.3f}  "
              f"floor_s {result['setup.floor_s']:.4f}  {counts}, "
              f"minor_faults {result['minor_faults']:g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
