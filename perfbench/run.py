"""Benchmark for augbias: plan wall time per workload, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table1 --seed 0 --seconds 30 --trace 0

Each workload is a frozen INI plan in perfbench/workloads/. Every plan runs
through the CLI's public path (`validate_config`, then `run_plan` with
jobs=1) in a fresh child process with BLAS pinned to one thread, and every
run's outputs are checked against perfbench/reference.json: the sha256 of
each trace CSV and the `final_gap` and `floor` of each summary. A
(cell, seed) run fails if it raises, aborts, or differs from the reference.

--trace 0 prints the end-to-end metrics: `plan_s` (run_plan entry to
aggregate.csv written), `setup_s` (child start until the plan is validated)
and `peak_rss_mb`, each the median over the run's samples. Plans repeat
while the next one still fits in --seconds; set-up is sampled by extra
set-up-only children. The error rate is carried by `attempted`/`failed`.

--trace 1 runs pairs of one untraced and one traced plan on the same seeds
and prints the per-layer metrics from the traced one (tracing.py), plus
`trace.overhead_s`, the traced minus the untraced plan_s.

The last stdout line is the JSON result; the lines before it are the
environment stamp and a readable summary. Maintenance modes:

    --self-test        corrupt one trace byte and show the check catches it
    --record-reference rewrite reference.json for the shipped seeds
    --baseline         rewrite baseline.json (per-call costs from the spans)
"""
from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracing import layer_metrics, per_call_costs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
CHILD = os.path.join(BENCH, "child.py")
WORK = os.path.join(ROOT, ".perfbench-work")
REFERENCE = os.path.join(BENCH, "reference.json")
BASELINE = os.path.join(BENCH, "baseline.json")

WORKLOADS = ("table1", "plateau", "theory")
# Each plan runs one seed drawn from 0..SHIPPED_SEEDS-1, the seeds
# reference.json covers, so every run can be checked. One seed per plan gives
# the most samples per run for the median.
SHIPPED_SEEDS = 10
SETUP_PROBES = 3  # before and again after the plans
RUN_LIMIT_S = 170.0
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# The ad-hoc profile figures that baseline.json replaces, and what replaces them.
ADHOC = {
    "full suite: 261 s": None,
    "table1-desk: about 5 s per run": ("table1", "end_to_end", "plan_s_per_run"),
    "step gradient: 0.047 ms": ("table1", "per_call_ms", "models.label_grad.step64.ms_per_call"),
    "trace record: 1.88 ms": ("table1", "per_call_ms", "record.ms_per_record"),
    "theory-mode resolve for one cell: 2.1 s":
        ("theory", "per_call_ms", "theory.estimate_constants.ms_per_call"),
    "estimate_G: 1.1 s per resolve": ("theory", "per_call_ms", "models.estimate_G.ms_per_call"),
}


class BenchError(Exception):
    pass


def _clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _ini(workload: str) -> str:
    return os.path.join(BENCH, "workloads", f"{workload}.ini")


def _cells(workload: str) -> list[str]:
    cp = configparser.ConfigParser()
    with open(_ini(workload), encoding="utf-8") as fh:
        cp.read_file(fh)
    return [s[len("cell."):] for s in cp.sections() if s.startswith("cell.")]


def plan_seeds(seed: int, rep: int) -> list[int]:
    """The plan seeds of repetition `rep` of a run started with `seed`."""
    return [(seed + rep) % SHIPPED_SEEDS]


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {os.path.relpath(path, ROOT)}: {exc}") from exc


def _preflight() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "augbias", "cli.py")):
        raise BenchError(f"no augbias source under {os.path.join(ROOT, 'src')}")


def _src_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def host_stamp() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "blas_env": BLAS_ENV,
    }


# ---------------------------------------------------------------------------
# children


def spawn(workload: str, seeds, outdir: str, deadline: float | None, flags=()) -> dict | None:
    """Run one child; its result dict plus setup_s and wall_s, or None."""
    cmd = [sys.executable, CHILD, ROOT, _ini(workload), outdir,
           ",".join(str(s) for s in seeds), *flags]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(BLAS_ENV)
    t0 = _clock()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=ROOT, text=True)
    try:
        timeout = None if deadline is None else max(1.0, deadline - t0)
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        sys.stderr.write(err)
        print(f"{workload}: child on seeds {seeds} killed at the time limit", file=sys.stderr)
        return None
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{workload}: child on seeds {seeds} exited {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(lines[-1])
    res["setup_s"] = res["ready"] - t0
    res["wall_s"] = _clock() - t0
    return res


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def check_outputs(workload: str, outdir: str, seeds, reference: dict) -> tuple[int, list[str]]:
    """(attempted, problems): at most one problem per (cell, seed) run."""
    pairs = [(c, s) for c in _cells(workload) for s in seeds]
    problems = []
    for cell, seed in pairs:
        key = f"{cell}__seed{seed}"
        want = reference.get(key)
        try:
            digest = _digest(os.path.join(outdir, key + ".csv"))
            with open(os.path.join(outdir, key + ".json"), encoding="utf-8") as fh:
                summary = json.load(fh)
        except (OSError, ValueError) as exc:
            problems.append(f"{key}: no readable output ({exc})")
            continue
        if want is None:
            problems.append(f"{key}: no reference recorded")
        elif summary.get("aborted", True):
            problems.append(f"{key}: run aborted")
        elif digest != want["trace_sha256"]:
            problems.append(f"{key}: trace CSV bytes differ from the reference")
        elif summary.get("final_gap") != want["final_gap"] or summary.get("floor") != want["floor"]:
            problems.append(f"{key}: final_gap/floor differ from the reference")
    return len(pairs), problems


def _counts(workload: str, outdir: str, seeds) -> dict:
    """trainers.steps (summary iterations) and trainers.records (trace rows)."""
    steps = records = 0
    for cell in _cells(workload):
        for seed in seeds:
            key = os.path.join(outdir, f"{cell}__seed{seed}")
            with open(key + ".json", encoding="utf-8") as fh:
                steps += json.load(fh)["iterations"]
            with open(key + ".csv", "rb") as fh:
                records += fh.read().count(b"\n") - 1
    return {"trainers.steps": steps, "trainers.records": records}


# ---------------------------------------------------------------------------
# measurement


class Run:
    """One benchmark run's plan children, their checks and their samples."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.reference = _load_json(REFERENCE)["workloads"][workload]
        self.deadline = _clock() + RUN_LIMIT_S
        self.attempted = 0
        self.problems: list[str] = []
        self.seeds_used: list[list[int]] = []
        self.env: dict = {}

    def plan(self, rep: int, traced: bool = False, seed_rep: int | None = None) -> dict | None:
        seeds = plan_seeds(self.seed, rep if seed_rep is None else seed_rep)
        self.seeds_used.append(seeds)
        outdir = os.path.join(WORK, f"{self.workload}-{rep}{'-traced' if traced else ''}")
        shutil.rmtree(outdir, ignore_errors=True)
        spans = outdir + ".spans.json"
        res = spawn(self.workload, seeds, outdir, self.deadline,
                    ("--spans", spans) if traced else ())
        n, problems = check_outputs(self.workload, outdir, seeds, self.reference)
        self.attempted += n
        self.problems += problems
        if res is not None:
            self.env = self.env or res["env"]
            if traced and not problems:
                trace = _load_json(spans)
                res["trace"] = trace
                res["counts"] = _counts(self.workload, outdir, seeds)
        shutil.rmtree(outdir, ignore_errors=True)
        if os.path.exists(spans):
            os.remove(spans)
        return res

    def setup_probe(self) -> dict | None:
        return spawn(self.workload, plan_seeds(self.seed, 0),
                     os.path.join(WORK, "unused"), self.deadline, ("--setup-only",))

    def fits(self, t_measure: float, seconds: float, last: float) -> bool:
        now = _clock()
        return now - t_measure + last <= seconds and now + last < self.deadline


def measure_end_to_end(run: Run, seconds: float) -> dict:
    samples = {"plan_s": [], "setup_s": [], "peak_rss_mb": []}

    def probe(count):
        for _ in range(count):
            res = run.setup_probe()
            if res is not None:
                samples["setup_s"].append(res["setup_s"])

    run.setup_probe()  # warm-up: the first start after a checkout compiles bytecode
    # set-up is sampled on both sides of the plans, so that a slow spell of
    # the host at either end weighs less
    probe(SETUP_PROBES)
    t_measure, rep = _clock(), 0
    while True:
        res = run.plan(rep)
        rep += 1
        if res is None:
            break
        samples["plan_s"].append(res["plan_s"])
        samples["setup_s"].append(res["setup_s"])
        samples["peak_rss_mb"].append(res["rss_mb"])
        if not run.fits(t_measure, seconds, res["wall_s"]):
            break
    probe(SETUP_PROBES)
    return samples


def measure_layers(run: Run, seconds: float) -> tuple[dict, dict, list[str]]:
    """Per-layer samples, the first pair's per-call costs, missing targets.

    Pairs repeat while the next one fits in `seconds`; at least one runs.
    """
    samples: dict = {}
    per_call: dict = {}
    missing: list[str] = []
    t_measure, rep = _clock(), 0
    while True:
        t_pair = _clock()
        # every pair runs the same seeds, so counts repeat exactly
        plain = run.plan(rep, seed_rep=0)
        traced = run.plan(rep, traced=True, seed_rep=0)
        rep += 1
        if plain is None or traced is None or "trace" not in traced:
            break
        trace = traced["trace"]
        missing = trace["missing"]
        values = layer_metrics(trace)
        values.update(traced["counts"])
        values["trace.overhead_s"] = traced["plan_s"] - plain["plan_s"]
        for name, v in values.items():
            samples.setdefault(name, []).append(v)
        if not per_call:
            per_call = per_call_costs(trace, traced["counts"]["trainers.records"])
        if not run.fits(t_measure, seconds, _clock() - t_pair):
            break
    return samples, per_call, missing


def _spec() -> dict:
    return _load_json(os.path.join(ROOT, "BENCHMARK.json"))


def benchmark(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, extras for the readable summary and the baseline)."""
    _preflight()
    spec = _spec()
    stamp = host_stamp()
    run = Run(workload, seed)
    os.makedirs(WORK, exist_ok=True)
    if trace:
        samples, per_call, missing = measure_layers(run, seconds)
        wanted = spec["per_layer"]
    else:
        samples, per_call, missing = measure_end_to_end(run, seconds), {}, []
        wanted = spec["end_to_end"]
    metrics, counts = {}, {}
    absent = []
    for m in wanted:
        values = samples.get(m["name"])
        if values:
            metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
            counts[m["name"]] = len(values)
        else:
            absent.append(m["name"])
    failed = len(run.problems)
    result = {"correct": failed == 0 and run.attempted > 0,
              "attempted": run.attempted, "failed": failed, "metrics": metrics}
    stamp.update(run.env, workload=workload, seed=seed, seconds=seconds,
                 plan_seeds=run.seeds_used)
    extras = {"env": stamp, "counts": counts, "samples": samples, "per_call": per_call,
              "missing_targets": missing, "absent_metrics": absent,
              "problems": run.problems}
    return result, extras


def _print_summary(workload: str, result: dict, extras: dict) -> None:
    print("env " + json.dumps(extras["env"], sort_keys=True))
    for p in extras["problems"]:
        print(f"{workload}: FAILED {p}")
    for name in extras["missing_targets"]:
        print(f"{workload}: wrap target missing: {name}")
    for name in extras["absent_metrics"]:
        print(f"{workload}: metric missing: {name}")
    for name, m in result["metrics"].items():
        values = extras["samples"][name]
        spread = f", min {min(values):.6g}, max {max(values):.6g}" if len(values) > 1 else ""
        print(f"{workload} {name}: {m['value']:.6g} {m['unit']} "
              f"(median of {len(values)}{spread})")
    rate = result["failed"] / result["attempted"] if result["attempted"] else float("nan")
    print(f"{workload} error_rate: {rate:.6g} ratio "
          f"({result['failed']} failed of {result['attempted']} runs)")


# ---------------------------------------------------------------------------
# maintenance modes


def record_reference() -> int:
    """Run every workload on all shipped seeds and record its outputs."""
    _preflight()
    out = {"note": "sha256 of each trace CSV and the summary final_gap and floor, "
                   f"per (cell, seed), for seeds 0..{SHIPPED_SEEDS - 1}; BLAS pinned "
                   "to one thread. Rewritten only by --record-reference.",
           "env": host_stamp(), "workloads": {}}
    for workload in WORKLOADS:
        seeds = list(range(SHIPPED_SEEDS))
        outdir = os.path.join(WORK, f"{workload}-reference")
        shutil.rmtree(outdir, ignore_errors=True)
        res = spawn(workload, seeds, outdir, None)
        if res is None or res["exit"] != 0:
            print(f"{workload}: reference plan failed", file=sys.stderr)
            return 1
        out["env"].update(res["env"])
        runs = {}
        for cell in _cells(workload):
            for seed in seeds:
                key = f"{cell}__seed{seed}"
                with open(os.path.join(outdir, key + ".json"), encoding="utf-8") as fh:
                    summary = json.load(fh)
                runs[key] = {"trace_sha256": _digest(os.path.join(outdir, key + ".csv")),
                             "final_gap": summary["final_gap"], "floor": summary["floor"]}
        out["workloads"][workload] = runs
        shutil.rmtree(outdir, ignore_errors=True)
        print(f"{workload}: {len(runs)} runs recorded in {res['plan_s']:.1f} s")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def self_test(workload: str) -> int:
    """The reference check passes on fresh outputs and fails on one flipped byte."""
    _preflight()
    reference = _load_json(REFERENCE)["workloads"][workload]
    seeds = plan_seeds(0, 0)
    outdir = os.path.join(WORK, f"{workload}-selftest")
    shutil.rmtree(outdir, ignore_errors=True)
    try:
        if spawn(workload, seeds, outdir, _clock() + RUN_LIMIT_S) is None:
            return 1
        n, clean = check_outputs(workload, outdir, seeds, reference)
        print(f"untouched outputs: error_rate {len(clean) / n:.6g} ({len(clean)} of {n})")
        victim = os.path.join(outdir, f"{_cells(workload)[0]}__seed{seeds[0]}.csv")
        with open(victim, "r+b") as fh:
            data = bytearray(fh.read())
            data[len(data) // 2] ^= 1
            fh.seek(0)
            fh.write(data)
        n, dirty = check_outputs(workload, outdir, seeds, reference)
        print(f"one trace byte flipped: error_rate {len(dirty) / n:.6g} ({len(dirty)} of {n})")
        for p in dirty:
            print(f"  {p}")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    ok = not clean and len(dirty) == 1
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def record_baseline(seconds: float) -> int:
    """Measure every workload at seed 0 and write baseline.json."""
    workloads = {}
    for workload in WORKLOADS:
        e2e, e2e_extra = benchmark(workload, 0, seconds, trace=False)
        layers, layer_extra = benchmark(workload, 0, seconds, trace=True)
        if not (e2e["correct"] and layers["correct"]):
            print(f"{workload}: incorrect outputs; baseline not written", file=sys.stderr)
            return 1
        end_to_end = {k: v["value"] for k, v in e2e["metrics"].items()}
        end_to_end["plan_s_per_run"] = end_to_end["plan_s"] / len(_cells(workload))
        workloads[workload] = {
            "end_to_end": end_to_end,
            "end_to_end_samples": e2e_extra["counts"],
            "per_layer": {k: v["value"] for k, v in layers["metrics"].items()},
            "per_call_ms": layer_extra["per_call"],
            "env": e2e_extra["env"],
        }
        print(f"{workload}: plan_s {end_to_end['plan_s']:.3f} s")
    supersedes = {}
    for figure, where in ADHOC.items():
        if where is None:
            supersedes[figure] = "not measured here: the test suite is not a workload"
        else:
            workload, group, key = where
            supersedes[figure] = {"workload": workload, "metric": key,
                                  "value": workloads[workload][group].get(key)}
    out = {"note": "Written by `python3 perfbench/run.py --baseline`; seed 0, "
                   f"--seconds {seconds}. Times in s, per-call costs in ms. "
                   "`supersedes` maps each ad-hoc profile figure to its measured "
                   "replacement.",
           "supersedes": supersedes, "workloads": workloads}
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--record-reference", action="store_true")
    mode.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.record_reference:
            return record_reference()
        if args.baseline:
            return record_baseline(args.seconds)
        if args.self_test:
            return self_test(args.workload or "theory")
        if args.workload is None:
            ap.error("--workload is required")
        result, extras = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    _print_summary(args.workload, result, extras)
    print(json.dumps(result))
    return 0 if result["correct"] and not extras["absent_metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
