"""Trace bytes and summary fields of every preset, at one checkout or two.

    python3 bench/preset_bytes.py --root A [--root B] [--seeds 0 1] [--out FILE]

For each --root, a child process imports augbias from ROOT/src and runs
each packaged preset in that process, at --seeds, once in practical and
once in theory mode, as `augbias run` does: `cli.validate_config` on an
INI that names the preset and sets [plan] seeds, mode and outdir, then
`cli.run_plan` with jobs=1, BLAS on one thread. For each plan it keeps
the exit code (2 for a plan that does not validate, which runs nothing),
and for each run the sha256 of its trace CSV and the summary fields in
FIELDS (null where a summary lacks one).

With --out, every root's result is written there as JSON, keyed by root.
Given two roots, the script prints every difference, plan by plan and run
by run, and exits 1 if there is any, 0 if there is none.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

FIELDS = ("final_gap", "floor", "reused_steps", "iterations", "aborted", "train_gap",
          "constants", "bounds", "bounds_held", "warnings", "resolved")
MODES = ("practical", "theory")
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def digest(seeds: list[int]) -> dict:
    """{"PRESET/MODE": {"exit": code, "runs": {RUN: {"csv_sha256": ..., FIELD: ...}}}}
    for the augbias on sys.path."""
    from augbias import cli

    out = {}
    for preset in sorted(cli.presets()):
        for mode in MODES:
            work = tempfile.mkdtemp(prefix=f"preset-bytes-{preset}-{mode}-")
            try:
                ini = os.path.join(work, "plan.ini")
                with open(ini, "w", encoding="utf-8") as fh:
                    fh.write(f"[plan]\npreset = {preset}\nmode = {mode}\n"
                             f"seeds = {', '.join(map(str, seeds))}\n"
                             f"outdir = {os.path.join(work, 'out')}\n")
                plan, errors = cli.validate_config(ini)
                code = 2 if errors else cli.run_plan(plan)[1]
                out[f"{preset}/{mode}"] = {"exit": code,
                                           "runs": {} if errors else _runs(plan.outdir)}
            finally:
                shutil.rmtree(work)
    return out


def _runs(outdir: str) -> dict:
    runs = {}
    for name in sorted(os.listdir(outdir)):
        stem, ext = os.path.splitext(name)
        if ext != ".json":
            continue
        with open(os.path.join(outdir, name), encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(os.path.join(outdir, stem + ".csv"), "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        runs[stem] = {"csv_sha256": sha, **{f: summary.get(f) for f in FIELDS}}
    return runs


def run_root(root: str, seeds: list[int]) -> dict:
    """digest() for the checkout `root`, computed in a child process."""
    src = os.path.join(root, "src")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--digest", src,
         "--seeds", *map(str, seeds)],
        env={**os.environ, **BLAS_ENV}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: the child process exited with {proc.returncode}")
    return json.loads(proc.stdout)


def differences(a: dict, b: dict) -> list[str]:
    """One line per plan, run or field on which `a` and `b` differ; values
    compare as their JSON text, so NaN matches NaN and floats go by repr."""
    text = functools.partial(json.dumps, sort_keys=True)
    lines = []
    for plan in sorted(a.keys() | b.keys()):
        if plan not in a or plan not in b:
            lines.append(f"{plan}: only in {'A' if plan in a else 'B'}")
            continue
        pa, pb = a[plan], b[plan]
        if pa["exit"] != pb["exit"]:
            lines.append(f"{plan}: exit {pa['exit']} != {pb['exit']}")
        for run in sorted(pa["runs"].keys() | pb["runs"].keys()):
            ra, rb = pa["runs"].get(run), pb["runs"].get(run)
            if ra is None or rb is None:
                lines.append(f"{plan} {run}: only in {'A' if rb is None else 'B'}")
                continue
            lines += [f"{plan} {run} {key}: {text(ra[key])} != {text(rb[key])}"
                      for key in ra if text(ra[key]) != text(rb[key])]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", action="append", help="checkout whose presets are run; "
                    "give it twice to compare two")
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1], help="plan seeds")
    ap.add_argument("--out", help="JSON file to write every root's result to")
    ap.add_argument("--digest", help=argparse.SUPPRESS)  # the child: a src directory
    args = ap.parse_args(argv)
    if args.digest:
        sys.path.insert(0, args.digest)
        print(json.dumps(digest(args.seeds)))
        return 0
    if not args.root or len(args.root) > 2:
        ap.error("give --root once or twice")
    roots = [os.path.abspath(r) for r in args.root]
    for root in roots:
        if not os.path.isfile(os.path.join(root, "src", "augbias", "trainers.py")):
            ap.error(f"no augbias source under {root}/src")
    results = [run_root(root, args.seeds) for root in roots]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"seeds": args.seeds, "fields": FIELDS,
                       "roots": dict(zip(roots, results))}, fh, indent=2, sort_keys=True)
            fh.write("\n")
    for label, root, result in zip("AB", roots, results):
        runs = sum(len(p["runs"]) for p in result.values())
        exits = ", ".join(f"{plan} {p['exit']}" for plan, p in result.items() if p["exit"])
        print(f"{label} = {root}: {len(result)} plans, {runs} runs; "
              f"nonzero exits: {exits or 'none'}")
    if len(results) == 1:
        return 0
    lines = differences(*results)
    print("\n".join(lines) if lines else "A and B agree on every plan, run and field")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
