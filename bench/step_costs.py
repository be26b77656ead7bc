"""Per-call cost of the SGD step's layers on the canonical task.

    python3 bench/step_costs.py --root CHECKOUT [--label NAME] [--out BENCH_step.json]

Imports augbias from CHECKOUT/src, so one copy of this script times any
checkout whose step functions take the flat weight vector with these
signatures: label_grad(w, x, z), combined_grad(w, orig_batch, aug_batch,
lam, delta_y), trainers._train(w, orig, aug, cfg, stages) and
models.stack_stats(params, set, delta_y, grad). It times, in microseconds
per call:

  draw_aug.64, draw_aug.4000        trainers._draw_aug at 64 and 4,000 rows
  label_grad.64, label_grad.4000    models.label_grad at 64 and 4,000 rows
  combined_grad.33                  losses.combined_grad, one original and m0 = 33
  train_step.aug64, train_step.aug4000, train_step.mixed33
                                    one step of trainers._train: draw, gradient
                                    and sgd_step, at those batches

and, in microseconds per iterate, the trace record's two kernel calls, each
on a stack of trainers.CHUNK iterates (the first steps of an Augmented run
at batch 64), as a run scores trainers.CHUNK records per kernel call:

  record.orig2000_grad              models.stack_stats on the 2,000 originals
                                    with the gradient
  record.aug4000_dy0, record.aug4000_dy0.4
                                    models.stack_stats on the 4,000 augmented
                                    examples with the corrected loss at
                                    delta_y 0 and 0.4

A checkout whose kernel reads a models.EvalSet gets one, built once per set
as a run builds it, and the kernel's own scratch arrays per call.

The task is table1-desk's canonical one (n = 2,000 originals, m = 4,000
augmented, d = 10, k = 5, delta_y = 0.4), at seed 0, with BLAS on one
thread and the allocator thresholds run_plan sets (cli._keep_freed_memory),
from the start 0.1 * Rng(0, STREAM_INIT).gen.standard_normal(k * d).
Each cost is the mean of --calls calls (a twentieth of that for 4,000-row
calls, and a five-hundredth, but at least 25, for the record layers), and
the median and the min of that mean over --rounds rounds are kept; on a shared host the min is the steadier of the two. The result is
stored under --label in the JSON file --out, next to the labels already
there, so the costs of two checkouts measured on one host sit side by side.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse
import hashlib
import itertools
import json
import platform
import statistics
import sys
import time


def _src_sha256(src: str) -> str:
    """Digest of the package's source files, which names the code timed."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "augbias")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _per_call_us(fn, calls: int, rounds: int, per: int = 1) -> tuple[float, float]:
    """(median, min) over rounds of the mean microseconds per call, or per
    one of the `per` items each call handles."""
    fn()  # warm caches and lazy set-up
    means = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        means.append(1e6 * (time.perf_counter() - t0) / (calls * per))
    return round(statistics.median(means), 2), round(min(means), 2)


def measure(calls: int, rounds: int) -> dict:
    """{layer: (median, min) microseconds per call, or per iterate for the
    record layers}."""
    import numpy as np

    from augbias import cli, models, trainers
    from augbias.augment import gen_synthetic
    from augbias.core import Rng
    from augbias.losses import combined_grad
    from augbias.models import label_grad, stack_stats
    from augbias.trainers import Augmented, MixLoss, TrainConfig

    cli._keep_freed_memory()  # as run_plan does, so fresh batches reuse heap pages
    task = cli.presets()["table1-desk"].task
    orig, aug, _ = gen_synthetic(task, Rng(0, 0))
    w0 = 0.1 * Rng(0, trainers.STREAM_INIT).gen.standard_normal(task.k * task.d)
    rng = Rng(0, trainers.STREAM_AUG)
    batches = {rows: trainers._draw_aug(aug, rng, rows) for rows in (64, 4000)}
    xo, yo = orig.inputs[:1], orig.labels[:1]
    xa, ya = trainers._draw_aug(aug, rng, 33)

    def train_steps(scheme, batch):
        """A generator of _train steps that never runs out."""
        stage = scheme.stages[0]
        cfg = TrainConfig(scheme=scheme, seed=0)
        return trainers._train(w0, orig, aug, cfg, [(stage, 1, (10**9, batch))])

    def kernel_set(ds):
        """What the checkout's kernel reads for the set `ds`."""
        return models.EvalSet.of(ds.inputs, ds.labels) if hasattr(models, "EvalSet") else ds

    stack = np.array([w for _, _, w in itertools.islice(
        train_steps(Augmented(eta=0.5), 64), trainers.CHUNK)])
    ev_orig, ev_aug = kernel_set(orig), kernel_set(aug)

    # name: (one call, rows per call)
    costs = {}
    for rows in (64, 4000):
        costs[f"draw_aug.{rows}"] = (lambda rows=rows: trainers._draw_aug(aug, rng, rows), rows)
        costs[f"label_grad.{rows}"] = (lambda rows=rows: label_grad(w0, *batches[rows]), rows)
    costs["combined_grad.33"] = (lambda: combined_grad(w0, (xo, yo), (xa, ya), 0.6, 0.4), 33)
    for name, scheme, batch in (("aug64", Augmented(eta=0.5), 64),
                                ("aug4000", Augmented(eta=0.5), 4000),
                                ("mixed33", MixLoss(lam=0.6, delta_y=0.4, m0=33, eta=0.5), 33)):
        costs[f"train_step.{name}"] = (train_steps(scheme, batch).__next__, batch)
    out = {}
    for name, (fn, rows) in costs.items():
        n = calls if rows <= 64 else max(1, calls // 20)  # a 4,000-row call costs ~20 small ones
        out[name] = _per_call_us(fn, n, rounds)
    # name: one call on the stack, which costs ~500 small ones; fewer than 25
    # calls a round (about 0.4 s) spread the medians wider than a kernel change
    records = {"record.orig2000_grad": lambda: stack_stats(stack, ev_orig, grad=True),
               "record.aug4000_dy0": lambda: stack_stats(stack, ev_aug, delta_y=0.0),
               "record.aug4000_dy0.4": lambda: stack_stats(stack, ev_aug, delta_y=0.4)}
    for name, fn in records.items():
        out[name] = _per_call_us(fn, max(25, calls // 500), rounds, per=len(stack))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", required=True, help="checkout whose src/augbias is timed")
    ap.add_argument("--label", default="current", help="key of this result in --out")
    ap.add_argument("--out", default="BENCH_step.json", help="JSON file to add the result to")
    ap.add_argument("--calls", type=int, default=2000, help="calls per round (64-row layers)")
    ap.add_argument("--rounds", type=int, default=7, help="rounds; the median is kept")
    args = ap.parse_args(argv)
    if args.calls < 1 or args.rounds < 1:
        ap.error("--calls and --rounds must be at least 1")
    root = os.path.abspath(args.root)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "augbias", "trainers.py")):
        ap.error(f"no augbias source under {src}")
    sys.path.insert(0, src)

    import numpy as np

    costs = measure(args.calls, args.rounds)
    result = {
        "us_per_call": {name: med for name, (med, _) in costs.items()},
        "us_per_call_min": {name: low for name, (_, low) in costs.items()},
        "src_sha256": _src_sha256(src),
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "machine": platform.machine(), "cpus": os.cpu_count(),
                 "loadavg_at_end": list(os.getloadavg())},
        "calls": args.calls,
        "rounds": args.rounds,
    }
    doc = {}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc["unit"] = ("microseconds per call, per iterate for record.*: the median and the min "
                   "over rounds")
    doc.setdefault("runs", {})[args.label] = result
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    width = max(len(name) for name in costs)
    for name, (med, low) in costs.items():
        print(f"{args.label}: {name:<{width}}  median {med:10.2f} us  min {low:10.2f} us")
    return 0


if __name__ == "__main__":
    sys.exit(main())
