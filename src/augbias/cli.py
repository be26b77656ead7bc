"""Batch experiment runner.

Plans come from an INI file ([task], [plan], [cell.*] sections). The five
presets are such files, packaged as presets/<name>.ini, and a copy of one is
a starting point for a new plan. A file whose only section is [plan] with
`preset = X` reads as presets/X.ini with that file's other [plan] keys laid
over the preset's, and `run --preset X` reads presets/X.ini itself; either
way the plan is parsed and checked like any other. Each (cell, seed) pair
becomes one training run that writes a trace CSV and a summary JSON, and
the plan ends with an aggregate CSV of per-cell gap statistics.

The unit of work is a group: the consecutive cells of the seed-major pair
order that run on one (task, seed). A group computes that (task, seed)'s
data, floors and theory-mode constants once, and its cells share them and
any first stage they repeat. With --jobs, each worker runs whole groups and
computes their set-ups from the seed, so the pool never ships arrays
between processes.

Exit codes: 0 all runs finished finite, 1 some run diverged or failed (or a
report mismatch), 2 invalid configuration.
"""
from __future__ import annotations

import argparse
import configparser
import ctypes
import dataclasses
import functools
import inspect
import itertools
import json
import math
import os
import re
import sys
import time
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .augment import SyntheticTask, gen_synthetic, sample_original
from .core import LabeledSet, Rng
from .theory import (
    CeObjective,
    ConstantEstimates,
    best_found_floor,
    estimate_constants,
    theory_stepsizes,
)
from .trainers import (
    SCHEMES,
    AugDrop,
    Augmented,
    FirstStageStore,
    MixLoss,
    Original,
    Scheme,
    TrainConfig,
    run_scheme,
    share_cpus,
    size_stages,
    write_trace_csv,
)

# Cell keys besides the scheme constructor's arguments.
_TASK_OVERRIDE_KEYS = ("task_delta_y", "task_delta_p")
# The [task] keys, SyntheticTask's fields, with their types.
_TASK_FIELDS = typing.get_type_hints(SyntheticTask)
_PLAN_KEYS = ("preset", "seeds", "outdir", "mode", "eval_n", "constraint_floor")


@dataclass(frozen=True)
class Cell:
    name: str
    scheme: Scheme
    task_delta_y: float | None = None
    task_delta_p: float | None = None


@dataclass(frozen=True)
class ExperimentPlan:
    task: SyntheticTask
    cells: tuple
    seeds: tuple
    outdir: str
    mode: str = "practical"
    eval_n: int = 0
    constraint_floor: bool = False

    def __post_init__(self):
        if len(self.cells) < 1 or len(self.seeds) < 1:
            raise ValueError("a plan needs at least one cell and one seed")
        if self.mode not in ("practical", "theory"):
            raise ValueError("mode must be 'practical' or 'theory'")
        if self.eval_n < 0:
            raise ValueError("eval_n must be nonnegative")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be nonnegative, not {min(self.seeds)}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must be distinct, {_repeated(self.seeds)} repeats")


def _repeated(seeds) -> int:
    """The first seed that `seeds` holds more than once."""
    return next(s for s in seeds if seeds.count(s) > 1)


# ---------------------------------------------------------------------------
# presets: packaged plans, one INI file each, with constants frozen from the
# tuning runs recorded alongside the acceptance suite

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


def _preset_names() -> list[str]:
    return sorted(f[:-len(".ini")] for f in os.listdir(_PRESET_DIR) if f.endswith(".ini"))


def _preset_path(name: str) -> str:
    return os.path.join(_PRESET_DIR, f"{name}.ini")


def presets() -> dict:
    """Every packaged preset plan, by name, parsed from presets/<name>.ini."""
    out = {}
    for name in _preset_names():
        plan, errors = validate_config(_preset_path(name))
        if errors:
            raise ValueError(f"preset {name}: {'; '.join(errors)}")
        out[name] = plan
    return out


# ---------------------------------------------------------------------------
# config parsing


def _parse_num(section, key, raw, kind, errors):
    try:
        return kind(raw)
    except ValueError:
        errors.append(f"[{section}] key '{key}' is not a valid {kind.__name__}: {raw!r}")
        return None


def _parse_seeds(raw, errors):
    try:
        seeds = tuple(int(tok) for tok in raw.replace(",", " ").split())
    except ValueError:
        errors.append(f"[plan] seeds must be a list of integers: {raw!r}")
        return ()
    if not seeds:
        errors.append("[plan] seeds must name at least one seed")
    elif min(seeds) < 0:
        errors.append(f"[plan] seeds must be nonnegative, not {min(seeds)}")
        return ()
    elif len(set(seeds)) < len(seeds):
        errors.append(f"[plan] seeds must be distinct, {_repeated(seeds)} repeats")
        return ()
    return seeds


def _parse_task(cp, errors) -> SyntheticTask | None:
    sec = dict(cp["task"])
    for key in sec:
        if key not in _TASK_FIELDS:
            errors.append(f"[task] unknown key '{key}'")
    kw = {}
    for key, kind in _TASK_FIELDS.items():
        if key in sec:
            val = sec[key] if kind is str else _parse_num("task", key, sec[key], kind, errors)
            if val is not None:
                kw[key] = val
    try:
        return SyntheticTask(**kw)
    except (ValueError, TypeError) as exc:
        errors.append(f"[task] {exc}")
        return None


def _checked(prefix, errors, fn, /, *args, **kwargs):
    """fn(*args, **kwargs), or None after adding each message of its
    ValueError ("; "-joined) to errors."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        errors.extend(f"{prefix} {msg}" for msg in str(exc).split("; "))
        return None


def _parse_cell(name, sec, mode, task, errors) -> Cell | None:
    prefix = f"[cell.{name}]"
    if not re.fullmatch(r"[A-Za-z0-9_-]+", name):
        errors.append(f"{prefix} cell names must be alphanumeric with - or _")
        return None
    scheme_name = sec.get("scheme")
    if scheme_name is None:
        errors.append(f"{prefix} missing required key 'scheme'")
        return None
    if scheme_name not in SCHEMES:
        errors.append(f"{prefix} unknown scheme '{scheme_name}' "
                      f"(one of {', '.join(SCHEMES)})")
        return None
    ctor = SCHEMES[scheme_name]
    params = inspect.signature(ctor).parameters
    hints = typing.get_type_hints(ctor)
    allowed = {"scheme", *params, *_TASK_OVERRIDE_KEYS}
    for key in sec:
        if key not in allowed:
            errors.append(f"{prefix} unknown key '{key}'")
    missing = [k for k, p in params.items() if p.default is p.empty and k not in sec]
    if missing:
        errors.append(f"{prefix} missing required keys: {', '.join(missing)}")
        return None
    if mode == "theory" and scheme_name == "wemix":
        errors.append(f"{prefix} theory mode does not resolve wemix schedules")
        return None

    n_errors = len(errors)

    def parse(keys_kinds) -> dict:
        out = {}
        for key, kind in keys_kinds:
            if key in sec:
                val = _parse_num(f"cell.{name}", key, sec[key], kind, errors)
                if val is not None:
                    out[key] = val
        return out

    # int-typed constructor arguments (t2 is int | None) parse as int
    kw = parse((k, int if int in (hints[k], *typing.get_args(hints[k])) else float)
               for k in params)
    overrides = parse((k, float) for k in _TASK_OVERRIDE_KEYS)
    if len(errors) > n_errors:
        return None
    scheme = _checked(prefix, errors, ctor, **kw)
    if scheme is None:
        return None
    cell = Cell(name=name, scheme=scheme, **overrides)
    if task is None:
        return cell
    cell_task = _checked(prefix, errors, _cell_task, task, cell)
    sized = mode != "practical" or \
        _checked(prefix, errors, size_stages, scheme, task.n, task.m) is not None
    return cell if cell_task is not None and sized else None


def _read_into(cp: configparser.ConfigParser, path) -> list[str]:
    """Read the INI file at `path` into cp; the error, if any, as a list."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as exc:
        return [f"cannot read config: {exc}"]
    except configparser.Error as exc:
        return [f"malformed config: {exc}"]
    return []


def validate_config(path) -> tuple[ExperimentPlan | None, list[str]]:
    """Parse a plan, collecting every violation instead of stopping early.

    A file whose [plan] names a preset reads as that preset's file with this
    file's [plan] keys laid over the preset's; it may hold no [task] or
    [cell.*] section. Either way the plan takes the same checks.
    """
    cp = configparser.ConfigParser(interpolation=None)
    errors = _read_into(cp, path)
    if errors:
        return None, errors

    preset = cp.get("plan", "preset", fallback=None)
    if preset is not None:
        if preset not in _preset_names():
            return None, [f"[plan] unknown preset '{preset}' "
                          f"(one of {', '.join(_preset_names())})"]
        if cp.has_section("task") or any(s.startswith("cell.") for s in cp.sections()):
            return None, ["preset plans do not take [task] or [cell.*] sections"]
        own_keys = dict(cp["plan"])
        errors = _read_into(cp, _preset_path(preset))
        if errors:
            return None, errors
        cp.read_dict({"plan": own_keys})

    known = {"task", "plan"}
    cell_sections = [s for s in cp.sections() if s.startswith("cell.")]
    for s in cp.sections():
        if s not in known and not s.startswith("cell."):
            errors.append(f"unknown section [{s}]")

    plan_sec = dict(cp["plan"]) if cp.has_section("plan") else {}
    for key in plan_sec:
        if key not in _PLAN_KEYS:
            errors.append(f"[plan] unknown key '{key}'")

    eval_n = 0  # None when invalid, as is constraint_floor
    if "eval_n" in plan_sec:
        eval_n = _parse_num("plan", "eval_n", plan_sec["eval_n"], int, errors)
        if eval_n is not None and eval_n < 0:
            errors.append("[plan] eval_n must be nonnegative")
            eval_n = None
    constraint_floor = False
    if "constraint_floor" in plan_sec:
        try:
            constraint_floor = cp.getboolean("plan", "constraint_floor")
        except ValueError:
            errors.append("[plan] constraint_floor must be a boolean")
            constraint_floor = None

    if not cp.has_section("task"):
        errors.append(f"missing [task] section (keys: {', '.join(_TASK_FIELDS)})")
        task = None
    else:
        task = _parse_task(cp, errors)

    mode = plan_sec.get("mode", "practical")
    if mode not in ("practical", "theory"):
        errors.append(f"[plan] mode must be 'practical' or 'theory', not {mode!r}")
        mode = "practical"  # so the cells still take the practical-mode checks
    if not cp.has_section("plan"):
        errors.append("missing [plan] section (required keys: seeds, outdir)")
        seeds, outdir = (), None
    else:
        seeds = _parse_seeds(plan_sec["seeds"], errors) if "seeds" in plan_sec else ()
        if "seeds" not in plan_sec:
            errors.append("[plan] missing required key 'seeds'")
        outdir = plan_sec.get("outdir")
        if outdir is None:
            errors.append("[plan] missing required key 'outdir'")

    if not cell_sections:
        errors.append("no [cell.*] sections (at least one training cell required)")
    cells = []
    for s in cell_sections:
        cell = _parse_cell(s[len("cell."):], dict(cp[s]), mode, task, errors)
        if cell is not None:
            cells.append(cell)
    names = [c.name for c in cells]
    for dup in {n for n in names if names.count(n) > 1}:
        errors.append(f"duplicate cell name '{dup}'")

    if errors or task is None or outdir is None:
        return None, errors
    try:
        plan = ExperimentPlan(task=task, cells=tuple(cells), seeds=seeds,
                              outdir=outdir, mode=mode, eval_n=eval_n,
                              constraint_floor=constraint_floor)
    except ValueError as exc:
        return None, [str(exc)]
    return plan, []


# ---------------------------------------------------------------------------
# running


def _cell_task(task: SyntheticTask, cell: Cell) -> SyntheticTask:
    """`task` with the cell's task_* overrides."""
    if cell.task_delta_y is not None:
        task = dataclasses.replace(task, delta_y=cell.task_delta_y)
    if cell.task_delta_p is not None:
        task = dataclasses.replace(task, delta_p=cell.task_delta_p)
    return task


@dataclass(frozen=True)
class _Setup:
    """What every cell on one (task, seed) shares."""

    orig: LabeledSet
    aug: LabeledSet
    eval_set: LabeledSet
    floor: float
    ltilde_floor: float | None    # set when the plan asks for the constraint floor
    consts: ConstantEstimates | None  # set in theory mode


def _build_setup(task: SyntheticTask, seed: int, eval_n: int, constraint_floor: bool,
                 mode: str) -> _Setup:
    """Data, floors and, in theory mode, estimated constants of one (task, seed).
    The layer functions are called through this module's globals, so wrappers
    installed there see every call.

    Theory mode runs a short full-batch probe for the iterate cloud; the
    declared generator bias stands in for the estimated one (the generator
    plants it exactly, and its estimators are validated separately).
    """
    orig, aug, planted = gen_synthetic(task, Rng(seed, 0))
    size = task.k * task.d
    rng = np.random.default_rng(seed)
    eval_set = sample_original(planted, Rng(seed, 7), eval_n) if eval_n > 0 else orig
    floor, _ = best_found_floor(CeObjective.over(eval_set), size, rng,
                                extra_starts=[planted.w_star.ravel()], n_random=1)
    ltilde_floor = None
    if constraint_floor:  # drawn from rng right after the gap floor
        ltilde_floor, _ = best_found_floor(CeObjective.over(aug), size, rng, n_random=1)
    consts = None
    if mode == "theory":
        probe_cfg = TrainConfig(scheme=Original(eta=0.5, batch=orig.n, epochs=60),
                                seed=seed, keep_iterates=True)
        probe = run_scheme(np.zeros(size), orig, aug, probe_cfg)
        consts = estimate_constants(
            orig, aug, probe.iterates[0], probe.iterates[::6],
            delta_y=task.delta_y,
            delta_p=task.delta_p if task.mode == "input_shift" else None,
            rng=np.random.default_rng(seed), floor_hints=[planted.w_star.ravel()],
        )
    return _Setup(orig, aug, eval_set, floor, ltilde_floor, consts)


# The resolved batches that _theory_scheme caps, as (resolved key, stage index).
_CAPPED_BATCHES = {"augmented": (("m0", 0),), "augdrop": (("m1", 0),)}


def _theory_scheme(cell: Cell, task: SyntheticTask, consts: ConstantEstimates,
                   n_orig: int, n_aug: int):
    """Map the shared constants to the cell's schedule.

    The warnings add one line for each place where the run departs from the
    resolved values: a step count other than the resolved iters or t1, and a
    capped batch.
    """
    shift = task.mode == "input_shift"
    name = cell.scheme.name
    lam = cell.scheme.lam if name == "mixloss" else None
    mode = {"original": "original",
            "augmented": "augmented_shift" if shift else "augmented",
            "augdrop": "augdrop_shift" if shift else "augdrop",
            "mixloss": "mixloss"}[name]
    sched = theory_stepsizes(consts, mode, n=n_orig, lam=lam)
    v = dict(sched.values)
    if name == "original":
        scheme = Original(eta=v["eta"], batch=1, epochs=max(1, v["iters"] // n_orig))
    elif name == "augmented":
        batch = min(int(v["m0"]), n_aug)
        per_epoch = max(1, n_aug // batch)
        scheme = Augmented(eta=v["eta"], batch=batch,
                           epochs=max(1, round(v["iters"] / per_epoch)))
    elif name == "augdrop":
        scheme = AugDrop(t1=int(v["t1"]), m1=min(int(v["m1"]), 4 * n_aug),
                         m2=int(v["m2"]), eta1=v["eta1"], eta2=v["eta2"])
    else:
        scheme = MixLoss(lam=lam, delta_y=cell.scheme.delta_y,
                         m0=int(v["m0"]), eta=v["eta"])
    resolved = {k: (int(x) if isinstance(x, int) else float(x)) for k, x in v.items()}
    warnings = list(sched.warnings)
    sizes = size_stages(scheme, n_orig, n_aug)
    for key, steps in (("iters", sum(it for it, _ in sizes)), ("t1", sizes[0][0])):
        if key in resolved and steps != resolved[key]:
            warnings.append(f"runs {steps} steps where the resolved {key} is {resolved[key]}")
    for key, i in _CAPPED_BATCHES.get(name, ()):
        if sizes[i][1] != resolved[key]:
            warnings.append(f"runs batch {sizes[i][1]} where the resolved {key} is "
                            f"{resolved[key]}")
    return scheme, resolved, warnings


def _write_summary(plan: ExperimentPlan, summary: dict) -> None:
    path = os.path.join(plan.outdir, f"{summary['cell']}__seed{summary['seed']}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(plan: ExperimentPlan, cell: Cell, task: SyntheticTask, seed: int,
             s: _Setup, store: FirstStageStore) -> dict:
    """Train `cell` on its set-up, write its trace CSV and return its summary,
    without wall_time. The run continues from `store` where it can."""
    resolved: dict = {}
    warnings: list[str] = []
    constants = None
    scheme = cell.scheme
    if plan.mode == "theory":
        scheme, resolved, warnings = _theory_scheme(
            cell, task, s.consts, s.orig.n, s.aug.n)
        constants = dataclasses.asdict(s.consts)

    cfg = TrainConfig(scheme=scheme, seed=seed, eval_orig=s.eval_set, eval_aug=s.aug,
                      ltilde_ref=0.0 if s.ltilde_floor is None else s.ltilde_floor)
    trace = run_scheme(np.zeros(task.k * task.d), s.orig, s.aug, cfg, first_stage=store)

    csv_name = f"{cell.name}__seed{seed}.csv"
    write_trace_csv(trace, os.path.join(plan.outdir, csv_name))

    return {
        "cell": cell.name,
        "seed": seed,
        "scheme": scheme.name,
        "task": dataclasses.asdict(task),
        "final_L": trace.rows[-1].L,
        "floor": s.floor,
        "final_gap": trace.rows[-1].L - s.floor,
        "initial_gap": trace.rows[0].L - s.floor,
        "ltilde_floor": s.ltilde_floor,
        "aborted": trace.aborted,
        "iterations": trace.iterations,
        "reused_steps": trace.reused_steps,
        "train_s": trace.train_s,
        "score_s": trace.score_s,
        "trace_csv": csv_name,
        "resolved": resolved,
        "constants": constants,
        "warnings": warnings,
    }


def _failed(cell: Cell, seed: int, exc: Exception) -> dict:
    """The summary, without wall_time, of a pair whose run or set-up raised
    `exc` (its traceback goes to stderr): aborted, with a NaN final_gap."""
    print(f"{cell.name} seed {seed} failed:\n{''.join(traceback.format_exception(exc))}",
          end="", file=sys.stderr)
    return {"cell": cell.name, "seed": seed, "scheme": cell.scheme.name,
            "error": f"{type(exc).__name__}: {exc}", "aborted": True, "final_gap": math.nan}


def _groups(plan: ExperimentPlan) -> list[tuple]:
    """The plan's groups, (task, seed, cells): the runs of consecutive pairs,
    in seed-major order, whose cells share a task after their overrides."""
    pairs = ((_cell_task(plan.task, cell), seed, cell)
             for seed in plan.seeds for cell in plan.cells)
    return [(task, seed, tuple(cell for *_, cell in run))
            for (task, seed), run in itertools.groupby(pairs, key=lambda p: p[:2])]


def _run_group(plan: ExperimentPlan, task: SyntheticTask, seed: int,
               cells: tuple) -> typing.Iterator[dict]:
    """Run `cells` on one (task, seed), writing and yielding each summary as
    its cell finishes. The cells share one set-up, built once (the first
    cell's wall_time includes it), and one first-stage store. A run that
    raises, or a set-up that did, gives its cells failed summaries."""
    t_start = time.perf_counter()
    try:
        setup = _build_setup(task, seed, plan.eval_n, plan.constraint_floor, plan.mode)
    except Exception as exc:  # fails this group's cells, not the plan
        setup, setup_error = None, exc
    store = FirstStageStore()
    for cell in cells:
        if setup is None:
            summary = _failed(cell, seed, setup_error)
        else:
            try:
                summary = _run_one(plan, cell, task, seed, setup, store)
            except Exception as exc:  # one bad pair must not stop the plan
                summary = _failed(cell, seed, exc)
        summary["wall_time"] = time.perf_counter() - t_start
        _write_summary(plan, summary)
        yield summary
        t_start = time.perf_counter()


def _init_worker(jobs: int) -> None:
    """Set up one of `jobs` worker processes: keep freed memory, and score
    trace records on this worker's share of the CPUs."""
    _keep_freed_memory()
    share_cpus(jobs)


def _worker(plan: ExperimentPlan, group: tuple) -> list[dict]:
    return list(_run_group(plan, *group))


def _aggregate_rows(summaries, cell_order) -> list[dict]:
    rows = []
    for name in cell_order:
        gaps = [s["final_gap"] for s in summaries if s["cell"] == name and not s["aborted"]]
        aborted = sum(1 for s in summaries if s["cell"] == name and s["aborted"])
        if gaps:
            median = float(np.median(gaps))
            mean = float(np.mean(gaps))
            std = float(np.std(gaps))
        else:
            median = mean = std = math.nan
        rows.append({"cell": name, "seeds": len(gaps) + aborted, "median_gap": median,
                     "mean_gap": mean, "std_gap": std, "aborted": aborted})
    return rows


def _format_aggregate(rows) -> str:
    out = ["cell,seeds,median_gap,mean_gap,std_gap,aborted"]
    for r in rows:
        out.append(",".join([
            r["cell"], str(r["seeds"]), repr(r["median_gap"]), repr(r["mean_gap"]),
            repr(r["std_gap"]), str(r["aborted"]),
        ]))
    return "\n".join(out) + "\n"


@functools.cache
def _keep_freed_memory() -> bool:
    """Have the C allocator keep freed memory in the process; True if set.

    Every step and trace record allocates and frees numpy temporaries of a
    few hundred KB. glibc's default thresholds hand such blocks back to the
    kernel (munmap, heap trim), and the next step faults the pages in again:
    about 10^5 minor faults per plateau plan. With both thresholds fixed the
    blocks stay in the heap and are reused. Setting either one turns off
    glibc's dynamic adjustment, so both are set. Where the C library has no
    mallopt (not glibc), nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mmap_set = mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: 32 MiB
    trim_set = mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD: 256 MiB
    return bool(mmap_set and trim_set)


def _announced(summaries) -> list[dict]:
    """The summaries, each announced on stderr by one progress line as it
    arrives: cell, seed, final gap, steps (with those reused) and wall time."""
    out = []
    for s in summaries:
        head = f"{s['cell']} seed {s['seed']}:"
        if "error" in s:
            print(f"{head} failed ({s['error']}), {s['wall_time']:.2f} s", file=sys.stderr)
        else:
            print(f"{head} final gap {s['final_gap']:.6g}, {s['iterations']} steps "
                  f"({s['reused_steps']} reused), {s['wall_time']:.2f} s", file=sys.stderr)
        out.append(s)
    return out


def run_plan(plan: ExperimentPlan, jobs: int = 1) -> tuple[list[dict], int]:
    """Execute every (cell, seed) pair, group by group, or on `jobs` > 1 whole
    groups per worker process; returns (aggregate rows, exit code).

    A pair that raises gets a failed summary and the plan goes on; the exit
    code is 1 when any run aborted or failed.
    """
    _keep_freed_memory()
    os.makedirs(plan.outdir, exist_ok=True)
    probe = os.path.join(plan.outdir, ".writable")
    with open(probe, "w", encoding="utf-8") as fh:  # I/O failure surfaces here,
        fh.write("ok\n")                            # before any run starts
    os.remove(probe)

    groups = _groups(plan)
    if jobs > 1:
        workers = min(jobs, len(groups))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(workers,)) as pool:
            summaries = _announced(itertools.chain.from_iterable(
                pool.map(_worker, itertools.repeat(plan), groups)))
    else:
        summaries = _announced(s for group in groups for s in _run_group(plan, *group))

    # Sorted so report() can reproduce the file from summaries alone.
    rows = _aggregate_rows(summaries, sorted(c.name for c in plan.cells))
    with open(os.path.join(plan.outdir, "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write(_format_aggregate(rows))
    code = 1 if any(s["aborted"] for s in summaries) else 0
    return rows, code


def report(outdir: str) -> int:
    """Re-aggregate a finished directory from its per-run summaries.

    Rewrites aggregate.csv (noting when the stored copy was stale or does
    not parse) and keeps the run exit-code convention: 1 when any summarized
    run diverged. A `*.json` file that is not a run summary is named on
    stderr, left out of the aggregate, and also makes the exit code 1.
    """
    names = sorted(f for f in os.listdir(outdir) if f.endswith(".json"))
    summaries, skipped = [], 0
    for name in names:
        try:
            summaries.append(_load_summary(os.path.join(outdir, name)))
        except ValueError as exc:
            print(f"skipping {name}: {exc}", file=sys.stderr)
            skipped += 1
    if not summaries:
        print(f"no run summaries in {outdir}", file=sys.stderr)
        return 2
    order = sorted(set(s["cell"] for s in summaries))
    rows = _aggregate_rows(summaries, order)
    text = _format_aggregate(rows)
    print(text, end="")

    agg_path = os.path.join(outdir, "aggregate.csv")
    if os.path.exists(agg_path):
        try:
            with open(agg_path, "r", encoding="utf-8") as fh:
                stored = _parse_aggregate(fh.read())
        except ValueError:  # a table that does not parse reads as empty, so stale
            stored = []
        by_cell = {r["cell"]: r for r in stored}
        stale = len(stored) != len(rows)
        for fresh in rows:
            old = by_cell.get(fresh["cell"])
            if old is None:
                stale = True
                continue
            for key in ("median_gap", "mean_gap", "std_gap"):
                a, b = fresh[key], old[key]
                if not ((math.isnan(a) and math.isnan(b)) or abs(a - b) <= 1e-12):
                    stale = True
        if stale:
            print("stored aggregate.csv was stale; rewritten", file=sys.stderr)
    with open(agg_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 1 if skipped or any(s["aborted"] for s in summaries) else 0


# The summary fields report() aggregates, with the types it needs.
_SUMMARY_FIELDS = (("cell", str), ("final_gap", (int, float)), ("aborted", bool))


def _load_summary(path: str) -> dict:
    """One run summary; ValueError when the file cannot be read as JSON or
    lacks a field the aggregate reads."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot be read as JSON ({exc})") from None
    if not isinstance(summary, dict):
        raise ValueError("not a run summary (top level is not an object)")
    for key, kind in _SUMMARY_FIELDS:
        if not isinstance(summary.get(key), kind):
            raise ValueError(f"not a run summary (missing or mistyped {key!r})")
    return summary


def _parse_aggregate(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln]
    rows = []
    for ln in lines[1:]:
        cell, seeds, med, mean, std, aborted = ln.split(",")
        rows.append({"cell": cell, "seeds": int(seeds), "median_gap": float(med),
                     "mean_gap": float(mean), "std_gap": float(std),
                     "aborted": int(aborted)})
    return rows


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="augbias",
                                 description="batch runner for bias-corrected "
                                             "augmentation training studies")
    sub = ap.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a plan from a config or preset")
    run.add_argument("config", nargs="?", help="INI plan file")
    run.add_argument("--preset", choices=_preset_names(),
                     help="packaged plan, presets/<name>.ini")
    run.add_argument("--outdir", help="override the plan's output directory")
    run.add_argument("--seed-offset", type=int, default=0,
                     help="added to every seed in the plan")
    run.add_argument("--jobs", type=int, default=1,
                     help="parallel worker processes")

    val = sub.add_parser("validate", help="check a config without running")
    val.add_argument("config")

    rep = sub.add_parser("report", help="re-aggregate a finished run directory")
    rep.add_argument("outdir")
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "report":
        return report(args.outdir)

    preset = getattr(args, "preset", None)  # only run takes --preset
    if args.command == "run" and (args.config is None) == (preset is None):
        print("run needs exactly one of: a config path, or --preset", file=sys.stderr)
        return 2
    plan, errors = validate_config(args.config if preset is None else _preset_path(preset))
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        return 2
    if args.command == "validate":
        print(f"ok: {len(plan.cells)} cell(s), {len(plan.seeds)} seed(s), "
              f"outdir {plan.outdir}")
        return 0

    if args.outdir:
        plan = dataclasses.replace(plan, outdir=args.outdir)
    if args.seed_offset:
        try:
            plan = dataclasses.replace(
                plan, seeds=tuple(s + args.seed_offset for s in plan.seeds))
        except ValueError as exc:
            print(f"--seed-offset {args.seed_offset}: {exc}", file=sys.stderr)
            return 2
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2

    rows, code = run_plan(plan, jobs=args.jobs)
    for row in rows:
        print(f"{row['cell']}: median gap {row['median_gap']:.6g} "
              f"(mean {row['mean_gap']:.6g} +/- {row['std_gap']:.6g}, "
              f"{row['aborted']} aborted)")
    return code


if __name__ == "__main__":
    sys.exit(main())
