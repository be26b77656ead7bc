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
data, floors and theory-mode constants once, and its cells share them. A
group's cells fall into chains, the cells that may continue one another's
first stage; a plan process that may use more than one CPU runs a long
chain in a process forked from it, which inherits the set-up. With --jobs,
each worker runs whole groups and computes their set-ups from the seed, so
the pool never ships arrays between processes.

Exit codes: 0 all runs finished finite, 1 some run diverged or failed (or a
report mismatch), 2 invalid configuration or no readable run summaries.
"""
from __future__ import annotations

import argparse
import configparser
import contextlib
import ctypes
import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import math
import multiprocessing
import os
import re
import signal
import sys
import time
import traceback
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .augment import SyntheticTask, gen_synthetic, sample_original
from .core import DegenerateEstimateError, LabeledSet, Rng
from .models import eval_scores
from .theory import (
    CeObjective,
    ConstantEstimates,
    best_found_floor,
    estimate_constants,
    theory_stepsizes,
)
from .trainers import (
    CHUNK,
    SCHEMES,
    AugDrop,
    Augmented,
    FirstStageStore,
    MixLoss,
    Original,
    Scheme,
    TrainConfig,
    run_scheme,
    size_stages,
    stage_family,
    train,
    write_trace_csv,
)

# Cell keys besides the scheme constructor's arguments: the task_* overrides,
# each with the task mode whose runs it changes (gen_synthetic reads delta_y
# only for label_bias tasks and delta_p only for input_shift ones).
_OVERRIDES = {"task_delta_y": "label_bias", "task_delta_p": "input_shift"}
# The [task] keys, SyntheticTask's fields, with their types.
_TASK_FIELDS = typing.get_type_hints(SyntheticTask)
_CELL_NAME = re.compile(r"[A-Za-z0-9_-]+")


@dataclass(frozen=True)
class Cell:
    name: str
    scheme: Scheme
    task_delta_y: float | None = None
    task_delta_p: float | None = None


@dataclass(frozen=True)
class ExperimentPlan:
    """A plan that breaks any rule raises one ValueError naming every rule
    it breaks, as validate_config names them, whether it was read from a
    file, built in code or changed with dataclasses.replace."""

    task: SyntheticTask
    cells: tuple
    seeds: tuple
    outdir: str
    mode: str = "practical"
    eval_n: int = 0
    constraint_floor: bool = False

    def __post_init__(self):
        errors = _plan_errors(self.task, self.cells, self.seeds, self.outdir,
                              self.mode, self.eval_n)
        if errors:
            raise ValueError("; ".join(errors))


def _plan_errors(task, cells, seeds, outdir, mode, eval_n) -> list[str]:
    """Every plan rule that these values break. A task, cells, seeds or
    outdir of None did not read from a config file, which names that error
    itself, so the rules on it are skipped."""
    errors = []
    if seeds is not None:
        if not seeds:
            errors.append("[plan] seeds must name at least one seed")
        elif min(seeds) < 0:
            errors.append(f"[plan] seeds must be nonnegative, not {min(seeds)}")
        elif len(set(seeds)) < len(seeds):
            errors.append(f"[plan] seeds must be distinct, {_repeated(seeds)} repeats")
    if outdir == "":
        errors.append("[plan] outdir must not be empty")
    if mode not in ("practical", "theory"):
        errors.append(f"[plan] mode must be 'practical' or 'theory', not {mode!r}")
    if eval_n < 0:
        errors.append("[plan] eval_n must be nonnegative")
    if cells is not None and not cells:
        errors.append("no [cell.*] sections (at least one training cell required)")
    names = [cell.name for cell in cells or ()]
    for i, cell in enumerate(cells or ()):
        prefix = f"[cell.{cell.name}]"
        if not _CELL_NAME.fullmatch(cell.name):
            errors.append(f"{prefix} cell names must be alphanumeric with - or _")
        if names.count(cell.name) > 1 and names.index(cell.name) == i:
            errors.append(f"{prefix} cell names must be distinct")
        if mode == "theory" and cell.scheme.name == "wemix":
            errors.append(f"{prefix} theory mode does not resolve wemix schedules")
        if task is None:
            continue
        for key, reads in _OVERRIDES.items():
            if getattr(cell, key) is not None and task.mode != reads:
                errors.append(f"{prefix} {key} changes no run in {task.mode} mode")
        _checked(prefix, errors, _cell_task, task, cell)
        if mode != "theory":  # theory mode resolves the stages from its constants
            _checked(prefix, errors, size_stages, cell.scheme, task.n, task.m)
    return errors


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


def _seed_list(raw: str) -> tuple:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(raw) from None


# How a key of each type reads from its INI string, and the type's name in
# the error for a value that does not read. A key typed X | None reads as X.
_READERS = {str: (str, "str"), int: (int, "int"), float: (float, "float"),
            bool: (_boolean, "boolean"), tuple: (_seed_list, "list of integers")}
# The [plan] keys with their types.
_PLAN_KINDS = {"preset": str, "seeds": tuple, "outdir": str, "mode": str,
               "eval_n": int, "constraint_floor": bool}


def _read(section: str, sec, kinds: dict, errors) -> dict:
    """The keys of one INI section that read as their types in `kinds`,
    after adding an error for each unknown key and each value that does
    not read."""
    out = {}
    for key, raw in sec.items():
        if key not in kinds:
            errors.append(f"[{section}] unknown key '{key}'")
            continue
        kind = next(t for t in (kinds[key], *typing.get_args(kinds[key])) if t in _READERS)
        parse, noun = _READERS[kind]
        try:
            out[key] = parse(raw)
        except ValueError:
            errors.append(f"[{section}] key '{key}' is not a valid {noun}: {raw!r}")
    return out


def _checked(prefix, errors, fn, /, *args, **kwargs):
    """fn(*args, **kwargs), or None after adding each message of its
    ValueError ("; "-joined) to errors."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        errors.extend(f"{prefix} {msg}" for msg in str(exc).split("; "))
        return None


def _read_cell(name: str, sec, errors) -> Cell | None:
    """The cell that one [cell.NAME] section reads as, or None after adding
    the errors that keep it from reading. The keys are the scheme
    constructor's arguments and the task_* overrides."""
    prefix = f"[cell.{name}]"
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
    kinds = {"scheme": str, **{k: hints[k] for k in params}, **dict.fromkeys(_OVERRIDES, float)}
    kw = _read(f"cell.{name}", sec, kinds, errors)
    missing = [k for k, p in params.items() if p.default is p.empty and k not in sec]
    if missing:
        errors.append(f"{prefix} missing required keys: {', '.join(missing)}")
    if missing or any(k in kinds and k not in kw for k in sec):
        return None
    del kw["scheme"]
    overrides = {k: kw.pop(k) for k in _OVERRIDES if k in kw}
    scheme = _checked(prefix, errors, ctor, **kw)
    return None if scheme is None else Cell(name, scheme, **overrides)


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
    """Parse a plan, collecting every violation instead of stopping early:
    each section, key and value that does not read, then each plan rule
    that the values that did read break (_plan_errors, the rules
    ExperimentPlan raises for).

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

    for s in cp.sections():
        if s not in ("task", "plan") and not s.startswith("cell."):
            errors.append(f"unknown section [{s}]")
    if cp.has_section("task"):
        task = _checked("[task]", errors, SyntheticTask,
                        **_read("task", cp["task"], _TASK_FIELDS, errors))
    else:
        task = None
        errors.append(f"missing [task] section (keys: {', '.join(_TASK_FIELDS)})")
    if cp.has_section("plan"):
        plan_keys = _read("plan", cp["plan"], _PLAN_KINDS, errors)
        errors.extend(f"[plan] missing required key '{k}'"
                      for k in ("seeds", "outdir") if k not in cp["plan"])
    else:
        plan_keys = {}
        errors.append("missing [plan] section (required keys: seeds, outdir)")
    cell_sections = [s for s in cp.sections() if s.startswith("cell.")]
    cells = [_read_cell(s[len("cell."):], cp[s], errors) for s in cell_sections]
    cells = tuple(cell for cell in cells if cell is not None)

    # A value that did not read is None, so the plan rules skip it; with
    # cell sections of which none read, "no cells" is not the error.
    values = dict(task=task, cells=cells if cells or not cell_sections else None,
                  seeds=plan_keys.get("seeds"), outdir=plan_keys.get("outdir"),
                  mode=plan_keys.get("mode", "practical"), eval_n=plan_keys.get("eval_n", 0))
    errors += _plan_errors(**values)
    if errors:
        return None, errors
    return ExperimentPlan(**values, constraint_floor=plan_keys.get("constraint_floor", False)), []


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
    phases: dict  # wall seconds of each set-up phase: data_s, floor_s, constants_s


def _build_setup(task: SyntheticTask, seed: int, eval_n: int, constraint_floor: bool,
                 mode: str, floors: dict) -> _Setup:
    """Data, floors and, in theory mode, estimated constants of one (task, seed),
    with the wall seconds of each phase. The layer functions are called
    through this module's globals, so wrappers installed there see every call.
    The gap floor is taken from `floors`, the plan's solved floors, when
    one was solved there on the same bytes (_gap_floor).

    Theory mode runs a short full-batch probe for the iterate cloud; the
    declared generator bias stands in for the estimated one (the generator
    plants it exactly, and its estimators are validated separately).
    """
    t_data = time.perf_counter()
    orig, aug, planted = gen_synthetic(task, Rng(seed, 0))
    size = task.k * task.d
    rng = np.random.default_rng(seed)
    eval_set = sample_original(planted, Rng(seed, 7), eval_n) if eval_n > 0 else orig
    t_floor = time.perf_counter()
    floor = _gap_floor(floors, eval_set, planted.w_star.ravel(), seed, rng)
    ltilde_floor = None
    if constraint_floor:  # drawn from rng right after the gap floor
        ltilde_floor, _ = best_found_floor(CeObjective(aug), size, rng, n_random=1)
    t_consts = time.perf_counter()
    consts = None
    if mode == "theory":
        # A softmax-linear cross-entropy gradient has norm at most
        # sqrt(2) * max ||x_i||, so 60 steps at eta 0.5 from 0 keep every
        # iterate and every score finite: no probe record could cut the
        # cloud, and the probe needs none scored.
        w0 = np.zeros(size)
        probe_cfg = TrainConfig(scheme=Original(eta=0.5, batch=orig.n, epochs=60), seed=seed)
        cloud = [w0, *(w for _, _, w in train(w0, orig, aug, probe_cfg))]
        consts = estimate_constants(
            orig, aug, w0, cloud[::6],
            delta_y=task.delta_y,
            delta_p=task.delta_p if task.mode == "input_shift" else None,
            rng=np.random.default_rng(seed), floor_hints=[planted.w_star.ravel()],
        )
    phases = {"data_s": t_floor - t_data, "floor_s": t_consts - t_floor,
              "constants_s": time.perf_counter() - t_consts}
    return _Setup(orig, aug, eval_set, floor, ltilde_floor, consts, phases)


def _gap_floor(floors: dict, eval_set: LabeledSet, w_star: np.ndarray, seed: int,
               rng: np.random.Generator) -> float:
    """The best-found floor of `eval_set` from zero, `w_star` and one start
    drawn from `rng`, a default_rng(seed) that nothing has drawn from yet.

    A floor is solved once per plan on the same bytes: `floors` holds each
    solved floor with the state its solve left `rng` in, under a digest of
    everything the solve reads. On a hit `rng` is set to that state, so
    what it draws next is what it would draw after solving again.
    """
    digest = hashlib.sha256()
    for arr in (eval_set.inputs, eval_set.labels, w_star):
        digest.update(repr(arr.shape).encode())
        digest.update(arr.tobytes())
    key = (seed, digest.digest())
    if key not in floors:
        floor, _ = best_found_floor(CeObjective(eval_set), w_star.size, rng,
                                    extra_starts=[w_star], n_random=1)
        floors[key] = floor, rng.bit_generator.state
    floor, rng.bit_generator.state = floors[key]
    return floor


# The resolved batches that _theory_scheme caps, as (resolved key, stage index).
_CAPPED_BATCHES = {"augmented": (("m0", 0),), "augdrop": (("m1", 0),)}


def _theory_scheme(cell: Cell, consts: ConstantEstimates, n_orig: int, n_aug: int):
    """Map the shared constants to the cell's schedule and its gap bounds.

    The warnings add one line for each place where the run departs from the
    resolved values: a step count other than the resolved iters or t1, and a
    capped batch. Raises ValueError or DegenerateEstimateError when the
    constants give no schedule, or one whose stages do not fit the sets.
    """
    name = cell.scheme.name
    lam = cell.scheme.lam if name == "mixloss" else None
    sched = theory_stepsizes(consts, name, n=n_orig, lam=lam)
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
    return scheme, resolved, warnings, sched.bounds


def _summary_path(plan: ExperimentPlan, cell: str, seed: int) -> str:
    return os.path.join(plan.outdir, f"{cell}__seed{seed}.json")


def _write_summary(plan: ExperimentPlan, summary: dict) -> None:
    with open(_summary_path(plan, summary["cell"], summary["seed"]), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Run(typing.NamedTuple):
    """The run a cell makes on one set-up (_resolve)."""

    scheme: Scheme
    resolved: dict  # the resolved schedule values, theory mode only
    warnings: list
    bounds: dict  # gap bounds on the training objective, theory mode only
    steps: int


def _resolve(plan: ExperimentPlan, cell: Cell, s: _Setup) -> _Run:
    """The run `cell` makes on set-up `s`. Raises ValueError or
    DegenerateEstimateError when its schedule does not resolve or its stages
    do not fit the sets."""
    if plan.mode == "theory":
        scheme, resolved, warnings, bounds = _theory_scheme(cell, s.consts, s.orig.n, s.aug.n)
    else:
        scheme, resolved, warnings, bounds = cell.scheme, {}, [], {}
    steps = sum(iters for iters, _ in size_stages(scheme, s.orig.n, s.aug.n))
    return _Run(scheme, resolved, warnings, bounds, steps)


def _run_one(plan: ExperimentPlan, cell: Cell, task: SyntheticTask, seed: int,
             s: _Setup, store: FirstStageStore, run: _Run) -> dict:
    """Train `cell`'s `run` on its set-up, write its trace CSV and return its
    summary, without wall_time or set-up phases. The run continues from
    `store` where it can.

    final_gap and initial_gap are on the evaluation set (held out when
    eval_n > 0) against its floor. The theory bounds are on the training
    objective, so in theory mode train_gap is the final iterate's loss on
    the training originals against constants.l_floor (NaN for a run that
    aborted), and bounds_held compares it with each bound."""
    scheme, resolved, warnings, bounds, _ = run
    constants = dataclasses.asdict(s.consts) if plan.mode == "theory" else None

    cfg = TrainConfig(scheme=scheme, seed=seed, eval_orig=s.eval_set, eval_aug=s.aug,
                      ltilde_ref=0.0 if s.ltilde_floor is None else s.ltilde_floor)
    trace = run_scheme(np.zeros(task.k * task.d), s.orig, s.aug, cfg, first_stage=store)

    csv_name = f"{cell.name}__seed{seed}.csv"
    t_csv = time.perf_counter()
    write_trace_csv(trace, os.path.join(plan.outdir, csv_name))
    csv_s = time.perf_counter() - t_csv

    final_gap = trace.rows[-1].L - s.floor
    initial_gap = trace.rows[0].L - s.floor
    rise = _rise(final_gap, initial_gap)
    if rise:
        warnings.append(rise)
    train_gap = None
    if plan.mode == "theory" and trace.aborted:
        train_gap = math.nan  # no final iterate; the trace stops at its last finite record
    elif plan.mode == "theory":  # the trace's L is on the training originals unless held out
        l_train = trace.rows[-1].L if s.eval_set is s.orig else \
            eval_scores(trace.final_params, s.orig).loss
        train_gap = l_train - s.consts.l_floor
    return {
        "cell": cell.name,
        "seed": seed,
        "scheme": scheme.name,
        "task": dataclasses.asdict(task),
        "final_L": trace.rows[-1].L,
        "floor": s.floor,
        "final_gap": final_gap,
        "initial_gap": initial_gap,
        "train_gap": train_gap,
        "ltilde_floor": s.ltilde_floor,
        "aborted": trace.aborted,
        "iterations": trace.iterations,
        "reused_steps": trace.reused_steps,
        "train_s": trace.train_s,
        "score_s": trace.score_s,
        "csv_s": csv_s,
        "trace_csv": csv_name,
        "resolved": resolved,
        "constants": constants,
        "warnings": warnings,
        "bounds": bounds,
        "bounds_held": {key: train_gap <= bound for key, bound in bounds.items()},
    }


def _rise(final_gap: float, initial_gap: float) -> str | None:
    """The warning for a run that ended above the gap it started at."""
    if final_gap > initial_gap:
        return f"ended above its initial gap ({final_gap:.6g} > {initial_gap:.6g})"
    return None


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


def _chains(cells: tuple, runs: dict) -> list[tuple]:
    """One group's cells as chains, in the order of their first cells: the
    cells that may continue one another's first stage (FirstStageStore),
    each chain in plan order. Those are the cells whose runs (`runs`, by
    name) agree in trainers.stage_family; the cells whose runs did not
    resolve make one chain."""
    chains: dict = {}
    for cell in cells:
        run = runs[cell.name]
        key = None if isinstance(run, Exception) else stage_family(run.scheme)
        chains.setdefault(key, []).append(cell)
    return [tuple(chain) for chain in chains.values()]


def _run_chain(plan: ExperimentPlan, task: SyntheticTask, seed: int, chain: tuple,
               setup: _Setup | Exception, runs: dict, phases: dict, lead: float,
               announce: bool) -> list[dict]:
    """Run a chain's cells in order on their group's set-up, writing each
    summary (and, when `announce`, its progress line) as its cell finishes.
    `runs` holds each cell's _Run by name, or the exception that its set-up
    or resolution raised, which fails it. The cells share one first-stage
    store. The first cell's summary gives `phases` and its wall_time adds
    `lead`, the set-up's seconds; a later cell's counts from the end of the
    one before and gives 0.0 for each phase. A run that raises gets a failed
    summary."""
    t_start = time.perf_counter() - lead
    store = FirstStageStore()
    summaries = []
    for cell in chain:
        run = runs[cell.name]
        if isinstance(run, Exception):
            summary = _failed(cell, seed, run)
        else:
            try:
                summary = _run_one(plan, cell, task, seed, setup, store, run)
                summary.update(phases)
            except Exception as exc:  # one bad pair must not stop the plan
                summary = _failed(cell, seed, exc)
        phases = dict.fromkeys(phases, 0.0)
        summary["wall_time"] = time.perf_counter() - t_start
        _write_summary(plan, summary)
        if announce:
            _announce(summary)
        summaries.append(summary)
        t_start = time.perf_counter()
    return summaries


# prctl's option that has the kernel signal a process when its parent ends
_PR_SET_PDEATHSIG = 1


def _chain_process(parent: int, *args) -> None:
    """A chain process forked from the plan process `parent` (its pid):
    _run_chain(*args). It ends with the plan process, even one ended by
    SIGKILL: on Linux the kernel then sends it SIGKILL (PR_SET_PDEATHSIG,
    which watches the thread that forked it), and a parent that ended
    before that was set shows in the parent pid. Interrupts are left to the
    plan process, which ends its chain processes itself."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError, AttributeError, TypeError):  # no prctl: not Linux
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, ctypes.c_ulong(signal.SIGKILL))
    if os.getppid() != parent:
        os._exit(1)
    _run_chain(*args)


def _reaped(plan: ExperimentPlan, proc, seed: int, chain: tuple, announce: bool) -> list[dict]:
    """The summaries of a chain process once it has exited: those it wrote,
    and for each cell it left without one, a failed summary naming its exit
    code (-N for signal N)."""
    proc.join()
    summaries = []
    for cell in chain:
        try:
            summary = _load_summary(_summary_path(plan, cell.name, seed))
        except ValueError:
            summary = _failed(cell, seed, RuntimeError(
                f"chain process {proc.pid} exited with code {proc.exitcode}"))
            summary["wall_time"] = math.nan
            _write_summary(plan, summary)
            if announce:
                _announce(summary)
        summaries.append(summary)
    return summaries


def _reap_exited(plan: ExperimentPlan, live: list, announce: bool) -> list[dict]:
    """The summaries of the chain processes in `live` that have exited
    (_reaped); each leaves `live` once reaped."""
    summaries = []
    for entry in [entry for entry in live if not entry[0].is_alive()]:
        summaries += _reaped(plan, *entry, announce)
        live.remove(entry)
    return summaries


def _run_group(plan: ExperimentPlan, group: tuple, cpus: int, last: bool, floors: dict,
               live: list, announce: bool) -> list[dict]:
    """Run one (task, seed) group and return the summaries of the chains it
    ran in this process and of the chain processes it reaped.

    The set-up is built once, here, its gap floor taken from or added to
    `floors`, the plan's solved floors, and each cell's run is resolved
    once. The chains go longest first. With `cpus` > 1, a chain of at least
    CHUNK steps is forked into a process of its own, which inherits the
    set-up and writes its own outputs, when fewer than cpus - 1 chain
    processes are alive (`live`, as (process, seed, chain)); otherwise it
    runs here, as the short chains do. On the plan's `last` group the last
    long chain also runs here, where the plan would only wait for it."""
    task, seed, cells = group
    t_start = time.perf_counter()
    try:
        setup = _build_setup(task, seed, plan.eval_n, plan.constraint_floor, plan.mode, floors)
    except Exception as exc:  # fails this group's cells, not the plan
        setup = exc
    runs = {}
    for cell in cells:
        try:
            runs[cell.name] = setup if isinstance(setup, Exception) else \
                _resolve(plan, cell, setup)
        except (ValueError, DegenerateEstimateError) as exc:  # fails this cell only
            runs[cell.name] = exc
    phases = {} if isinstance(setup, Exception) else setup.phases
    lead = time.perf_counter() - t_start
    chains = _chains(cells, runs)
    steps = [sum(runs[cell.name].steps for cell in chain
                 if not isinstance(runs[cell.name], Exception)) for chain in chains]
    order = sorted(range(len(chains)), key=lambda i: -steps[i])
    long = [i for i in order if cpus > 1 and steps[i] >= CHUNK]
    if long and last:
        long.pop()
    summaries = []
    for i in order:
        # the group's first cell gives the set-up phases, and its wall_time has the set-up
        args = (plan, task, seed, chains[i], setup, runs,
                phases if i == 0 else dict.fromkeys(phases, 0.0), lead if i == 0 else 0.0,
                announce)
        if i in long:
            summaries += _reap_exited(plan, live, announce)
        if i in long and len(live) < cpus - 1:
            for cell in chains[i]:  # a summary found once the process exits is then its own
                with contextlib.suppress(FileNotFoundError):
                    os.remove(_summary_path(plan, cell.name, seed))
            proc = multiprocessing.get_context("fork").Process(
                target=_chain_process, args=(os.getpid(), *args))
            proc.start()
            live.append((proc, seed, chains[i]))
        else:
            summaries += _run_chain(*args)
    return summaries


def _run_groups(plan: ExperimentPlan, groups: list, cpus: int, floors: dict,
                announce: bool) -> list[dict]:
    """Run `groups` in order (_run_group) and return every summary, those
    of the chain processes once each has exited. Should this process raise,
    even by an interrupt, it first ends and reaps every chain process."""
    live, summaries = [], []
    try:
        for g, group in enumerate(groups):
            summaries += _run_group(plan, group, cpus, g == len(groups) - 1, floors, live,
                                    announce)
        while live:
            summaries += _reaped(plan, *live[0], announce)
            del live[0]
    except BaseException:
        for proc, _, _ in live:
            proc.terminate()
        for proc, _, _ in live:
            proc.join()
        raise
    return summaries


def _cpu_share(processes: int) -> int:
    """The CPUs for each of `processes` plan processes: its share of those
    this process may run on, at least 1. A daemonic process, such as a
    multiprocessing.Pool worker, may not start processes, so its share is 1."""
    if multiprocessing.current_process().daemon:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, (cpus or 1) // processes)


def _worker(plan: ExperimentPlan, group: tuple, cpus: int) -> list[dict]:
    return _run_groups(plan, [group], cpus, {}, announce=False)


def _aggregate_rows(summaries, cell_order) -> list[dict]:
    """Each cell's gap statistics, over its gaps in seed order, so the same
    summaries give the same bits in whatever order they come."""
    rows = []
    for name in cell_order:
        runs = sorted((s for s in summaries if s["cell"] == name), key=lambda s: s["seed"])
        gaps = [s["final_gap"] for s in runs if not s["aborted"]]
        aborted = sum(1 for s in runs if s["aborted"])
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


def _announce(s: dict) -> None:
    """One progress line on stderr for a finished pair: cell, seed, final
    gap, steps (with those reused) and wall time. The line goes out in one
    write, so lines that chain processes print at once never interleave,
    even on an unbuffered stderr."""
    head = f"{s['cell']} seed {s['seed']}:"
    if "error" in s:
        line = f"{head} failed ({s['error']}), {s['wall_time']:.2f} s"
    else:
        rise = _rise(s["final_gap"], s["initial_gap"])
        line = (f"{head} final gap {s['final_gap']:.6g}, {s['iterations']} steps "
                f"({s['reused_steps']} reused), {s['wall_time']:.2f} s"
                + (f"; {rise}" if rise else ""))
    sys.stderr.write(line + "\n")


def _make_outdir(outdir: str) -> None:
    """Create `outdir`; OSError when no file can be written there."""
    os.makedirs(outdir, exist_ok=True)
    probe = os.path.join(outdir, ".writable")
    open(probe, "w", encoding="utf-8").close()
    os.remove(probe)


def run_plan(plan: ExperimentPlan, jobs: int = 1) -> tuple[list[dict], int]:
    """Execute every (cell, seed) pair, group by group, or on min(jobs,
    groups) worker processes, whole groups each, when that is more than
    one; returns (aggregate rows, exit code). So a plan of one group runs
    in this process at any `jobs`. Each plan process may use its share of
    the CPUs this one may run on (_cpu_share), and with more than one it
    runs long chains in forked processes (_run_groups). The plan process
    solves a floor that several groups share once. Each finished pair
    prints one progress line.

    A pair that raises gets a failed summary and the plan goes on; the exit
    code is 1 when any run aborted or failed.
    """
    _keep_freed_memory()  # before any fork, so chain processes inherit it
    _make_outdir(plan.outdir)

    groups = _groups(plan)
    processes = min(jobs, len(groups)) if jobs > 1 else 1
    cpus = _cpu_share(processes)
    if processes > 1:
        summaries = []
        with ProcessPoolExecutor(max_workers=processes, initializer=_keep_freed_memory) as pool:
            for s in itertools.chain.from_iterable(
                    pool.map(_worker, itertools.repeat(plan), groups, itertools.repeat(cpus))):
                _announce(s)  # pool processes announce nothing themselves
                summaries.append(s)
    else:
        summaries = _run_groups(plan, groups, cpus, {}, announce=True)

    # Sorted so report() can reproduce the file from summaries alone.
    rows = _aggregate_rows(summaries, sorted(c.name for c in plan.cells))
    with open(os.path.join(plan.outdir, "aggregate.csv"), "w", encoding="utf-8") as fh:
        fh.write(_format_aggregate(rows))
    code = 1 if any(s["aborted"] for s in summaries) else 0
    return rows, code


def report(outdir: str) -> int:
    """Re-aggregate a finished directory from its per-run summaries.

    Rewrites aggregate.csv (noting when the stored copy differs from the
    fresh one in any byte) and keeps the run exit-code convention: 1 when
    any summarized run diverged. A `*.json` file that is not a run summary
    is named on stderr, left out of the aggregate, and also makes the exit
    code 1. A directory that cannot be read exits 2, as one with no
    summaries does.
    """
    try:
        names = sorted(f for f in os.listdir(outdir) if f.endswith(".json"))
    except OSError as exc:
        print(f"cannot read {outdir}: {exc.strerror or exc}", file=sys.stderr)
        return 2
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
        with open(agg_path, "rb") as fh:
            if fh.read() != text.encode("utf-8"):
                print("stored aggregate.csv was stale; rewritten", file=sys.stderr)
    with open(agg_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 1 if skipped or any(s["aborted"] for s in summaries) else 0


# The summary fields report() aggregates, with the types it needs.
_SUMMARY_FIELDS = (("cell", str), ("seed", int), ("final_gap", (int, float)),
                   ("aborted", bool))


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

    if args.outdir is not None:
        try:
            plan = dataclasses.replace(plan, outdir=args.outdir)
        except ValueError as exc:
            print(f"--outdir {args.outdir!r}: {exc}", file=sys.stderr)
            return 2
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
    try:
        _make_outdir(plan.outdir)
    except OSError as exc:
        print(f"outdir {plan.outdir!r}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    rows, code = run_plan(plan, jobs=args.jobs)
    for row in rows:
        print(f"{row['cell']}: median gap {row['median_gap']:.6g} "
              f"(mean {row['mean_gap']:.6g} +/- {row['std_gap']:.6g}, "
              f"{row['aborted']} aborted)")
    return code


if __name__ == "__main__":
    sys.exit(main())
