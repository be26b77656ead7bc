"""Mini-batch SGD engine and the five training schemes.

All schemes run through one two-stage engine so that the stated reductions
hold bit-exactly, not just approximately:

  * wemix(lam=0, delta_y=0)  is augdrop with the same schedule;
  * wemix(t2=0)              is mixloss;
  * mixloss(lam=1)           steps like train_original with batch 1;
  * augdrop(t1=0)            is train_original;
  * augdrop with empty stage 2 is train_augmented.

Randomness is keyed per purpose: stream 0 initializes parameters, stream 1
drives original-set index draws, stream 2 drives augmented draws. Each stage
recreates its generators from the stream key, so the draw sequence a stage
sees depends only on (seed, stream), never on what an earlier stage consumed.
Original examples are walked without replacement (reshuffled per pass);
augmented examples are drawn with replacement, or generated on the fly when a
fresh-sample source is configured.

The combined step is lam * g_orig + (1 - lam) * g_aug, which degenerates
bitwise to either side at lam in {0, 1}; that is what makes the reductions
exact. On a non-finite loss or gradient the run aborts and returns the trace
accumulated so far instead of raising, so sweeps never die on divergence.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import LabeledSet, Rng
from .models import EvalSet, Predictor, batch_scores, eval_scores, label_grad
from .losses import MixWeights, combined_grad

STREAM_INIT = 0
STREAM_ORIG = 1
STREAM_AUG = 2

TRACE_COLUMNS = ("t", "stage", "L", "L_tilde", "L_c", "grad_norm", "constraint")


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class Original:
    eta: float


@dataclass(frozen=True)
class Augmented:
    eta: float


@dataclass(frozen=True)
class AugDrop:
    t1: int
    m1: int
    m2: int
    eta1: float
    eta2: float
    # Stage-2 iteration count defaults to one pass, n // m2; an explicit
    # override supports budget-matched comparisons and the empty-stage edge.
    t2: int | None = None


@dataclass(frozen=True)
class MixLoss:
    lam: float
    delta_y: float
    m0: int
    eta: float

    def __post_init__(self):
        if not (0.0 < self.lam <= 1.0):
            raise ValueError("lambda out of (0,1]")


@dataclass(frozen=True)
class WeMix:
    lam: float
    delta_y: float
    t1: int
    t2: int
    m0: int
    eta1: float
    eta2: float


Scheme = Original | Augmented | AugDrop | MixLoss | WeMix

FreshSampler = Callable[[Rng, int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class TrainConfig:
    scheme: Scheme
    batch: int = 32
    momentum: float = 0.0
    weight_decay: float = 0.0
    lr_decay: float = 1.0
    lr_every: int = 0
    epochs: int = 1
    seed: int = 0
    # Evaluation-only sets for schemes that do not train on that side; they
    # fill the L / L_tilde trace columns so plateau and constraint checks can
    # run on any scheme.
    eval_orig: LabeledSet | None = None
    eval_aug: LabeledSet | None = None
    ltilde_ref: float = 0.0
    keep_iterates: bool = False
    fresh_sampler: FreshSampler | None = None
    # The L_c trace column evaluates lam * L + (1 - lam) * L_a at these
    # weights. None takes the scheme's own (lam, delta_y), with (1, 0) for
    # original-only and (0, 0) for augmented-only schemes; overrides let
    # cross-scheme identity checks record the same mixture.
    record_lam: float | None = None
    record_delta_y: float | None = None

    def __post_init__(self):
        if self.batch < 1:
            raise ValueError("batch must be at least 1")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if self.lr_decay <= 0:
            raise ValueError("lr_decay must be positive")
        if self.lr_every < 0:
            raise ValueError("lr_every must be nonnegative")
        if self.epochs < 0:
            raise ValueError("epochs must be nonnegative")
        for name in ("eta", "eta1", "eta2"):
            eta = getattr(self.scheme, name, None)
            if eta is not None and eta <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("t1", "t2"):
            v = getattr(self.scheme, name, None)
            if v is not None and v < 0:
                raise ValueError(f"{name} must be nonnegative")
        for name in ("m0", "m1", "m2"):
            v = getattr(self.scheme, name, None)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be at least 1")
        lam = getattr(self.scheme, "lam", None)
        if lam is not None and not (0.0 <= lam <= 1.0):
            raise ValueError("lam must lie in [0, 1]")


# ---------------------------------------------------------------------------
# trace


@dataclass(frozen=True)
class TraceRow:
    t: int
    stage: int
    L: float
    L_tilde: float
    L_c: float
    grad_norm: float
    constraint: float


@dataclass
class TrainTrace:
    rows: list[TraceRow]
    final_params: np.ndarray
    aborted: bool = False
    meta: dict = field(default_factory=dict)
    iterates: np.ndarray | None = None

    def final_gap(self, floor: float) -> float:
        return self.rows[-1].L - floor


def write_trace_csv(trace: TrainTrace, path) -> None:
    """One row per record; floats via repr for a lossless, byte-stable file."""
    lines = [",".join(TRACE_COLUMNS)]
    for r in trace.rows:
        lines.append(
            f"{r.t},{r.stage},{r.L!r},{r.L_tilde!r},{r.L_c!r},{r.grad_norm!r},{r.constraint!r}"
        )
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace_csv(path) -> list[TraceRow]:
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError(f"unrecognized trace header in {path}")
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(TRACE_COLUMNS):
            raise ValueError(f"malformed trace row: {line!r}")
        rows.append(
            TraceRow(
                t=int(parts[0]),
                stage=int(parts[1]),
                L=float(parts[2]),
                L_tilde=float(parts[3]),
                L_c=float(parts[4]),
                grad_norm=float(parts[5]),
                constraint=float(parts[6]),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# optimizer step


@dataclass(frozen=True)
class MomentumState:
    coef: float
    velocity: np.ndarray


def fresh_momentum(coef: float, dim: int) -> MomentumState:
    return MomentumState(coef, np.zeros(dim))


def sgd_step(
    w: np.ndarray,
    grad: np.ndarray,
    eta: float,
    state: MomentumState,
    weight_decay: float = 0.0,
) -> tuple[np.ndarray, MomentumState]:
    """w' = w - eta * v' with v' = coef * v + (grad + weight_decay * w)."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    if not np.all(np.isfinite(grad)):
        raise ValueError("non-finite gradient")
    g = grad + weight_decay * w if weight_decay != 0.0 else grad
    v = state.coef * state.velocity + g
    return w - eta * v, MomentumState(state.coef, v)


# ---------------------------------------------------------------------------
# samplers


class EpochSampler:
    """Walks a shuffled permutation, reshuffling on exhaustion.

    Batches may span a reshuffle boundary, so no examples are dropped and any
    iteration count is serviceable.
    """

    def __init__(self, n: int, gen: np.random.Generator):
        if n < 1:
            raise ValueError("need at least one example")
        self._n = n
        self._gen = gen
        self._perm = gen.permutation(n)
        self._pos = 0

    def draw(self, count: int) -> np.ndarray:
        out = np.empty(count, dtype=np.intp)
        filled = 0
        while filled < count:
            take = min(count - filled, self._n - self._pos)
            out[filled : filled + take] = self._perm[self._pos : self._pos + take]
            self._pos += take
            filled += take
            if self._pos == self._n:
                self._perm = self._gen.permutation(self._n)
                self._pos = 0
        return out


# ---------------------------------------------------------------------------
# engine


@dataclass(frozen=True)
class _Stage:
    tag: int
    mode: str  # "orig" | "aug" | "mixed"
    iters: int
    batch: int
    eta: float


def _record_values(model: Predictor, eval_orig: EvalSet | None, eval_aug: EvalSet | None,
                   lam: float, delta_y: float, ltilde_ref: float) -> tuple[float, ...]:
    """(L, L_tilde, L_c, grad_norm, constraint) at one iterate, from one
    scores pass per evaluation set; a missing set reads as zeros."""
    l_val, gnorm = 0.0, 0.0
    if eval_orig is not None:
        st = eval_scores(model, batch_scores(model, eval_orig.inputs), eval_orig, grad=True)
        l_val, gnorm = st.loss, float(np.linalg.norm(st.grad))
    lt_val, la_val, cons = 0.0, 0.0, 0.0
    if eval_aug is not None:
        st = eval_scores(model, batch_scores(model, eval_aug.inputs), eval_aug, delta_y=delta_y)
        lt_val, la_val, cons = st.loss, st.corrected, st.loss - ltilde_ref
    return (l_val, lt_val, lam * l_val + (1.0 - lam) * la_val, gnorm, cons)


def _run(
    model: Predictor,
    orig: LabeledSet | None,
    aug: LabeledSet | None,
    cfg: TrainConfig,
    stages: list[_Stage],
    lam: float,
    delta_y: float,
    scheme_name: str,
) -> TrainTrace:
    t_start = time.perf_counter()
    arch = model.arch
    w = np.array(model.params, dtype=np.float64)
    eval_orig = orig if orig is not None else cfg.eval_orig
    eval_aug = aug if aug is not None else cfg.eval_aug
    eval_orig = EvalSet.of(eval_orig.inputs, eval_orig.labels) if eval_orig is not None else None
    eval_aug = EvalSet.of(eval_aug.inputs, eval_aug.labels) if eval_aug is not None else None
    rec_lam = cfg.record_lam if cfg.record_lam is not None else lam
    rec_delta = cfg.record_delta_y if cfg.record_delta_y is not None else delta_y

    rows: list[TraceRow] = []
    iterates: list[np.ndarray] | None = [] if cfg.keep_iterates else None
    aborted = False

    def record(t: int, tag: int) -> bool:
        if not np.all(np.isfinite(w)):
            return False
        # huge-but-finite iterates overflow during evaluation; the finite
        # check below turns that into an abort rather than a warning
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _record_values(Predictor(arch, w), eval_orig, eval_aug,
                                  rec_lam, rec_delta, cfg.ltilde_ref)
        if not all(np.isfinite(v) for v in vals):
            return False
        rows.append(TraceRow(t, tag, *vals))
        if iterates is not None:
            iterates.append(w.copy())
        return True

    first_tag = next((s.tag for s in stages if s.iters > 0), stages[-1].tag if stages else 2)
    if not record(0, first_tag):
        aborted = True

    global_t = 0
    for stage in stages:
        if aborted or stage.iters == 0:
            continue
        state = fresh_momentum(cfg.momentum, arch.param_count)
        orig_sampler = (
            EpochSampler(orig.n, Rng(cfg.seed, STREAM_ORIG).gen)
            if orig is not None and stage.mode in ("orig", "mixed")
            else None
        )
        rng_aug = Rng(cfg.seed, STREAM_AUG)
        for _ in range(stage.iters):
            m = Predictor(arch, w)
            if stage.mode == "orig":
                idx = orig_sampler.draw(stage.batch)
                grad = label_grad(m, orig.inputs[idx], orig.labels[idx])
            elif stage.mode == "aug":
                xa, ya = _draw_aug(aug, cfg, rng_aug, stage.batch)
                grad = label_grad(m, xa, ya)
            else:
                idx = orig_sampler.draw(1)
                xa, ya = _draw_aug(aug, cfg, rng_aug, stage.batch)
                grad = combined_grad(
                    m,
                    (orig.inputs[idx], orig.labels[idx]),
                    (xa, ya),
                    MixWeights(lam, delta_y, stage.batch),
                )
            if not np.all(np.isfinite(grad)):
                aborted = True
                break
            eta = stage.eta
            if cfg.lr_every > 0:
                eta = eta * cfg.lr_decay ** (global_t // cfg.lr_every)
            # divergence overflows to inf and is caught at the next record
            with np.errstate(over="ignore", invalid="ignore"):
                w, state = sgd_step(w, grad, eta, state, cfg.weight_decay)
            global_t += 1
            if not record(global_t, stage.tag):
                aborted = True
                break

    meta = {
        "scheme": scheme_name,
        "seed": cfg.seed,
        "iterations": global_t,
        "wall_time": time.perf_counter() - t_start,
        "lam": lam,
        "delta_y": delta_y,
        "aborted": aborted,
    }
    return TrainTrace(
        rows=rows,
        final_params=w,
        aborted=aborted,
        meta=meta,
        iterates=np.array(iterates) if iterates is not None else None,
    )


def _draw_aug(aug, cfg, rng_aug: Rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    if cfg.fresh_sampler is not None:
        return cfg.fresh_sampler(rng_aug, count)
    idx = rng_aug.gen.integers(0, aug.n, size=count)
    return aug.inputs[idx], aug.labels[idx]


# ---------------------------------------------------------------------------
# schemes


def _expect(cfg: TrainConfig, kind: type) -> Scheme:
    if not isinstance(cfg.scheme, kind):
        raise ValueError(f"config carries {type(cfg.scheme).__name__}, expected {kind.__name__}")
    return cfg.scheme


def train_original(model: Predictor, orig: LabeledSet, cfg: TrainConfig) -> TrainTrace:
    """Plain mini-batch SGD on the original objective, epochs passes."""
    sch = _expect(cfg, Original)
    if cfg.batch > orig.n:
        raise ValueError("batch exceeds dataset size")
    iters = cfg.epochs * (orig.n // cfg.batch)
    stages = [_Stage(2, "orig", iters, cfg.batch, sch.eta)]
    return _run(model, orig, None, cfg, stages, 1.0, 0.0, "original")


def train_augmented(model: Predictor, aug: LabeledSet, cfg: TrainConfig) -> TrainTrace:
    """Plain mini-batch SGD on the augmented objective, epochs passes."""
    sch = _expect(cfg, Augmented)
    iters = cfg.epochs * (aug.n // cfg.batch)
    stages = [_Stage(1, "aug", iters, cfg.batch, sch.eta)]
    return _run(model, None, aug, cfg, stages, 0.0, 0.0, "augmented")


def augdrop(model: Predictor, orig: LabeledSet, aug: LabeledSet, cfg: TrainConfig) -> TrainTrace:
    """Stage 1 on the augmented objective, stage 2 on the original one."""
    sch = _expect(cfg, AugDrop)
    m2 = min(sch.m2, orig.n)
    t2 = sch.t2 if sch.t2 is not None else orig.n // m2
    stages = [
        _Stage(1, "aug", sch.t1, sch.m1, sch.eta1),
        _Stage(2, "orig", t2, m2, sch.eta2),
    ]
    trace = _run(model, orig, aug, cfg, stages, 0.0, 0.0, "augdrop")
    if m2 != sch.m2:
        trace.meta["m2_capped"] = m2
    return trace


def mixloss(model: Predictor, orig: LabeledSet, aug: LabeledSet, cfg: TrainConfig) -> TrainTrace:
    """Single stage on the mixed objective; one original example per step,
    walked without replacement, with m0 augmented draws alongside."""
    sch = _expect(cfg, MixLoss)
    stages = [_Stage(1, "mixed", cfg.epochs * orig.n, sch.m0, sch.eta)]
    return _run(model, orig, aug, cfg, stages, sch.lam, sch.delta_y, "mixloss")


def wemix(model: Predictor, orig: LabeledSet, aug: LabeledSet, cfg: TrainConfig) -> TrainTrace:
    """Mixed-objective stage then original-only stage."""
    sch = _expect(cfg, WeMix)
    stages = [
        _Stage(1, "mixed", sch.t1, sch.m0, sch.eta1),
        _Stage(2, "orig", sch.t2, cfg.batch, sch.eta2),
    ]
    return _run(model, orig, aug, cfg, stages, sch.lam, sch.delta_y, "wemix")


def run_scheme(
    model: Predictor,
    orig: LabeledSet | None,
    aug: LabeledSet | None,
    cfg: TrainConfig,
) -> TrainTrace:
    """Dispatch on the configured scheme; used by sweep drivers."""
    if isinstance(cfg.scheme, Original):
        return train_original(model, orig, cfg)
    if isinstance(cfg.scheme, Augmented):
        return train_augmented(model, aug, cfg)
    if isinstance(cfg.scheme, AugDrop):
        return augdrop(model, orig, aug, cfg)
    if isinstance(cfg.scheme, MixLoss):
        return mixloss(model, orig, aug, cfg)
    if isinstance(cfg.scheme, WeMix):
        return wemix(model, orig, aug, cfg)
    raise ValueError(f"unknown scheme {cfg.scheme!r}")
