"""Mini-batch SGD engine and the five training schemes.

A scheme is a tuple of stages (`Scheme`, `Stage`), each with its own step
size, batch and length, and `run_scheme` runs every scheme through one
engine, so the stated reductions hold bit-exactly, not just approximately:

  * WeMix(lam=0, delta_y=0)  is AugDrop with m1 = m0 and m2 = batch;
  * WeMix(t1=n, t2=0)        is MixLoss at one epoch;
  * MixLoss(lam=1)           steps like Original at batch 1;
  * AugDrop(t1=0)            is Original at one epoch and batch m2, with lam = 0;
  * AugDrop(t2=0)            is Augmented at one epoch and batch m1, t1 = m // m1.

Randomness is keyed per purpose: stream 0 initializes parameters, stream 1
drives original-set index draws, stream 2 drives augmented draws. Each stage
recreates its generators from the stream key, so the draw sequence a stage
sees depends only on (seed, stream), never on what an earlier stage consumed.
Original examples are walked without replacement (reshuffled per pass);
augmented examples are drawn with replacement.

Every step is plain SGD, w - eta * grad, at the step size of its stage; a
step-size schedule is a sequence of stages. The combined step is
lam * g_orig + (1 - lam) * g_aug, which degenerates bitwise to either side
at lam in {0, 1}; that is what makes the reductions exact. On a non-finite
loss or gradient the run aborts and returns the trace accumulated so far
instead of raising, so sweeps never die on divergence.

The trace has one record at the start and one after every step, but records
are not scored step by step. Training runs up to CHUNK steps ahead, keeping
each iterate, and the chunk's records are then scored together by the
batched evaluation kernel (models.stack_stats). Training never reads a
record, so the trace is the one a per-step loop records, cut at the same
step when the run diverges. `train` yields the same iterates and
scores no record, for callers that read only the iterates.

A caller may own a FirstStageStore and pass it to every run_scheme call of a
plan. A run stores its first stage there (records and iterates), and a later
run whose first stage is the same, on the same inputs, starts after it: it
takes the stored records and the iterate at its own first stage's end, and
trains only its remaining stages. AugDrop's first stage is Augmented's and
WeMix's is MixLoss's, so a plan that runs both pays for each stage once.
Because each stage recreates its generators, the continued run is the run
from scratch, bit for bit.
"""
from __future__ import annotations

import itertools
import math
import struct
import time
from collections.abc import Iterator
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .core import LabeledSet, Rng, as_vec
from .models import label_grad, stack_stats
from .losses import combined_grad

STREAM_INIT = 0
STREAM_ORIG = 1
STREAM_AUG = 2

TRACE_COLUMNS = ("t", "stage", "L", "L_tilde", "L_c", "grad_norm", "constraint")


# ---------------------------------------------------------------------------
# schemes

MODES = ("orig", "aug", "mixed")


@dataclass(frozen=True)
class Stage:
    """One run of SGD steps at a fixed step size.

    mode "orig" steps on a batch of originals, "aug" on a batch of augmented
    examples, "mixed" on one original and `batch` augmented draws weighted
    by the scheme's lam. The stage runs `iters` steps, or `epochs` passes
    when iters is None (see size_stages); an iters with an epochs other
    than 1 is an error, since that epochs would change nothing. eta is
    positive and finite, iters and epochs nonnegative and batch at least 1.
    """

    mode: str
    eta: float
    _: KW_ONLY
    batch: int
    iters: int | None = None
    epochs: int = 1

    def __post_init__(self):
        bad = () if self.mode in MODES else (f"stage mode must be one of {', '.join(MODES)}",)
        if self.iters is not None and self.epochs != 1:
            bad += ("epochs must be 1 when iters is given",)
        _check(*bad, eta=self.eta, iters=self.iters, batch=self.batch, epochs=self.epochs)


@dataclass(frozen=True)
class Scheme:
    """Stages run in order. lam and delta_y weight the mixed steps and the
    L_c trace column, lam * L + (1 - lam) * L_a at radius delta_y."""

    name: str
    stages: tuple[Stage, ...]
    lam: float = 0.0
    delta_y: float = 0.0

    def __post_init__(self):
        stages_bad = () if self.stages else ("a scheme needs at least one stage",)
        _check(*stages_bad, lam=self.lam, delta_y=self.delta_y)


# Out-of-range tests by argument family (eta1 is an eta, t2 a t, ...); a
# Stage's iters is a step count like t, its batch a batch size like m.
_OUT_OF_RANGE = {
    "eta": (lambda v: not (v > 0 and math.isfinite(v)), "must be positive and finite"),
    "t": (lambda v: v < 0, "must be nonnegative"),
    "iters": (lambda v: v < 0, "must be nonnegative"),
    "epochs": (lambda v: v < 0, "must be nonnegative"),
    "m": (lambda v: v < 1, "must be at least 1"),
    "batch": (lambda v: v < 1, "must be at least 1"),
    "lam": (lambda v: not (0.0 <= v <= 1.0), "must lie in [0, 1]"),
    "delta_y": (lambda v: not (v >= 0 and math.isfinite(v)), "must be nonnegative and finite"),
}


def _check(*found: str, **args) -> None:
    """One ValueError naming every out-of-range argument after `found`."""
    bad = list(found)
    for key, v in args.items():
        test, rule = _OUT_OF_RANGE[key.rstrip("0123456789")]
        if v is not None and test(v):
            bad.append(f"{key} {rule}")
    if bad:
        raise ValueError("; ".join(bad))


def Original(eta: float, batch: int = 32, epochs: int = 1) -> Scheme:
    """Mini-batch SGD on the original objective, `epochs` passes."""
    return Scheme("original", (Stage("orig", eta, batch=batch, epochs=epochs),), lam=1.0)


def Augmented(eta: float, batch: int = 32, epochs: int = 1) -> Scheme:
    """Mini-batch SGD on the augmented objective, `epochs` passes."""
    return Scheme("augmented", (Stage("aug", eta, batch=batch, epochs=epochs),))


def AugDrop(t1: int, m1: int, m2: int, eta1: float, eta2: float,
            t2: int | None = None) -> Scheme:
    """Augmented stage, then an original-only stage; t2 defaults to one pass."""
    _check(t1=t1, m1=m1, m2=m2, eta1=eta1, eta2=eta2, t2=t2)
    return Scheme("augdrop", (Stage("aug", eta1, batch=m1, iters=t1),
                              Stage("orig", eta2, batch=m2, iters=t2)))


def MixLoss(lam: float, delta_y: float, m0: int, eta: float, epochs: int = 1) -> Scheme:
    """One stage on the mixed objective, `epochs` passes over the originals."""
    lam_bad = () if 0.0 < lam <= 1.0 else ("lambda out of (0,1]",)
    _check(*lam_bad, delta_y=delta_y, m0=m0, eta=eta, epochs=epochs)
    return Scheme("mixloss", (Stage("mixed", eta, batch=m0, epochs=epochs),), lam, delta_y)


def WeMix(lam: float, delta_y: float, t1: int, t2: int, m0: int,
          eta1: float, eta2: float, batch: int = 32) -> Scheme:
    """Mixed-objective stage, then an original-only stage at `batch`."""
    _check(lam=lam, delta_y=delta_y, t1=t1, t2=t2, m0=m0, eta1=eta1, eta2=eta2, batch=batch)
    return Scheme("wemix", (Stage("mixed", eta1, batch=m0, iters=t1),
                            Stage("orig", eta2, batch=batch, iters=t2)), lam, delta_y)


# The scheme constructors by scheme name; their signatures are the INI keys.
SCHEMES = {ctor.__name__.lower(): ctor for ctor in (Original, Augmented, AugDrop, MixLoss, WeMix)}


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class TrainConfig:
    scheme: Scheme
    seed: int = 0
    # Evaluation-only sets for schemes that do not train on that side; they
    # fill the L / L_tilde trace columns so plateau and constraint checks can
    # run on any scheme.
    eval_orig: LabeledSet | None = None
    eval_aug: LabeledSet | None = None
    ltilde_ref: float = 0.0


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
    iterations: int = 0
    # wall seconds run_scheme spent training (the steps and the check of
    # each iterate) and scoring the records
    train_s: float = 0.0
    score_s: float = 0.0
    # leading steps and records taken from a FirstStageStore, not computed
    reused_steps: int = 0


def write_trace_csv(trace: TrainTrace, path) -> None:
    """One row per record; floats via repr for a lossless, byte-stable file.
    Lines go to the file as they are formatted, never all held at once."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        fh.writelines(
            f"{r.t},{r.stage},{r.L!r},{r.L_tilde!r},{r.L_c!r},{r.grad_norm!r},{r.constraint!r}\n"
            for r in trace.rows
        )


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


def sgd_step(w: np.ndarray, grad: np.ndarray, eta: float) -> np.ndarray:
    """w - eta * grad."""
    if not (eta > 0):
        raise ValueError("eta must be positive")
    if not np.isfinite(grad).all():
        raise ValueError("non-finite gradient")
    return w - eta * grad


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


def size_stages(scheme: Scheme, n_orig: int, n_aug: int) -> list[tuple[int, int]]:
    """(iters, batch) of each stage of `scheme` on n_orig originals and
    n_aug augmented examples.

    A None iters is the stage's epochs passes. A pass is n // batch steps
    on one side, or n_orig mixed steps (one original each). A batch of
    originals larger than its set is an error, and so is a batch of
    augmented examples in an aug stage that a pass sizes.
    """
    sizes = []
    for st in scheme.stages:
        n, side = (n_orig, "original") if st.mode == "orig" else (n_aug, "augmented")
        if st.batch > n and (st.mode == "orig" or (st.mode == "aug" and st.iters is None)):
            raise ValueError(f"batch {st.batch} is larger than the {n} {side} examples")
        per_pass = n_orig if st.mode == "mixed" else n // st.batch
        sizes.append((st.epochs * per_pass if st.iters is None else st.iters, st.batch))
    return sizes


# Steps trained ahead of their trace records, so the records of one chunk are
# scored together; chosen by measurement on the table1 benchmark workload.
CHUNK = 128


class FirstStageStore:
    """The first stage of one run: its records and iterates, with the key of
    every input that decides them. Owned by the caller, which passes it to
    run_scheme; a run that does not take from it replaces what it holds.

    A run may take the stored stage when its own first stage is at least one
    step long, no longer than the stored one, and keyed the same: the start
    iterate's bytes, the stage's mode, step size and batch, the
    scheme's lam and delta_y, the seed, ltilde_ref, and the very sets (by
    identity) it trains on and scores, which fix the iterate's shape. A
    longer first stage runs from scratch, since continuing the stored one
    would need its generators' state. The stored records are all finite: a run stores the
    records its first stage reached before any abort.
    """

    def __init__(self):
        self.clear()

    def clear(self) -> None:
        self._key, self._sets = None, ()
        self._rows: list[TraceRow] = []
        self._iterates: np.ndarray | None = None

    def put(self, key: tuple, sets: tuple, rows: list[TraceRow], iterates: np.ndarray) -> None:
        """Hold `rows` (records 0..T, shared, not copied) and the (T+1, P)
        iterates they score."""
        self._key, self._sets, self._rows, self._iterates = key, sets, rows, iterates

    def take(self, key: tuple, sets: tuple, steps: int):
        """(records 0..steps, iterate at `steps`) if a stage stored under
        `key` and `sets` reached that step, else None."""
        if (steps < 1 or steps >= len(self._rows) or key != self._key
                or any(a is not b for a, b in zip(sets, self._sets))):
            return None
        return self._rows[:steps + 1], self._iterates[steps].copy()


def stage_family(scheme: Scheme) -> tuple:
    """The part of a run's first-stage key that its scheme decides: the first
    stage's mode, batch and step size, and the scheme's lam and delta_y.
    Runs whose schemes differ here never share a first stage. Floats go by
    their bits, so a key never matches a different value."""
    stage = scheme.stages[0]
    return (stage.mode, stage.batch, struct.pack("<3d", stage.eta, scheme.lam, scheme.delta_y))


def _stage_key(w: np.ndarray, scheme: Scheme, cfg: TrainConfig) -> tuple:
    """What decides a run's first-stage steps and records, besides the sets."""
    return (w.tobytes(), cfg.seed, struct.pack("<d", cfg.ltilde_ref), *stage_family(scheme))


def _start(w0: np.ndarray, orig, aug, cfg: TrainConfig) -> tuple[np.ndarray, list, bool, bool]:
    """The checked copy of `w0`, the stages as (stage, tag, (iters, batch))
    with tag 2 on original-only steps and 1 on the others, and whether the
    scheme trains on the originals and on the augmented set."""
    scheme = cfg.scheme
    modes = {st.mode for st in scheme.stages}
    uses_orig, uses_aug = bool(modes & {"orig", "mixed"}), bool(modes & {"aug", "mixed"})
    if (uses_orig and orig is None) or (uses_aug and aug is None):
        raise ValueError(f"scheme {scheme.name!r} needs the set it trains on")
    sizes = size_stages(scheme, orig.n if orig is not None else 0,
                        aug.n if aug is not None else 0)
    data = orig if uses_orig else aug
    w = as_vec(w0, size=data.k * data.d, name="w0").copy()
    tags = [2 if st.mode == "orig" else 1 for st in scheme.stages]
    return w, list(zip(scheme.stages, tags, sizes)), uses_orig, uses_aug


def train(w0: np.ndarray, orig: LabeledSet | None, aug: LabeledSet | None,
          cfg: TrainConfig) -> Iterator[tuple[int, int, np.ndarray]]:
    """(t, tag, w) after every step of cfg.scheme from the flat weights `w0`,
    as run_scheme trains them, with no record scored. The arguments are
    checked at the call. It ends at a non-finite gradient and before a
    non-finite iterate, but goes on past a record that would overflow."""
    w, stages, _, _ = _start(w0, orig, aug, cfg)
    return itertools.takewhile(lambda step: np.isfinite(step[2]).all(),
                               _train(w, orig, aug, cfg, stages))


def run_scheme(
    w0: np.ndarray,
    orig: LabeledSet | None,
    aug: LabeledSet | None,
    cfg: TrainConfig,
    *,
    first_stage: FirstStageStore | None = None,
) -> TrainTrace:
    """Run cfg.scheme's stages from the flat weights `w0`, with one trace
    record at the start and one after every step.

    Training runs up to CHUNK steps ahead, and then the chunk's records are
    scored together. Training never reads a record, so the trace is the same
    as recording after every step; the first non-finite iterate, record or
    gradient ends it where a per-step loop would.

    Trace rows carry stage 2 for original-only steps and 1 otherwise. A side
    no stage trains on is evaluated on cfg.eval_orig / cfg.eval_aug, even
    when its set is passed in.

    With `first_stage`, the run takes its first stage from that store when
    the store holds the same one (see FirstStageStore), and otherwise stores
    its own there.
    """
    scheme = cfg.scheme
    w, stages, uses_orig, uses_aug = _start(w0, orig, aug, cfg)
    eval_orig = orig if uses_orig else cfg.eval_orig
    eval_aug = aug if uses_aug else cfg.eval_aug
    sets = (orig, aug, eval_orig, eval_aug)
    scorer = _Scorer(eval_orig, eval_aug, scheme.lam, scheme.delta_y, cfg.ltilde_ref)

    first_tag = next((tag for _, tag, (iters, _) in stages if iters > 0), stages[-1][1])
    _, tag0, (first, _) = stages[0]
    key = _stage_key(w, scheme, cfg) if first_stage is not None else None
    taken = first_stage.take(key, sets, first) if first_stage is not None else None
    if taken is not None:
        # the first stage's records are known; training resumes after it
        (rows, w), reused = taken, first
        chunk, end = [], (first, tag0, w)
        steps = _train(w, orig, aug, cfg, stages[1:], first)
    else:
        rows, reused = [], 0
        chunk = [(0, first_tag, w)]
        end = chunk[0]  # the (t, tag, w) the run ends on
        steps = _train(w, orig, aug, cfg, stages)
        if first_stage is not None:
            first_stage.clear()  # released before this run fills its own stage
    storing = first_stage is not None and taken is None
    stage_iterates = np.empty((first + 1, w.size)) if storing else None

    train_s = score_s = 0.0
    while True:
        t0 = time.perf_counter()
        stopped, error = True, None
        try:
            for step in steps:
                chunk.append(step)
                if not np.isfinite(step[2]).all():
                    break  # training never resumes after a non-finite iterate
                if len(chunk) == CHUNK:
                    stopped = False
                    break
        except Exception as exc:  # raised once the chunk's records are known
            error = exc
        t1 = time.perf_counter()
        good = scorer.rows(chunk)
        train_s += t1 - t0
        score_s += time.perf_counter() - t1
        rows.extend(good)
        if storing:
            for t, _, w_t in chunk[:len(good)]:
                if t <= first:
                    stage_iterates[t] = w_t
        if chunk:
            end = chunk[min(len(good), len(chunk) - 1)]
        if len(good) < len(chunk):
            break  # what training met after a non-finite record does not count
        if error is not None:
            raise error
        if stopped:
            break
        chunk = []
    global_t, _, w = end
    if storing:
        stored = min(len(rows), first + 1)
        first_stage.put(key, sets, rows[:stored], stage_iterates[:stored])
    # a run stops short at a non-finite iterate, record or gradient
    steps_total = sum(iters for _, _, (iters, _) in stages)
    aborted = len(rows) == 0 or rows[-1].t < steps_total
    return TrainTrace(
        rows=rows,
        final_params=w,
        aborted=aborted,
        iterations=global_t,
        train_s=train_s,
        score_s=score_s,
        reused_steps=reused,
    )


def _train(w: np.ndarray, orig, aug, cfg: TrainConfig, stages, global_t: int = 0):
    """SGD from w, the iterate at step global_t, over (stage, tag, (iters,
    batch)) in order; yields (t, tag, w) after every step and stops at a
    non-finite gradient.

    Each value is checked for finiteness once. A gradient is checked by
    sgd_step, whose ValueError ends the run when the gradient is the cause.
    An iterate is checked by the caller, which resumes the generator only
    after a finite one, so a step uses w without checking or copying it again.

    Steps run ahead of their records, so a step can follow an iterate whose
    record overflows; its arithmetic may then give inf and NaN, without
    warnings.
    """
    lam, delta_y = cfg.scheme.lam, cfg.scheme.delta_y
    for stage, tag, (iters, batch) in stages:
        if iters == 0:
            continue
        orig_sampler = EpochSampler(orig.n, Rng(cfg.seed, STREAM_ORIG).gen) \
            if stage.mode != "aug" else None
        rng_aug = Rng(cfg.seed, STREAM_AUG)
        for _ in range(iters):
            with np.errstate(over="ignore", invalid="ignore"):
                if stage.mode == "orig":
                    grad = label_grad(w, *_gather(orig, orig_sampler.draw(batch)))
                elif stage.mode == "aug":
                    grad = label_grad(w, *_draw_aug(aug, rng_aug, batch))
                else:
                    grad = combined_grad(w, _gather(orig, orig_sampler.draw(1)),
                                         _draw_aug(aug, rng_aug, batch), lam, delta_y)
                try:
                    # divergence overflows to inf and is caught at the next record
                    w = sgd_step(w, grad, stage.eta)
                except ValueError:
                    if not np.isfinite(grad).all():
                        return
                    raise
            global_t += 1
            yield global_t, tag, w


@dataclass(frozen=True)
class _Scorer:
    """What scores one run's records: its evaluation sets (None for a side
    it does not score), lam, delta_y and ltilde_ref."""

    eval_orig: LabeledSet | None
    eval_aug: LabeledSet | None
    lam: float
    delta_y: float
    ltilde_ref: float

    def score(self, params: np.ndarray) -> np.ndarray:
        """(L, L_tilde, L_c, grad_norm, constraint) at each of a (B, P) stack
        of finite iterates, one row each; a missing evaluation set reads as
        zeros."""
        out = np.zeros((len(params), 5))
        l_a = 0.0
        # huge-but-finite iterates overflow during evaluation; the finite
        # check on the values turns that into an abort rather than a warning
        with np.errstate(over="ignore", invalid="ignore"):
            if self.eval_orig is not None:
                st = stack_stats(params, self.eval_orig, grad=True)
                out[:, 0] = st.loss
                out[:, 3] = [np.linalg.norm(g) for g in st.grad]
            if self.eval_aug is not None:
                st = stack_stats(params, self.eval_aug, delta_y=self.delta_y)
                out[:, 1] = st.loss
                out[:, 4] = st.loss - self.ltilde_ref
                l_a = st.corrected
            out[:, 2] = self.lam * out[:, 0] + (1.0 - self.lam) * l_a
        return out

    def rows(self, chunk: list) -> list[TraceRow]:
        """TraceRows of a chunk of (t, tag, w) records, up to its first
        non-finite iterate or value."""
        finite = len(chunk)
        if chunk and not np.isfinite(chunk[-1][2]).all():
            finite -= 1  # training stops at a non-finite iterate, so only the last can be
        values = self.score(np.array([w for _, _, w in chunk[:finite]]))
        rows = []
        for (t, tag, _), vals in zip(chunk, values.tolist()):
            if not all(math.isfinite(v) for v in vals):
                break
            rows.append(TraceRow(t, tag, *vals))
        return rows


def _gather(ds: LabeledSet, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (inputs, labels) rows of `ds` at idx; take copies the same rows as
    indexing, for about half the cost."""
    return ds.inputs.take(idx, axis=0), ds.labels.take(idx, axis=0)


def _draw_aug(aug: LabeledSet, rng_aug: Rng, count: int) -> tuple[np.ndarray, np.ndarray]:
    return _gather(aug, rng_aug.gen.integers(0, aug.n, size=count))
