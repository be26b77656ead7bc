"""The five preset plans as Python objects, frozen as the plans that
`src/augbias/presets/*.ini` must parse to. Each packaged file is checked
`==` its entry here, cell order included, so a file edit that changes a
preset's task, cells, seeds or plan keys fails a test."""
import dataclasses

from augbias.augment import SyntheticTask
from augbias.cli import Cell, ExperimentPlan
from augbias.trainers import AugDrop, Augmented, MixLoss, Original, WeMix


def _plateau_cells(deltas, key):
    return tuple(
        Cell(name=f"aug-{key}{str(d).replace('.', '')}",
             scheme=Augmented(eta=1.0, batch=4000, epochs=300),
             **{f"task_{key}": d})
        for d in deltas)


def _table1_cells():
    eta = 0.5
    return (
        Cell("original", Original(eta=eta, batch=64, epochs=64)),
        Cell("augmented", Augmented(eta=eta, batch=64, epochs=32)),
        Cell("augdrop", AugDrop(t1=1000, m1=64, m2=64, eta1=eta, eta2=eta, t2=1000)),
        Cell("mixloss", MixLoss(lam=0.6, delta_y=0.4, m0=33, eta=eta)),
        Cell("wemix", WeMix(lam=0.6, delta_y=0.4, t1=1000, t2=1000, m0=33,
                            eta1=eta, eta2=eta)),
    )


def frozen_presets() -> dict:
    canon = SyntheticTask(mode="label_bias", n=2000, m=4000, d=10, k=5, delta_y=0.4)
    return {
        "lemma2-plateau": ExperimentPlan(
            task=dataclasses.replace(canon, delta_y=0.0),
            cells=_plateau_cells((0.1, 0.2, 0.4), "delta_y"),
            seeds=tuple(range(5)), outdir="runs/lemma2-plateau",
        ),
        "table1-desk": ExperimentPlan(
            task=canon, cells=_table1_cells(),
            seeds=tuple(range(5)), outdir="runs/table1-desk",
        ),
        "augdrop-membership": ExperimentPlan(
            task=canon,
            cells=(Cell("augdrop", AugDrop(t1=1000, m1=64, m2=64,
                                           eta1=0.5, eta2=0.5, t2=1000)),),
            seeds=tuple(range(5)), outdir="runs/augdrop-membership",
            constraint_floor=True,
        ),
        "small-bias": ExperimentPlan(
            task=SyntheticTask(mode="label_bias", n=100, m=2000, d=10, k=5,
                               delta_y=0.01),
            cells=(
                Cell("original", Original(eta=0.5, batch=20, epochs=400)),
                Cell("augmented", Augmented(eta=0.5, batch=20, epochs=20)),
            ),
            seeds=tuple(range(5)), outdir="runs/small-bias", eval_n=4000,
        ),
        "label-preserving": ExperimentPlan(
            task=SyntheticTask(mode="input_shift", n=2000, m=4000, d=10, k=5,
                               delta_p=0.2),
            cells=_plateau_cells((0.05, 0.2), "delta_p") + (
                Cell("augdrop-p02", AugDrop(t1=1000, m1=64, m2=64,
                                            eta1=0.5, eta2=0.5, t2=1000),
                     task_delta_p=0.2),
            ),
            seeds=tuple(range(5)), outdir="runs/label-preserving",
        ),
    }
