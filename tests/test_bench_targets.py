"""The benchmark's tracer still finds every layer it reports, the step
bench still runs, and the preset byte check names every difference.

perfbench/tracing.py wraps layer functions where their callers look them
up, and a traced benchmark run fails when a per-layer metric that
BENCHMARK.json declares is missing. These tests trace a tiny practical plan
with all five schemes and a tiny theory plan through cli.run_plan, so a
change that renames, unbinds or stops calling a wrapped layer fails here
first. They read the files under perfbench/ and change none of them.
"""
import copy
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from augbias import cli
from augbias.augment import SyntheticTask
from augbias.cli import Cell, ExperimentPlan
from augbias.trainers import AugDrop, Augmented, MixLoss, Original, WeMix

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics perfbench/run.py computes itself, not from spans.
DERIVED = {"trainers.steps", "trainers.records", "trace.overhead_s"}
# Wrap targets the package no longer binds; record scoring does not go
# through batch_scores in these modules.
STALE = ["augbias.trainers.batch_scores", "augbias.theory.batch_scores"]


def _load(name, *path):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, *path))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracing():
    return _load("perfbench_tracing", "perfbench", "tracing.py")


def _plans(tmp_path):
    task = SyntheticTask(mode="label_bias", n=40, m=60, d=3, k=3, delta_y=0.2)
    practical = ExperimentPlan(task=task, seeds=(0,), outdir=str(tmp_path / "practical"), cells=(
        Cell("original", Original(eta=0.3, batch=8, epochs=2)),
        Cell("augmented", Augmented(eta=0.3, batch=8, epochs=1)),
        Cell("augdrop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
        Cell("mixloss", MixLoss(lam=0.6, delta_y=0.2, m0=3, eta=0.3, epochs=1)),
        Cell("wemix", WeMix(lam=0.6, delta_y=0.2, t1=8, t2=8, m0=3, eta1=0.3, eta2=0.3)),
    ))
    theory = ExperimentPlan(task=task, seeds=(0,), outdir=str(tmp_path / "theory"),
                            mode="theory", cells=(
        Cell("augmented", Augmented(eta=0.3, batch=8, epochs=1)),
        Cell("augdrop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
    ))
    return practical, theory


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(tracing module, span file contents after the practical plan, after
    both plans, the practical plan's summaries)."""
    tracing = _tracing()
    practical, theory = _plans(tmp_path_factory.mktemp("traced"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, code = cli.run_plan(practical)
        assert code == 0
        after_practical = {"missing": list(tracer.missing),
                           "installed": sorted(tracer.installed),
                           "spans": list(tracer.spans)}
        _, code = cli.run_plan(theory)
        assert code == 0
    finally:
        tracer.uninstall()
    both = {"missing": tracer.missing, "installed": sorted(tracer.installed),
            "spans": tracer.spans}
    summaries = []
    for name in sorted(os.listdir(practical.outdir)):
        if name.endswith(".json"):
            with open(os.path.join(practical.outdir, name), encoding="utf-8") as fh:
                summaries.append(json.load(fh))
    return tracing, after_practical, both, summaries


def test_every_declared_layer_metric_is_traced(traced):
    tracing, _, both, _ = traced
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    metrics = tracing.layer_metrics(both)
    assert sorted(declared - DERIVED - set(metrics)) == []


def test_only_the_stale_targets_are_missing(traced):
    _, _, both, _ = traced
    assert sorted(both["missing"]) == sorted(STALE)


def test_every_training_step_goes_through_the_traced_sgd_step(traced):
    """Every step a run computes is one traced sgd_step call; the steps a
    run takes from an earlier cell's first stage (WeMix's from MixLoss
    here) are not computed again."""
    tracing, after_practical, _, summaries = traced
    assert len(summaries) == 5
    metrics = tracing.layer_metrics(after_practical)
    assert metrics["trainers.sgd_step.calls"] == \
        sum(s["iterations"] - s["reused_steps"] for s in summaries) > 0
    assert sum(s["reused_steps"] for s in summaries) > 0
    assert metrics["models.label_grad.step_s"] > 0
    assert metrics["losses.combined_grad.calls"] > 0


def test_the_theory_plan_counts_the_jacobian_pairs(traced):
    """The theory plan's one set-up estimates G once, and the tracer counts
    its (cloud point, input) pairs from the call's `dataset` and
    `params_cloud` arguments."""
    tracing, after_practical, both, _ = traced
    assert tracing.layer_metrics(after_practical)["models.estimate_G.calls"] == 0
    metrics = tracing.layer_metrics(both)
    assert metrics["models.estimate_G.calls"] == 1
    assert metrics["models.estimate_G.pairs"] > 0


def test_the_step_bench_times_every_layer(tmp_path):
    out = tmp_path / "BENCH_step.json"
    subprocess.run([sys.executable, os.path.join(ROOT, "bench", "step_costs.py"),
                    "--root", ROOT, "--label", "smoke", "--out", str(out),
                    "--calls", "2", "--rounds", "1"],
                   check=True, capture_output=True, timeout=120)
    costs = json.loads(out.read_text())["runs"]["smoke"]["us_per_call"]
    assert sorted(costs) == sorted([
        "draw_aug.64", "draw_aug.4000", "label_grad.64", "label_grad.4000",
        "combined_grad.33", "train_step.aug64", "train_step.aug4000", "train_step.mixed33",
        "record.orig2000_grad", "record.aug4000_dy0", "record.aug4000_dy0.4"])
    assert all(us > 0 for us in costs.values())


def test_the_preset_byte_check_names_every_difference():
    """bench/preset_bytes.py's comparison: a NaN field matches NaN, and a
    changed digest, a changed field, a missing run and a changed exit code
    each give one line."""
    pb = _load("preset_bytes", "bench", "preset_bytes.py")
    run = {"csv_sha256": "a", **dict.fromkeys(pb.FIELDS), "final_gap": float("nan")}
    a = {"p/practical": {"exit": 0, "runs": {"x__seed0": run, "y__seed0": dict(run)}},
         "p/theory": {"exit": 2, "runs": {}}}
    assert pb.differences(a, copy.deepcopy(a)) == []
    b = copy.deepcopy(a)
    b["p/practical"]["runs"]["x__seed0"].update(csv_sha256="b", warnings=["w"])
    del b["p/practical"]["runs"]["y__seed0"]
    b["p/theory"]["exit"] = 0
    assert pb.differences(a, b) == [
        'p/practical x__seed0 csv_sha256: "a" != "b"',
        'p/practical x__seed0 warnings: null != ["w"]',
        "p/practical y__seed0: only in A",
        "p/theory: exit 2 != 0"]
