"""Config parsing, plan execution, and the command-line entry point."""
import dataclasses
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
import weakref

import numpy as np
import pytest

from augbias import cli, trainers
from augbias.cli import (
    Cell,
    ExperimentPlan,
    main,
    presets,
    report,
    run_plan,
    validate_config,
)
from augbias.augment import SyntheticTask
from augbias.core import DegenerateEstimateError
from augbias.theory import ConstantEstimates, theory_stepsizes
from augbias.trainers import (
    CHUNK,
    AugDrop,
    Augmented,
    MixLoss,
    Original,
    WeMix,
    read_trace_csv,
    size_stages,
)
from frozen_presets import frozen_presets

TINY_TASK = """
[task]
mode = label_bias
n = 40
m = 60
d = 3
k = 3
delta_y = 0.2
"""

TINY_CELLS = """
[cell.orig]
scheme = original
eta = 0.3
batch = 8
epochs = 2

[cell.drop]
scheme = augdrop
t1 = 8
t2 = 8
m1 = 6
m2 = 6
eta1 = 0.3
eta2 = 0.3
"""


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def write_cfg(tmp_path, body, name="plan.ini"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return str(path)


def tiny_cfg(tmp_path, outdir=None, extra=""):
    outdir = outdir or str(tmp_path / "out")
    return write_cfg(
        tmp_path, TINY_TASK + f"\n[plan]\nseeds = 0, 1\noutdir = {outdir}\n"
        + TINY_CELLS + extra)


class TestValidateConfig:
    def test_empty_file_names_every_requirement(self, tmp_path):
        plan, errors = validate_config(write_cfg(tmp_path, ""))
        assert plan is None
        text = "\n".join(errors)
        assert "[task]" in text
        assert "seeds" in text and "outdir" in text
        assert "cell" in text

    def test_valid_config_parses(self, tmp_path):
        plan, errors = validate_config(tiny_cfg(tmp_path))
        assert errors == []
        assert plan.seeds == (0, 1)
        assert [c.name for c in plan.cells] == ["orig", "drop"]
        assert plan.cells[0].scheme.name == "original"
        assert plan.cells[1].scheme.name == "augdrop"
        assert plan.task.n == 40 and plan.task.delta_y == 0.2

    def test_missing_task_section_names_every_task_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "[plan]\nseeds = 0\noutdir = o\n" + TINY_CELLS)
        plan, errors = validate_config(cfg)
        assert plan is None
        assert "missing [task] section (keys: mode, n, m, d, k, delta_y, delta_p, "\
               "teacher_scale)" in errors

    def test_every_task_key_parses(self, tmp_path):
        cfg = write_cfg(tmp_path, """
[task]
mode = input_shift
n = 30
m = 50
d = 4
k = 4
delta_y = 0.1
delta_p = 0.3
teacher_scale = 2.5

[plan]
seeds = 0
outdir = o
""" + TINY_CELLS)
        plan, errors = validate_config(cfg)
        assert errors == []
        assert plan.task == SyntheticTask(mode="input_shift", n=30, m=50, d=4, k=4,
                                          delta_y=0.1, delta_p=0.3, teacher_scale=2.5)
        assert all(getattr(plan.task, f.name) != f.default
                   for f in dataclasses.fields(SyntheticTask))

    def test_task_values_take_their_field_types(self, tmp_path):
        task = TINY_TASK.replace("n = 40", "n = 2.5").replace("delta_y = 0.2", "delta_y = big")
        plan, errors = validate_config(write_cfg(
            tmp_path, task + "\n[plan]\nseeds = 0\noutdir = o\n" + TINY_CELLS))
        assert plan is None
        assert "[task] key 'n' is not a valid int: '2.5'" in errors
        assert "[task] key 'delta_y' is not a valid float: 'big'" in errors

    def test_task_range_error_named(self, tmp_path):
        task = TINY_TASK.replace("k = 3", "k = 1")
        plan, errors = validate_config(write_cfg(
            tmp_path, task + "\n[plan]\nseeds = 0\noutdir = o\n" + TINY_CELLS))
        assert plan is None
        assert "[task] need n, m >= 1, d >= 1, k >= 2" in errors

    def test_lambda_out_of_range_is_single_error(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.mix]
scheme = mixloss
lam = 1.5
delta_y = 0.2
m0 = 4
eta = 0.3
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert len(errors) == 1
        assert "lambda out of (0,1]" in errors[0]

    def test_unknown_keys_all_named(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TASK + "bogus = 1\n"
                        + "\n[plan]\nseeds = 0\noutdir = o\nwhat = 2\n"
                        + TINY_CELLS + "surprise = 3\n\n[mystery]\nx = 1\n")
        plan, errors = validate_config(cfg)
        assert plan is None
        text = "\n".join(errors)
        assert "[task] unknown key 'bogus'" in text
        assert "[plan] unknown key 'what'" in text
        assert "unknown key 'surprise'" in text
        assert "unknown section [mystery]" in text

    def test_missing_scheme_keys_named(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.drop]
scheme = augdrop
t1 = 8
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert any("missing required keys" in e and "m1" in e for e in errors)

    def test_unknown_scheme_and_bad_number(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.a]
scheme = adam
eta = 0.1

[cell.b]
scheme = original
eta = fast
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        text = "\n".join(errors)
        assert "unknown scheme 'adam'" in text
        assert "not a valid float" in text

    def test_duplicate_cells_and_bad_seeds(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_TASK
                        + "\n[plan]\nseeds = 0, x\noutdir = o\n" + TINY_CELLS)
        plan, errors = validate_config(cfg)
        assert plan is None
        assert any("seeds" in e for e in errors)
        cell = "\n[cell.a]\nscheme = original\neta = 0.3\n"
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + 2 * cell)
        plan, errors = validate_config(cfg)
        assert plan is None
        assert len(errors) == 1
        assert errors[0].startswith("malformed config: ")
        assert errors[0].endswith("section 'cell.a' already exists")
        assert main(["validate", cfg]) == 2

    @pytest.mark.parametrize("plan_keys", [
        "preset = table1-desk", f"outdir = o\n{TINY_TASK}{TINY_CELLS}"],
        ids=["preset", "inline"])
    def test_negative_seed_rejected(self, tmp_path, plan_keys, capsys):
        cfg = write_cfg(tmp_path, f"[plan]\nseeds = 0, -1\n{plan_keys}\n")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert errors == ["[plan] seeds must be nonnegative, not -1"]
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--outdir", str(tmp_path / "o")]) == 2
        assert "not -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("plan_keys", [
        "preset = table1-desk", f"outdir = o\n{TINY_TASK}{TINY_CELLS}"],
        ids=["preset", "inline"])
    def test_repeated_seed_rejected(self, tmp_path, plan_keys, capsys):
        cfg = write_cfg(tmp_path, f"[plan]\nseeds = 3, 0, 3\n{plan_keys}\n")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert errors == ["[plan] seeds must be distinct, 3 repeats"]
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--outdir", str(tmp_path / "o")]) == 2
        assert "3 repeats" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        with pytest.raises(ValueError, match="seeds must be distinct, 0 repeats"):
            dataclasses.replace(presets()["small-bias"], seeds=(0, 1, 0))

    def test_preset_reference_resolves(self, tmp_path):
        cfg = write_cfg(tmp_path, "[plan]\npreset = table1-desk\nseeds = 3, 4\n"
                        f"outdir = {tmp_path / 'o'}\n")
        plan, errors = validate_config(cfg)
        assert errors == []
        assert plan.seeds == (3, 4)
        assert {c.name for c in plan.cells} == {
            "original", "augmented", "augdrop", "mixloss", "wemix"}
        assert plan.task.delta_y == 0.4

    def test_preset_takes_every_plan_key(self, tmp_path):
        cfg = write_cfg(tmp_path, "[plan]\npreset = augdrop-membership\neval_n = 100\n"
                        "constraint_floor = yes\nmode = theory\n")
        plan, errors = validate_config(cfg)
        assert errors == []
        assert (plan.eval_n, plan.constraint_floor, plan.mode) == (100, True, "theory")
        plan, errors = validate_config(write_cfg(
            tmp_path, "[plan]\npreset = small-bias\nconstraint_floor = no\n"))
        assert errors == [] and (plan.eval_n, plan.constraint_floor) == (4000, False)

    @pytest.mark.parametrize("plan_keys", [
        "preset = table1-desk", f"seeds = 0\noutdir = o\n{TINY_TASK}{TINY_CELLS}"],
        ids=["preset", "inline"])
    def test_negative_eval_n_rejected(self, tmp_path, plan_keys):
        cfg = write_cfg(tmp_path, f"[plan]\neval_n = -5\n{plan_keys}\n")
        plan, errors = validate_config(cfg)
        assert plan is None and errors == ["[plan] eval_n must be nonnegative"]
        with pytest.raises(ValueError, match="eval_n must be nonnegative"):
            tiny_plan(tmp_path, eval_n=-5)

    def test_theory_preset_with_wemix_rejected(self, tmp_path, capsys):
        """A preset's cells take the checks an inline cell takes."""
        cfg = write_cfg(tmp_path, "[plan]\npreset = table1-desk\nmode = theory\n")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert errors == ["[cell.wemix] theory mode does not resolve wemix schedules"]
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg, "--outdir", str(tmp_path / "o")]) == 2
        assert "[cell.wemix] theory mode" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_preset_rejects_extra_sections(self, tmp_path):
        cfg = write_cfg(tmp_path, "[plan]\npreset = table1-desk\n" + TINY_TASK)
        plan, errors = validate_config(cfg)
        assert plan is None
        assert any("preset plans do not take" in e for e in errors)

    def test_unknown_preset(self, tmp_path):
        plan, errors = validate_config(
            write_cfg(tmp_path, "[plan]\npreset = nope\n"))
        assert plan is None and any("unknown preset" in e for e in errors)

    def test_theory_mode_rejects_wemix(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\nmode = theory\n" + """
[cell.w]
scheme = wemix
lam = 0.5
delta_y = 0.2
t1 = 4
t2 = 4
m0 = 3
eta1 = 0.3
eta2 = 0.3
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert any("theory mode" in e for e in errors)

    def test_missing_file(self, tmp_path):
        plan, errors = validate_config(str(tmp_path / "absent.ini"))
        assert plan is None and any("cannot read" in e for e in errors)

    def test_readme_example_validates(self, tmp_path):
        with open(README, encoding="utf-8") as fh:
            block = fh.read().split("```ini\n", 1)[1].split("```", 1)[0]
        plan, errors = validate_config(write_cfg(tmp_path, block))
        assert errors == []
        assert [c.name for c in plan.cells] == ["augdrop", "mixloss"]

    def test_readme_library_sketch_runs(self, capsys):
        with open(README, encoding="utf-8") as fh:
            block = fh.read().split("```python\n", 1)[1].split("```", 1)[0]
        exec(compile(block, "README.md", "exec"), {})
        out = capsys.readouterr().out
        assert out.startswith("final gap ") and math.isfinite(float(out.split()[2]))

    def test_keys_a_scheme_does_not_read_are_unknown(self, tmp_path, capsys):
        """batch and epochs are keys only of the constructors that read them."""
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.drop]
scheme = augdrop
t1 = 8
m1 = 6
m2 = 6
eta1 = 0.3
eta2 = 0.3
batch = 8
epochs = 2

[cell.mix]
scheme = mixloss
lam = 0.6
delta_y = 0.2
m0 = 3
eta = 0.3
batch = 8

[cell.we]
scheme = wemix
lam = 0.6
delta_y = 0.2
t1 = 4
t2 = 4
m0 = 3
eta1 = 0.3
eta2 = 0.3
epochs = 2
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert errors == ["[cell.drop] unknown key 'batch'", "[cell.drop] unknown key 'epochs'",
                          "[cell.mix] unknown key 'batch'", "[cell.we] unknown key 'epochs'"]
        assert main(["validate", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_schedule_keys_size_the_stages(self, tmp_path):
        """Each cell's batch and epochs give the sizes they gave when every
        cell took them (n = 40 originals, m = 60 augmented draws)."""
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.orig]
scheme = original
eta = 0.3
batch = 8
epochs = 2

[cell.aug]
scheme = augmented
eta = 0.3
batch = 7
epochs = 3

[cell.mix]
scheme = mixloss
lam = 0.6
delta_y = 0.2
m0 = 3
eta = 0.3
epochs = 2

[cell.we]
scheme = wemix
lam = 0.6
delta_y = 0.2
t1 = 4
t2 = 5
m0 = 3
eta1 = 0.3
eta2 = 0.3
batch = 6
""")
        plan, errors = validate_config(cfg)
        assert errors == []
        sizes = {c.name: size_stages(c.scheme, plan.task.n, plan.task.m) for c in plan.cells}
        assert sizes == {"orig": [(10, 8)], "aug": [(24, 7)], "mix": [(80, 3)],
                         "we": [(4, 3), (5, 6)]}

    def test_out_of_range_values_all_named(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.eta]
scheme = original
eta = 0

[cell.t1]
scheme = augdrop
t1 = -3
m1 = 6
m2 = 6
eta1 = 0.3
eta2 = 0.3

[cell.m1]
scheme = augdrop
t1 = 4
m1 = 0
m2 = 6
eta1 = 0.3
eta2 = 0.3

[cell.batch]
scheme = wemix
lam = 0.5
delta_y = 0.2
t1 = 4
t2 = 4
m0 = 3
eta1 = 0.3
eta2 = 0.3
batch = 0

[cell.many]
scheme = augdrop
t1 = -3
m1 = 0
m2 = 6
eta1 = 0.3
eta2 = 0
momentum = 1.5
lr_decay = 0

[cell.eta_nan]
scheme = original
eta = nan

[cell.eta_inf]
scheme = original
eta = inf

[cell.mix_nan]
scheme = mixloss
lam = 0.5
delta_y = nan
m0 = 3
eta = 0.3

[cell.task_nan]
scheme = original
eta = 0.3
task_delta_y = nan

[cell.task_far]
scheme = original
eta = 0.3
task_delta_y = 5.0

[cell.task_neg]
scheme = original
eta = 0.3
task_delta_p = -1
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        for cell, key in (("eta", "eta"), ("t1", "t1"), ("m1", "m1"), ("batch", "batch"),
                          ("many", "t1"),
                          ("many", "m1"), ("many", "eta2"), ("many", "momentum"),
                          ("many", "lr_decay"), ("eta_nan", "eta"), ("eta_inf", "eta"),
                          ("mix_nan", "delta_y"), ("task_nan", "delta_y"),
                          ("task_far", "delta_y"), ("task_neg", "bias targets")):
            assert any(e.startswith(f"[cell.{cell}]") and key in e for e in errors), (cell, key)
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg]) == 2
        assert "eta2" in capsys.readouterr().err
        for line in ("delta_y = nan", "teacher_scale = nan"):
            task = TINY_TASK.replace("delta_y = 0.2", line)
            plan, errors = validate_config(write_cfg(
                tmp_path, task + "\n[plan]\nseeds = 0\noutdir = o\n" + TINY_CELLS))
            assert plan is None
            assert "[task] delta_y, delta_p and teacher_scale must be finite" in errors, line

    def test_batch_larger_than_a_pass_named(self, tmp_path):
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + """
[cell.orig]
scheme = original
eta = 0.3
batch = 41

[cell.aug]
scheme = augmented
eta = 0.3
batch = 61

[cell.wemix]
scheme = wemix
lam = 0.5
delta_y = 0.2
t1 = 4
t2 = 4
m0 = 3
eta1 = 0.3
eta2 = 0.3
batch = 41
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert [e.split()[0] for e in errors] == ["[cell.orig]", "[cell.aug]", "[cell.wemix]"]
        assert "batch 41" in errors[0] and "batch 61" in errors[1] and "batch 41" in errors[2]

    def test_bad_mode_named_beside_the_cell_errors(self, tmp_path, capsys):
        """An unknown mode is a [plan] error; the cells still take the
        practical-mode checks, so their errors are named too."""
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\nmode = bogus\n" + """
[cell.orig]
scheme = original
eta = 0.3
batch = 41
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert errors == ["[plan] mode must be 'practical' or 'theory', not 'bogus'",
                          "[cell.orig] batch 41 is larger than the 40 original examples"]
        assert main(["validate", cfg]) == 2
        err = capsys.readouterr().err
        assert "not 'bogus'" in err and "[cell.orig] batch 41" in err

    def test_percent_in_a_value_is_literal(self, tmp_path):
        preset = write_cfg(tmp_path, "[plan]\npreset = small-bias\noutdir = runs/50%\n",
                           name="preset.ini")
        inline = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = runs/50%\n"
                           + TINY_CELLS)
        for cfg in (preset, inline):
            plan, errors = validate_config(cfg)
            assert errors == [], cfg
            assert plan.outdir == "runs/50%"
            assert main(["validate", cfg]) == 0

    @pytest.mark.parametrize("t1, t2", [(4, 4), (0, 5), (4, 0)])
    def test_wemix_batch_above_n_rejected_whatever_its_steps(self, tmp_path, t1, t2, capsys):
        """WeMix's second stage draws `batch` of the 40 originals per step,
        as AugDrop's draws m2, so it may not ask for more than there are."""
        def cfg(batch):
            return write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + f"""
[cell.w]
scheme = wemix
lam = 0.5
delta_y = 0.2
t1 = {t1}
t2 = {t2}
m0 = 3
eta1 = 0.3
eta2 = 0.3
batch = {batch}
""", name=f"b{batch}.ini")
        plan, errors = validate_config(cfg(40))
        assert errors == [] and size_stages(plan.cells[0].scheme, 40, 60)[1] == (t2, 40)
        plan, errors = validate_config(cfg(41))
        assert plan is None
        assert errors == ["[cell.w] batch 41 is larger than the 40 original examples"]
        assert main(["validate", cfg(41)]) == 2
        assert "[cell.w] batch 41" in capsys.readouterr().err
        with pytest.raises(ValueError, match="batch 41 is larger than the 40 original"):
            size_stages(WeMix(lam=0.5, delta_y=0.2, t1=t1, t2=t2, m0=3, eta1=0.3,
                              eta2=0.3, batch=41), 40, 60)

    @pytest.mark.parametrize("t2", ["t2 = 4\n", ""], ids=["t2", "one-pass"])
    def test_augdrop_m2_above_n_rejected_on_its_cell_line(self, tmp_path, t2, capsys):
        """AugDrop's m2 is a batch of originals like WeMix's batch, and takes
        the same rule, whether t2 is given or sized as one pass."""
        cfg = write_cfg(tmp_path, TINY_TASK + "\n[plan]\nseeds = 0\noutdir = o\n" + f"""
[cell.orig]
scheme = original
eta = 0.3

[cell.drop]
scheme = augdrop
t1 = 4
{t2}m1 = 6
m2 = 50
eta1 = 0.3
eta2 = 0.3
""")
        plan, errors = validate_config(cfg)
        assert plan is None
        assert errors == ["[cell.drop] batch 50 is larger than the 40 original examples"]
        assert main(["validate", cfg]) == 2
        assert "[cell.drop] batch 50" in capsys.readouterr().err


SHIFT_TASK = """
[task]
mode = input_shift
n = 40
m = 60
d = 3
k = 3
delta_p = 0.2
"""

WEMIX_KEYS = "scheme = wemix\nlam = 0.5\ndelta_y = 0.2\nt1 = 4\nt2 = 4\nm0 = 3\neta1 = 0.3\neta2 = 0.3\n"


def wemix():
    return WeMix(lam=0.5, delta_y=0.2, t1=4, t2=4, m0=3, eta1=0.3, eta2=0.3)


class TestPlanRules:
    """A plan built in code takes every rule that a config file is checked
    for: it raises one ValueError at construction, joining the errors that
    validate_config gives the same values, so run_plan never meets it."""

    TASK = SyntheticTask(mode="label_bias", n=40, m=60, d=3, k=3, delta_y=0.2)
    SHIFT = SyntheticTask(mode="input_shift", n=40, m=60, d=3, k=3, delta_p=0.2)
    ORIG = "\n[cell.orig]\nscheme = original\neta = 0.3\n"

    # the plan's values besides task=TASK, seeds=(0,) and outdir="o"; the
    # same plan as a config file; the errors both give
    CASES = {
        "theory-mode wemix": (
            dict(mode="theory", cells=(Cell("w", wemix()),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir = o\nmode = theory\n[cell.w]\n" + WEMIX_KEYS,
            ["[cell.w] theory mode does not resolve wemix schedules"]),
        "batch above n": (
            dict(cells=(Cell("orig", Original(eta=0.3, batch=41)),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir = o\n" + ORIG + "batch = 41\n",
            ["[cell.orig] batch 41 is larger than the 40 original examples"]),
        "override out of range": (
            dict(cells=(Cell("orig", Original(eta=0.3), task_delta_y=5.0),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir = o\n" + ORIG + "task_delta_y = 5.0\n",
            ["[cell.orig] delta_y exceeds the simplex diameter"]),
        "path in a cell name": (
            dict(cells=(Cell("../escape", Original(eta=0.3)),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir = o\n[cell.../escape]\n"
            "scheme = original\neta = 0.3\n",
            ["[cell.../escape] cell names must be alphanumeric with - or _"]),
        "empty outdir": (
            dict(outdir="", cells=(Cell("orig", Original(eta=0.3)),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir =\n" + ORIG,
            ["[plan] outdir must not be empty"]),
        "task_delta_p on a label_bias task": (
            dict(cells=(Cell("orig", Original(eta=0.3), task_delta_p=0.1),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir = o\n" + ORIG + "task_delta_p = 0.1\n",
            ["[cell.orig] task_delta_p changes no run in label_bias mode"]),
        "task_delta_y on an input_shift task": (
            dict(task=SHIFT, cells=(Cell("orig", Original(eta=0.3), task_delta_y=0.1),)),
            SHIFT_TASK + "[plan]\nseeds = 0\noutdir = o\n" + ORIG + "task_delta_y = 0.1\n",
            ["[cell.orig] task_delta_y changes no run in input_shift mode"]),
        "three rules at once": (
            dict(outdir="", mode="theory", cells=(Cell("w", wemix(), task_delta_p=0.1),)),
            TINY_TASK + "[plan]\nseeds = 0\noutdir =\nmode = theory\n[cell.w]\n" + WEMIX_KEYS
            + "task_delta_p = 0.1\n",
            ["[plan] outdir must not be empty",
             "[cell.w] theory mode does not resolve wemix schedules",
             "[cell.w] task_delta_p changes no run in label_bias mode"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_a_plan_in_code_raises_what_validate_reports(self, tmp_path, case):
        values, ini, want = self.CASES[case]
        plan, errors = validate_config(write_cfg(tmp_path, ini))
        assert plan is None and errors == want
        with pytest.raises(ValueError) as info:
            ExperimentPlan(**{"task": self.TASK, "seeds": (0,), "outdir": "o", **values})
        assert str(info.value) == "; ".join(want)

    def test_repeated_cell_names_are_named_once_each(self, tmp_path):
        """A config file cannot repeat a section, so only a plan built in
        code or changed with dataclasses.replace can repeat a cell name."""
        a, b = Cell("a", Original(eta=0.3)), Cell("b", Augmented(eta=0.3))
        with pytest.raises(ValueError) as info:
            tiny_plan(tmp_path / "o", cells=(a, b, a, b, b))
        assert str(info.value) == ("[cell.a] cell names must be distinct; "
                                   "[cell.b] cell names must be distinct")
        with pytest.raises(ValueError, match=r"^\[cell\.a\] cell names must be distinct$"):
            dataclasses.replace(tiny_plan(tmp_path / "o", cells=(a,)), cells=(a, a))
        assert not (tmp_path / "o").exists()


WORKLOADS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads")


class TestBenchmarkWorkloads:
    def test_every_workload_validates(self):
        names = sorted(f for f in os.listdir(WORKLOADS) if f.endswith(".ini"))
        assert names
        for name in names:
            plan, errors = validate_config(os.path.join(WORKLOADS, name))
            assert errors == [] and plan is not None, (name, errors)

    @pytest.mark.parametrize("ini, preset", [("table1.ini", "table1-desk"),
                                             ("plateau.ini", "lemma2-plateau")])
    def test_workload_matches_its_preset(self, ini, preset):
        plan, _ = validate_config(os.path.join(WORKLOADS, ini))
        want = presets()[preset]
        assert plan.task == want.task
        assert plan.cells == want.cells
        assert plan.mode == want.mode == "practical"


PRESET_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src", "augbias", "presets")


def preset_choices() -> list:
    """The names `run --preset` accepts."""
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    return next(a for a in sub.choices["run"]._actions if a.dest == "preset").choices


class TestPresets:
    def test_expected_names(self):
        assert set(presets()) == {
            "lemma2-plateau", "table1-desk", "augdrop-membership",
            "small-bias", "label-preserving"}

    def test_names_files_and_choices_agree(self):
        files = {f[:-len(".ini")] for f in os.listdir(PRESET_DIR) if f.endswith(".ini")}
        assert set(presets()) == files == set(preset_choices())

    @pytest.mark.parametrize("name", sorted(frozen_presets()))
    def test_packaged_preset_parses_to_its_frozen_plan(self, name):
        plan, errors = validate_config(os.path.join(PRESET_DIR, f"{name}.ini"))
        assert errors == []
        assert plan == frozen_presets()[name] == presets()[name]  # cell order included

    def test_run_preset_and_preset_config_run_the_same_plan(self, tmp_path, monkeypatch):
        """`run --preset X` and a file holding only `[plan] preset = X` take
        one path: equal plans, and the same outputs on one seed."""
        ran = []

        def run_first_seed(plan, jobs=1):
            ran.append(plan)
            return run_plan(dataclasses.replace(plan, seeds=plan.seeds[:1]), jobs)

        monkeypatch.setattr(cli, "run_plan", run_first_seed)
        cfg = write_cfg(tmp_path, "[plan]\npreset = small-bias\n")
        assert main(["run", "--preset", "small-bias", "--outdir", str(tmp_path / "a")]) == 0
        assert main(["run", cfg, "--outdir", str(tmp_path / "b")]) == 0
        a, b = ran
        assert a == dataclasses.replace(b, outdir=a.outdir)
        assert a == dataclasses.replace(presets()["small-bias"], outdir=str(tmp_path / "a"))
        assert sorted(os.listdir(tmp_path / "a")) == sorted(os.listdir(tmp_path / "b"))
        assert outputs(tmp_path / "a") == outputs(tmp_path / "b")
        assert (tmp_path / "a" / "aggregate.csv").read_bytes() == \
            (tmp_path / "b" / "aggregate.csv").read_bytes()

    def test_run_preset_takes_the_checks_of_a_config(self, tmp_path, monkeypatch, capsys):
        """A packaged preset file in theory mode with a wemix cell fails at
        `run --preset`, as the same preset named from a config does."""
        with open(os.path.join(PRESET_DIR, "table1-desk.ini"), encoding="utf-8") as fh:
            text = fh.read().replace("mode = practical", "mode = theory")
        (tmp_path / "presets").mkdir()
        (tmp_path / "presets" / "theory-desk.ini").write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "_PRESET_DIR", str(tmp_path / "presets"))
        cfg = write_cfg(tmp_path, "[plan]\npreset = theory-desk\n")
        for argv in (["run", "--preset", "theory-desk"], ["run", cfg]):
            assert main(argv + ["--outdir", str(tmp_path / "o")]) == 2
            assert "[cell.wemix] theory mode" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_all_presets_well_formed(self):
        for name, plan in presets().items():
            assert isinstance(plan, ExperimentPlan), name
            assert len(plan.seeds) == 5, name
            assert len(plan.cells) >= 1, name

    def test_plateau_presets_sweep_bias(self):
        plan = presets()["lemma2-plateau"]
        assert sorted(c.task_delta_y for c in plan.cells) == [0.1, 0.2, 0.4]
        shift = presets()["label-preserving"]
        assert shift.task.mode == "input_shift"


def tiny_plan(outdir, cells=None, seeds=(0,), **kw):
    task = SyntheticTask(mode="label_bias", n=40, m=60, d=3, k=3, delta_y=0.2)
    cells = cells or (
        Cell("orig", Original(eta=0.3, batch=8, epochs=2)),
        Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
    )
    return ExperimentPlan(task=task, cells=tuple(cells), seeds=tuple(seeds),
                          outdir=str(outdir), **kw)


class TestRunPlan:
    def test_zero_iteration_run_reports_initial_gap(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", cells=(
            Cell("frozen", Original(eta=0.3, batch=8, epochs=0)),))
        rows, code = run_plan(plan)
        assert code == 0
        s = json.load(open(tmp_path / "o" / "frozen__seed0.json"))
        assert s["final_gap"] == s["initial_gap"]
        assert rows[0]["median_gap"] == s["initial_gap"]
        assert len(read_trace_csv(tmp_path / "o" / "frozen__seed0.csv")) == 1

    def test_summary_says_where_the_run_time_went(self, tmp_path):
        run_plan(tiny_plan(tmp_path / "o"))
        phases = ("data_s", "floor_s", "constants_s")
        for cell in ("orig", "drop"):
            s = json.load(open(tmp_path / "o" / f"{cell}__seed0.json"))
            assert 0 < s["train_s"] and 0 < s["score_s"] and 0 < s["csv_s"]
            assert sum(s[key] for key in ("train_s", "score_s", "csv_s", *phases)) \
                < s["wall_time"]
        # the set-up is timed once, on the group's first cell, whose wall_time has it
        first = json.load(open(tmp_path / "o" / "orig__seed0.json"))
        later = json.load(open(tmp_path / "o" / "drop__seed0.json"))
        assert first["data_s"] > 0 and first["floor_s"] > 0 and first["constants_s"] >= 0
        assert [later[key] for key in phases] == [0.0, 0.0, 0.0]

    def test_repeat_runs_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            run_plan(tiny_plan(tmp_path / d, seeds=(0, 1)))
        for name in ("orig__seed0.csv", "drop__seed1.csv", "aggregate.csv"):
            a = (tmp_path / "a" / name).read_bytes()
            b = (tmp_path / "b" / name).read_bytes()
            assert a == b, name

    def test_parallel_matches_serial(self, tmp_path):
        run_plan(tiny_plan(tmp_path / "ser", seeds=(0, 1)))
        run_plan(tiny_plan(tmp_path / "par", seeds=(0, 1)), jobs=2)
        for name in os.listdir(tmp_path / "ser"):
            if name.endswith(".csv"):
                assert (tmp_path / "ser" / name).read_bytes() == \
                       (tmp_path / "par" / name).read_bytes(), name

    def test_aggregate_matches_summaries(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", seeds=(0, 1, 2))
        rows, _ = run_plan(plan)
        gaps = {c: [] for c in ("orig", "drop")}
        for f in sorted(os.listdir(plan.outdir)):
            if f.endswith(".json"):
                s = json.load(open(os.path.join(plan.outdir, f)))
                gaps[s["cell"]].append(s["final_gap"])
        for row in rows:
            assert abs(row["median_gap"] - float(np.median(gaps[row["cell"]]))) <= 1e-12
            assert abs(row["mean_gap"] - float(np.mean(gaps[row["cell"]]))) <= 1e-12

    def test_divergence_recorded_not_fatal(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", cells=(
            Cell("boom", Original(eta=3e307, batch=8, epochs=2)),
            Cell("fine", Original(eta=0.3, batch=8, epochs=1)),
        ))
        rows, code = run_plan(plan)
        assert code == 1
        by = {r["cell"]: r for r in rows}
        assert by["boom"]["aborted"] == 1
        assert by["fine"]["aborted"] == 0
        assert json.load(open(tmp_path / "o" / "boom__seed0.json"))["aborted"]

    def test_unwritable_outdir_fails_before_runs(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        plan = tiny_plan(blocker / "sub")
        with pytest.raises(OSError):
            run_plan(plan)

    def test_heldout_eval_set(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", eval_n=50)
        rows, code = run_plan(plan)
        assert code == 0 and all(np.isfinite(r["median_gap"]) for r in rows)

    def test_constraint_floor_reference(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", constraint_floor=True)
        run_plan(plan)
        s = json.load(open(tmp_path / "o" / "drop__seed0.json"))
        assert s["ltilde_floor"] is not None
        rows = read_trace_csv(tmp_path / "o" / "drop__seed0.csv")
        last = rows[-1]
        assert abs(last.constraint - (last.L_tilde - s["ltilde_floor"])) < 1e-12

    def test_theory_mode_resolves_schedules(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", mode="theory", cells=(
            Cell("orig", Original(eta=0.3)),
            Cell("mix", MixLoss(lam=0.6, delta_y=0.2, m0=4, eta=0.3)),
        ))
        rows, code = run_plan(plan)
        assert code == 0
        s = json.load(open(tmp_path / "o" / "mix__seed0.json"))
        assert s["resolved"].get("m0", 0) >= 1 and s["resolved"]["eta"] > 0
        s2 = json.load(open(tmp_path / "o" / "orig__seed0.json"))
        assert s2["resolved"]["batch"] == 1

    def test_theory_summary_carries_constants(self, tmp_path):
        plan = tiny_plan(tmp_path / "o", mode="theory", cells=(Cell("orig", Original(eta=0.3)),))
        run_plan(plan)
        for seed in plan.seeds:
            c = json.load(open(tmp_path / "o" / f"orig__seed{seed}.json"))["constants"]
            assert np.isfinite(c["g_bound"]) and c["g_bound"] > 0
            assert c["mu"] <= c["l_smooth"]

    @pytest.mark.parametrize("task", [
        SyntheticTask(mode="label_bias", n=40, m=60, d=3, k=3, delta_y=0.2),
        SyntheticTask(mode="input_shift", n=40, m=60, d=3, k=3, delta_p=0.3),
    ], ids=["label", "shift"])
    def test_theory_summary_carries_each_bound_and_whether_it_held(self, tmp_path, task):
        cells = (Cell("orig", Original(eta=0.3)), Cell("aug", Augmented(eta=0.3)),
                 Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3)),
                 Cell("mix", MixLoss(lam=0.6, delta_y=0.2, m0=4, eta=0.3)))
        plan = dataclasses.replace(tiny_plan(tmp_path / "o", mode="theory", cells=cells),
                                   task=task)
        assert run_plan(plan)[1] == 0
        for cell in cells:
            s = json.load(open(tmp_path / "o" / f"{cell.name}__seed0.json"))
            lam = cell.scheme.lam if cell.scheme.name == "mixloss" else None
            expected = theory_stepsizes(ConstantEstimates(**s["constants"]),
                                        cell.scheme.name, task.n, lam).bounds
            assert s["bounds"] == expected and len(expected) == 1
            assert s["bounds_held"] == {k: s["train_gap"] <= v for k, v in expected.items()}
        form = "shift" if task.mode == "input_shift" else "label"
        assert set(json.load(open(tmp_path / "o" / "aug__seed0.json"))["bounds"]) == \
            {f"plateau_{form}"}

    def test_practical_summary_carries_no_bounds(self, tmp_path):
        run_plan(tiny_plan(tmp_path / "o"))
        for name in ("orig", "drop"):
            s = json.load(open(tmp_path / "o" / f"{name}__seed0.json"))
            assert s["bounds"] == {} and s["bounds_held"] == {} and s["resolved"] == {}
            assert s["train_gap"] is None

    def test_theory_bounds_are_held_on_the_training_gap(self, tmp_path, monkeypatch):
        """With eval_n > 0, final_gap is on the held-out set, while the bounds
        are on the training objective: train_gap is the final iterate's loss
        on the training originals less constants.l_floor, and bounds_held
        compares it with each bound, here also with a bound planted between
        Augmented's two gaps. Training does not depend on eval_n, so
        train_gap is the same at eval_n = 0, where the trace's L is the
        training loss itself."""
        cells = (Cell("aug", Augmented(eta=0.3)), Cell("orig", Original(eta=0.3)))

        def run(eval_n, name, code=0):
            assert run_plan(tiny_plan(tmp_path / name, mode="theory", eval_n=eval_n,
                                      cells=cells))[1] == code
            return {cell.name: json.load(open(tmp_path / name / f"{cell.name}__seed0.json"))
                    for cell in cells}

        train, held = run(0, "train"), run(50, "held")
        for cell in ("aug", "orig"):
            assert train[cell]["train_gap"] == \
                train[cell]["final_L"] - train[cell]["constants"]["l_floor"]
            assert held[cell]["train_gap"] == train[cell]["train_gap"]
            assert held[cell]["bounds_held"] == {k: held[cell]["train_gap"] <= v
                                                 for k, v in held[cell]["bounds"].items()}
        # Augmented trains on no original, so its trace is scored on the held-out set
        aug = held["aug"]
        assert abs(aug["train_gap"] - aug["final_gap"]) > 1e-3
        mid = (aug["train_gap"] + aug["final_gap"]) / 2
        theory_scheme = cli._theory_scheme
        monkeypatch.setattr(cli, "_theory_scheme",
                            lambda *args: (*theory_scheme(*args)[:3], {"mid": mid}))
        planted = run(50, "planted")["aug"]
        assert planted["bounds_held"] == {"mid": aug["train_gap"] <= mid}
        assert planted["bounds_held"] != {"mid": aug["final_gap"] <= mid}
        # a run that diverges has no final iterate, so at either eval_n no bound holds
        monkeypatch.setattr(cli, "_theory_scheme", lambda cell, *args: (
            Original(eta=1e300, batch=1), *theory_scheme(cell, *args)[1:]))
        for eval_n in (0, 50):
            for diverged in run(eval_n, f"diverged{eval_n}", code=1).values():
                assert diverged["aborted"] and math.isnan(diverged["train_gap"])
                assert diverged["bounds"] and not any(diverged["bounds_held"].values())


class TestReport:
    def test_report_reproduces_aggregate(self, tmp_path, capsys):
        plan = tiny_plan(tmp_path / "o", seeds=(0, 1))
        run_plan(plan)
        capsys.readouterr()  # the plan's progress lines
        before = (tmp_path / "o" / "aggregate.csv").read_bytes()
        assert report(str(tmp_path / "o")) == 0
        assert capsys.readouterr().err == ""  # not stale
        assert (tmp_path / "o" / "aggregate.csv").read_bytes() == before

    def test_aggregate_takes_gaps_in_seed_order(self):
        """The mean of 0.1, 0.2 and 0.3 depends on the order of the sum, so
        summaries in any order give the seed-ordered statistics."""
        runs = [{"cell": "c", "seed": seed, "final_gap": gap, "aborted": False}
                for seed, gap in ((2, 0.1), (9, 0.2), (10, 0.3))]
        rows = cli._aggregate_rows(runs, ["c"])
        assert rows[0]["mean_gap"] == np.mean([0.1, 0.2, 0.3]) != np.mean([0.3, 0.2, 0.1])
        assert cli._aggregate_rows(runs[::-1], ["c"]) == rows

    def test_report_sees_a_change_below_1e_12(self, tmp_path, capsys):
        run_plan(tiny_plan(tmp_path / "o", seeds=(0, 1)))
        agg = tmp_path / "o" / "aggregate.csv"
        before = agg.read_text()
        lines = before.splitlines()
        parts = lines[2].split(",")
        parts[2] = repr(float(parts[2]) + 5e-13)
        agg.write_text("\n".join([*lines[:2], ",".join(parts), *lines[3:]]) + "\n")
        capsys.readouterr()
        assert report(str(tmp_path / "o")) == 0
        assert "stale" in capsys.readouterr().err
        assert agg.read_text() == before

    def test_report_flags_stale_table(self, tmp_path, capsys):
        plan = tiny_plan(tmp_path / "o")
        run_plan(plan)
        agg = tmp_path / "o" / "aggregate.csv"
        lines = agg.read_text().splitlines()
        parts = lines[1].split(",")
        parts[2] = "123.0"
        agg.write_text("\n".join([lines[0], ",".join(parts)] + lines[2:]) + "\n")
        assert report(str(tmp_path / "o")) == 0
        assert "stale" in capsys.readouterr().err

    @pytest.mark.parametrize("table", ["cell,seeds\norig,one,two\n", "\xff\xfe\n"],
                             ids=["fields", "bytes"])
    def test_report_rewrites_a_table_that_does_not_parse(self, tmp_path, capsys, table):
        run_plan(tiny_plan(tmp_path / "o"))
        agg = tmp_path / "o" / "aggregate.csv"
        before = agg.read_text()
        agg.write_bytes(table.encode("latin-1"))
        capsys.readouterr()
        assert report(str(tmp_path / "o")) == 0
        assert "stale" in capsys.readouterr().err
        assert agg.read_text() == before

    def test_report_empty_dir(self, tmp_path):
        os.makedirs(tmp_path / "empty")
        assert report(str(tmp_path / "empty")) == 2

    def test_report_missing_dir(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert report(missing) == 2
        assert main(["report", missing]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"cannot read {missing}: No such file or directory"] * 2

    def test_report_skips_corrupt_and_foreign_json(self, tmp_path, capsys):
        plan = tiny_plan(tmp_path / "o", seeds=(0, 1))
        run_plan(plan)
        out = tmp_path / "o"
        before = (out / "aggregate.csv").read_text()
        (out / "broken.json").write_text('{"cell": "orig", "final_gap": ')
        (out / "foreign.json").write_text('{"name": "not a run summary"}')
        (out / "list.json").write_text("[1, 2, 3]")
        assert report(str(out)) == 1
        err = capsys.readouterr().err
        for name in ("broken.json", "foreign.json", "list.json"):
            assert f"skipping {name}" in err
        assert "stale" not in err
        assert (out / "aggregate.csv").read_text() == before

    def test_report_with_only_foreign_json(self, tmp_path, capsys):
        os.makedirs(tmp_path / "o")
        (tmp_path / "o" / "foreign.json").write_text("{}")
        assert report(str(tmp_path / "o")) == 2
        assert "skipping foreign.json" in capsys.readouterr().err


class TestMain:
    def test_validate_exit_codes(self, tmp_path, capsys):
        good = tiny_cfg(tmp_path)
        assert main(["validate", good]) == 0
        assert "ok:" in capsys.readouterr().out
        bad = write_cfg(tmp_path, "", name="bad.ini")
        assert main(["validate", bad]) == 2
        assert capsys.readouterr().err != ""

    def test_run_needs_exactly_one_source(self, tmp_path, capsys):
        assert main(["run"]) == 2
        cfg = tiny_cfg(tmp_path)
        assert main(["run", cfg, "--preset", "small-bias"]) == 2

    def test_run_with_seed_offset(self, tmp_path):
        out = tmp_path / "o"
        cfg = tiny_cfg(tmp_path, outdir=str(out))
        assert main(["run", cfg, "--seed-offset", "7"]) == 0
        assert (out / "orig__seed7.json").exists()
        assert (out / "orig__seed8.json").exists()

    def test_seed_offset_below_zero_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        cfg = tiny_cfg(tmp_path, outdir=str(out))
        assert main(["run", cfg, "--seed-offset", "-1"]) == 2
        assert "--seed-offset -1: [plan] seeds must be nonnegative, not -1" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ValueError, match="not -3"):
            dataclasses.replace(presets()["small-bias"], seeds=(0, -3))

    def test_run_invalid_config_exit_2(self, tmp_path, capsys):
        bad = write_cfg(tmp_path, "", name="empty.ini")
        assert main(["run", bad]) == 2

    def test_empty_outdir_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, "[plan]\npreset = table1-desk\nseeds = 0\noutdir =\n")
        assert main(["validate", cfg]) == 2
        assert main(["run", cfg]) == 2
        assert capsys.readouterr().err == "[plan] outdir must not be empty\n" * 2
        assert main(["run", tiny_cfg(tmp_path), "--outdir", ""]) == 2
        assert capsys.readouterr().err == "--outdir '': [plan] outdir must not be empty\n"
        assert sorted(os.listdir(tmp_path)) == ["plan.ini"]

    def test_unwritable_outdir_exit_2_before_runs(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        outdir = str(blocker / "sub")
        assert main(["run", tiny_cfg(tmp_path), "--outdir", outdir]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"outdir {outdir!r}: Not a directory\n"
        assert captured.out == "" and blocker.read_text() == "x"

    def test_outdir_override(self, tmp_path):
        cfg = tiny_cfg(tmp_path)
        target = tmp_path / "elsewhere"
        assert main(["run", cfg, "--outdir", str(target)]) == 0
        assert (target / "aggregate.csv").exists()


@pytest.mark.slow
class TestTable1Preset:
    def test_scheme_ordering_single_seed(self, tmp_path):
        plan = dataclasses.replace(presets()["table1-desk"],
                                   seeds=(0,), outdir=str(tmp_path / "t1"))
        rows, code = run_plan(plan)
        assert code == 0
        med = {r["cell"]: r["median_gap"] for r in rows}
        assert med["wemix"] <= med["augdrop"]
        assert med["mixloss"] <= med["augmented"]


def outputs(outdir) -> dict:
    """Every trace CSV's bytes and every summary without its wall times and
    its reused steps, which say how the outputs were computed, not what
    they are."""
    out = {}
    for name in sorted(os.listdir(outdir)):
        path = os.path.join(outdir, name)
        if name.endswith(".csv") and name != "aggregate.csv":
            out[name] = open(path, "rb").read()
        elif name.endswith(".json"):
            summary = json.load(open(path))
            for key in ("wall_time", "train_s", "score_s", "csv_s",
                        "data_s", "floor_s", "constants_s", "reused_steps"):
                summary.pop(key)
            out[name] = summary
    return out


class TestSharedSetup:
    """A (task, seed)'s data, floors and constants are computed once per plan
    and shared by every cell on it, without changing any output."""

    @pytest.mark.parametrize("mode,eval_n,constraint_floor", [
        ("practical", 0, False),
        ("practical", 50, True),
        ("theory", 0, False),
        ("theory", 50, True),
    ])
    def test_shared_plan_matches_one_plan_per_cell(self, tmp_path, mode, eval_n,
                                                   constraint_floor):
        cells = (
            Cell("orig", Original(eta=0.3, batch=8, epochs=2)),
            Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
            Cell("aug", Augmented(eta=0.3, batch=8, epochs=1)),
        )
        kw = dict(seeds=(0, 1), mode=mode, eval_n=eval_n, constraint_floor=constraint_floor)
        run_plan(tiny_plan(tmp_path / "shared", cells=cells, **kw))
        shared = outputs(tmp_path / "shared")
        alone = {}
        for cell in cells:
            run_plan(tiny_plan(tmp_path / cell.name, cells=(cell,), **kw))
            alone.update(outputs(tmp_path / cell.name))
        assert len(shared) == 2 * len(cells) * len(kw["seeds"])
        assert shared == alone

    def test_groups_that_share_a_floor_match_one_plan_per_group(self, tmp_path, monkeypatch):
        """Three task_delta_y groups, with the constraint floor, give the
        trace bytes and summaries (floor, ltilde_floor and final_gap
        included) of each group run as a plan of its own. delta_y moves
        only the augmented labels, so the gap floor is solved once: four
        floor solves, not six. The host is said to have four CPUs, so the
        plan process forks the first two groups' chains, which inherit the
        floor it solved, and runs the last."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        chain_process, log = cli._chain_process, tmp_path / "chains.log"

        def logged_chain_process(*args):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            chain_process(*args)

        monkeypatch.setattr(cli, "_chain_process", logged_chain_process)
        floors, solve = [], cli.best_found_floor

        def counted(*args, **kwargs):
            floors.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(cli, "best_found_floor", counted)
        task = SyntheticTask(mode="label_bias", n=200, m=300, d=3, k=3, delta_y=0.2)
        cells = tuple(Cell(f"aug-{i}", Augmented(eta=0.3, batch=4, epochs=2), task_delta_y=dy)
                      for i, dy in enumerate((0.1, 0.2, 0.4)))

        def plan(outdir, cells):
            return ExperimentPlan(task=task, cells=cells, seeds=(3,), outdir=str(outdir),
                                  constraint_floor=True)

        _, code = run_plan(plan(tmp_path / "shared", cells))
        assert code == 0 and len(floors) == 4
        assert len(set(log.read_text().split())) == 2  # two chain processes
        shared, alone = outputs(tmp_path / "shared"), {}
        for cell in cells:
            run_plan(plan(tmp_path / cell.name, (cell,)))
            alone.update(outputs(tmp_path / cell.name))
        assert len(floors) == 4 + 2 * len(cells)
        assert len(shared) == 2 * len(cells) and shared == alone
        summaries = [v for k, v in shared.items() if k.endswith(".json")]
        assert all(s["iterations"] == 150 and s["ltilde_floor"] is not None for s in summaries)
        assert len({s["floor"] for s in summaries}) == 1
        assert len({s["ltilde_floor"] for s in summaries}) == 3

    # Cells whose first stages repeat an earlier cell's. Theory mode resolves
    # Augmented's batch apart from AugDrop's m1 and runs no wemix cell, so
    # there the repeat is a second augdrop cell.
    SHARING = {
        "practical": (
            Cell("aug", Augmented(eta=0.3, batch=6, epochs=1)),
            Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
            Cell("mix", MixLoss(lam=0.6, delta_y=0.2, m0=3, eta=0.3, epochs=1)),
            Cell("wemix", WeMix(lam=0.6, delta_y=0.2, t1=8, t2=8, m0=3, eta1=0.3, eta2=0.3)),
        ),
        "theory": (
            Cell("aug", Augmented(eta=0.3)),
            Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
            Cell("drop-again", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
            Cell("mix", MixLoss(lam=0.6, delta_y=0.2, m0=3, eta=0.3)),
        ),
    }

    @staticmethod
    def _reused(outdir) -> dict:
        return {name: json.load(open(os.path.join(outdir, name)))["reused_steps"]
                for name in sorted(os.listdir(outdir)) if name.endswith(".json")}

    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_cells_that_share_a_first_stage_match_their_runs_alone(self, tmp_path, mode):
        cells = self.SHARING[mode]
        run_plan(tiny_plan(tmp_path / "shared", cells=cells, seeds=(0, 1), mode=mode))
        shared = outputs(tmp_path / "shared")
        alone = {}
        for cell in cells:
            run_plan(tiny_plan(tmp_path / cell.name, cells=(cell,), seeds=(0, 1), mode=mode))
            alone.update(outputs(tmp_path / cell.name))
            assert set(self._reused(tmp_path / cell.name).values()) == {0}
        assert len(shared) == 2 * len(cells) * 2
        assert shared == alone
        reused = self._reused(tmp_path / "shared")
        continued = ("drop", "wemix") if mode == "practical" else ("drop-again",)
        for name, steps in reused.items():
            assert (steps > 0) == (name.split("__")[0] in continued), name

    def test_workers_continue_first_stages_as_one_process_does(self, tmp_path):
        """Each worker runs whole (task, seed) groups, so the cells that
        continue a first stage on one process continue it on two."""
        for jobs in (1, 2):
            run_plan(tiny_plan(tmp_path / str(jobs), cells=self.SHARING["practical"],
                               seeds=(0, 1)), jobs=jobs)
        assert outputs(tmp_path / "1") == outputs(tmp_path / "2")
        reused = self._reused(tmp_path / "1")
        assert self._reused(tmp_path / "2") == reused
        assert [name for name, steps in reused.items() if steps] == [
            "drop__seed0.json", "drop__seed1.json", "wemix__seed0.json", "wemix__seed1.json"]

    def test_a_plan_starts_no_more_workers_than_it_has_groups(self, tmp_path, monkeypatch):
        started = []

        class Pool(cli.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                started.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Pool)
        # two seeds of one task: two groups
        _, code = run_plan(tiny_plan(tmp_path / "o", seeds=(0, 1)), jobs=5)
        assert code == 0
        assert started == [2]
        # one seed: one group, which runs in the plan process with no pool
        _, code = run_plan(tiny_plan(tmp_path / "one"), jobs=5)
        assert code == 0
        assert started == [2]
        assert sorted(os.listdir(tmp_path / "one")) == [
            "aggregate.csv", "drop__seed0.csv", "drop__seed0.json",
            "orig__seed0.csv", "orig__seed0.json"]

    def test_a_shorter_first_stage_does_not_serve_a_longer_one(self, tmp_path):
        cells = self.SHARING["practical"][:2][::-1]  # augdrop before augmented
        run_plan(tiny_plan(tmp_path / "shared", cells=cells, seeds=(0, 1)))
        alone = {}
        for cell in cells:
            run_plan(tiny_plan(tmp_path / cell.name, cells=(cell,), seeds=(0, 1)))
            alone.update(outputs(tmp_path / cell.name))
        assert outputs(tmp_path / "shared") == alone
        assert set(self._reused(tmp_path / "shared").values()) == {0}

    def test_each_finished_pair_prints_one_progress_line(self, tmp_path, capsys):
        _, code = run_plan(tiny_plan(tmp_path / "o", cells=self.SHARING["practical"][:2],
                                     seeds=(0, 1)))
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert [ln.split(":")[0] for ln in lines] == [
            "aug seed 0", "drop seed 0", "aug seed 1", "drop seed 1"]
        s = json.load(open(tmp_path / "o" / "drop__seed1.json"))
        assert lines[-1].startswith(
            f"drop seed 1: final gap {s['final_gap']:.6g}, 16 steps (8 reused), ")
        assert lines[-1].endswith(" s")

    def test_setup_runs_once_per_task_and_seed(self, tmp_path, monkeypatch):
        calls = {"gen_synthetic": 0, "best_found_floor": 0, "estimate_constants": 0}
        for name in calls:
            def counted(*args, _fn=getattr(cli, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, counted)
        cells = (
            Cell("orig", Original(eta=0.3)),
            Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
            Cell("aug", Augmented(eta=0.3)),
            Cell("aug-dy01", Augmented(eta=0.3), task_delta_y=0.1),
        )
        _, code = run_plan(tiny_plan(tmp_path / "o", cells=cells, seeds=(0, 1),
                                     mode="theory"))
        assert code == 0
        # two tasks (the plan's and the delta_y override) times two seeds; the
        # floor is solved on the originals, which delta_y leaves alone, so
        # once per seed
        assert calls == {"gen_synthetic": 4, "best_found_floor": 2, "estimate_constants": 4}


    def test_theory_setup_runs_no_scheme(self, monkeypatch):
        """The theory-mode probe takes its iterates from train, so a set-up
        scores no trace record."""
        calls, run_scheme = [], cli.run_scheme

        def counted(*args, **kwargs):
            calls.append(1)
            return run_scheme(*args, **kwargs)

        monkeypatch.setattr(cli, "run_scheme", counted)
        task = SyntheticTask(mode="label_bias", n=40, m=60, d=3, k=3, delta_y=0.2)
        setup = cli._build_setup(task, 0, 0, False, "theory", {})
        assert setup.consts is not None and calls == []

    def test_previous_setup_is_dropped_before_the_next(self, tmp_path, monkeypatch):
        """Two set-ups are never alive at once: the cached one is released
        before the data of the next (task, seed) is generated."""
        real = cli.gen_synthetic
        previous, alive = [], []

        def gen_synthetic(task, rng):
            alive.extend(ref() is not None for ref in previous)
            orig, aug, planted = real(task, rng)
            previous[:] = [weakref.ref(orig), weakref.ref(aug)]
            return orig, aug, planted

        monkeypatch.setattr(cli, "gen_synthetic", gen_synthetic)
        cells = tiny_plan(tmp_path).cells + (
            Cell("orig-dy01", Original(eta=0.3, batch=8), task_delta_y=0.1),)
        _, code = run_plan(tiny_plan(tmp_path / "o", cells=cells, seeds=(0, 1)))
        assert code == 0
        # four keys: two tasks times two seeds
        assert alive == [False] * 6


class TestScheduleFlags:
    @pytest.mark.parametrize("mode", ["practical", "theory"])
    def test_a_run_that_ends_above_its_initial_gap_says_so(self, tmp_path, capsys,
                                                           monkeypatch, mode):
        """At eta 20, Original ends above the gap it started at: its summary
        warns and its progress line says so. At eta 0.3 it ends below and
        neither does. In theory mode each cell runs its own scheme here, in
        place of the resolved one."""
        monkeypatch.setattr(cli, "_theory_scheme",
                            lambda cell, consts, n_orig, n_aug: (cell.scheme, {}, [], {}))
        plan = tiny_plan(tmp_path / "o", cells=(
            Cell("big", Original(eta=20.0, batch=8, epochs=2)),
            Cell("small", Original(eta=0.3, batch=8, epochs=2)),
        ), mode=mode)
        _, code = run_plan(plan)
        assert code == 0
        big, small = (json.load(open(tmp_path / "o" / f"{name}__seed0.json"))
                      for name in ("big", "small"))
        assert not big["aborted"] and big["final_gap"] > 10 * big["initial_gap"]
        warning = (f"ended above its initial gap "
                   f"({big['final_gap']:.6g} > {big['initial_gap']:.6g})")
        assert big["warnings"] == [warning]
        assert small["final_gap"] < small["initial_gap"] and small["warnings"] == []
        lines = capsys.readouterr().err.splitlines()
        assert [line.endswith(f"; {warning}") for line in lines] == [True, False]

    def test_theory_summary_flags_departures_from_the_schedule(self, tmp_path):
        task = SyntheticTask(mode="label_bias", n=40, m=400, d=3, k=3, delta_y=0.4)
        plan = ExperimentPlan(task=task, cells=(
            Cell("aug", Augmented(eta=0.3)),
            Cell("aug-dy01", Augmented(eta=0.3), task_delta_y=0.1),
        ), seeds=(0,), outdir=str(tmp_path / "o"), mode="theory")
        _, code = run_plan(plan)
        assert code == 0
        s = json.load(open(tmp_path / "o" / "aug__seed0.json"))
        resolved = s["resolved"]
        # 8 / 0.4**2 = 50 per batch: 8 steps per pass, more than the resolved iters
        assert resolved["m0"] == 50 and s["iterations"] == 400 // 50 != resolved["iters"]
        assert (f"runs {s['iterations']} steps where the resolved iters is "
                f"{resolved['iters']}") in s["warnings"]
        assert not any("batch" in w for w in s["warnings"])
        s = json.load(open(tmp_path / "o" / "aug-dy01__seed0.json"))
        # 8 / 0.1**2 = 800 per batch, capped at the 400 augmented examples
        assert s["resolved"]["m0"] == 800
        assert "runs batch 400 where the resolved m0 is 800" in s["warnings"]


class TestFailureIsolation:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_run_gets_failed_summary(self, tmp_path, monkeypatch, capsys, jobs):
        real = cli.run_scheme

        def run_scheme(model, orig, aug, cfg, **kwargs):
            if cfg.scheme.name == "augdrop":
                raise RuntimeError("boom")
            return real(model, orig, aug, cfg, **kwargs)

        monkeypatch.setattr(cli, "run_scheme", run_scheme)
        out = tmp_path / "o"
        rows, code = run_plan(tiny_plan(out, seeds=(0, 1)), jobs=jobs)
        assert code == 1
        by = {r["cell"]: r for r in rows}
        assert by["drop"]["aborted"] == 2 and np.isnan(by["drop"]["median_gap"])
        assert by["orig"]["aborted"] == 0 and np.isfinite(by["orig"]["median_gap"])
        assert (out / "aggregate.csv").exists()
        for seed in (0, 1):
            s = json.load(open(out / f"drop__seed{seed}.json"))
            assert s["error"] == "RuntimeError: boom"
            assert s["aborted"] is True and math.isnan(s["final_gap"])
            assert "error" not in json.load(open(out / f"orig__seed{seed}.json"))
            assert (out / f"orig__seed{seed}.csv").exists()
        err = capsys.readouterr().err
        # this process prints one progress line per pair, whatever the job count
        for seed in (0, 1):
            assert f"drop seed {seed}: failed (RuntimeError: boom), " in err
        if jobs == 1:  # worker processes write to their own stderr
            assert "RuntimeError: boom" in err
            assert "drop seed 0 failed:\nTraceback" in err
        assert report(str(out)) == 1
        err = capsys.readouterr().err
        assert "skipping" not in err and "stale" not in err

    def test_failing_setup_fails_only_its_pairs(self, tmp_path, monkeypatch):
        real = cli.gen_synthetic

        def gen_synthetic(task, rng):
            if rng.seed == 1:
                raise ValueError("no data")
            return real(task, rng)

        monkeypatch.setattr(cli, "gen_synthetic", gen_synthetic)
        out = tmp_path / "o"
        rows, code = run_plan(tiny_plan(out, seeds=(0, 1)))
        assert code == 1
        assert all(r["aborted"] == 1 and r["seeds"] == 2 for r in rows)
        for cell in ("orig", "drop"):
            assert "error" not in json.load(open(out / f"{cell}__seed0.json"))
            s = json.load(open(out / f"{cell}__seed1.json"))
            assert s["error"] == "ValueError: no data" and s["aborted"] is True

    def test_failing_setup_is_computed_once(self, tmp_path, monkeypatch):
        """A set-up that raises raises again for the other cells on its
        (task, seed) without being computed again."""
        real = cli.train
        probes = []

        def train(w0, orig, aug, cfg):
            probes.append(cfg.scheme.name)
            return real(w0, orig, aug, cfg)

        def estimate_constants(*args, **kwargs):
            raise DegenerateEstimateError("flat probe")

        monkeypatch.setattr(cli, "train", train)
        monkeypatch.setattr(cli, "estimate_constants", estimate_constants)
        cells = tiny_plan(tmp_path).cells + (Cell("aug", Augmented(eta=0.3)),)
        out = tmp_path / "o"
        rows, code = run_plan(tiny_plan(out, cells=cells, mode="theory"))
        assert code == 1
        assert probes == ["original"]  # the set-up's 60-step probe, once
        for cell in ("orig", "drop", "aug"):
            s = json.load(open(out / f"{cell}__seed0.json"))
            assert s["error"] == "DegenerateEstimateError: flat probe"


class TestAllocator:
    def test_repeated_plan_takes_no_new_page_faults(self, tmp_path):
        """Freed temporaries stay in the process: a plan that has run once
        runs again without faulting its working memory back in."""
        resource = pytest.importorskip("resource")
        if not cli._keep_freed_memory():
            pytest.skip("the C library has no mallopt")
        task = SyntheticTask(mode="label_bias", n=2000, m=4000, d=10, k=5, delta_y=0.2)
        plan = ExperimentPlan(task=task, seeds=(0,), outdir=str(tmp_path / "o"), cells=(
            Cell("aug", Augmented(eta=1.0, batch=4000, epochs=100)),))
        run_plan(plan)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _, code = run_plan(plan)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert code == 0
        assert faults < 100


class TestChainProcesses:
    def test_worker_plan_after_a_serial_plan_in_one_process(self, tmp_path):
        """A --jobs 2 plan that follows a jobs=1 plan in the same process
        finishes, with the same aggregate.csv. On Linux the --jobs workers
        fork from that process, so they would inherit any chain process the
        first plan left behind. The process is told it has four CPUs, so the
        first plan forks the first seed's long chain, and each --jobs worker
        may fork; it runs in a child with a timeout, so a hang fails the
        test instead of stopping the suite."""
        long_cell = "\n[cell.long]\nscheme = original\neta = 0.3\nbatch = 4\nepochs = 20\n"
        ini = tiny_cfg(tmp_path, extra=long_cell)
        serial, workers = tmp_path / "serial", tmp_path / "workers"
        script = textwrap.dedent(f"""
            import os, sys
            os.sched_getaffinity = lambda pid: set(range(4))
            from augbias.cli import main
            codes = [main(["run", {ini!r}, "--outdir", {str(serial)!r}]),
                     main(["run", {ini!r}, "--outdir", {str(workers)!r}, "--jobs", "2"])]
            sys.exit(max(codes))
        """)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        # a session of its own, so a hang can be ended with its workers
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the --jobs 2 plan did not finish within 120 s")
        assert proc.returncode == 0, err
        assert (serial / "aggregate.csv").read_bytes() == \
            (workers / "aggregate.csv").read_bytes()
        assert len(read_trace_csv(workers / "long__seed1.csv")) == 201

    def test_a_plan_in_a_daemonic_pool_worker_forks_no_chain_process(self, tmp_path):
        """A multiprocessing.Pool worker is daemonic and may not start
        processes, so a plan run there forks no chain process and still
        finishes, with the bytes of a plan run in the main process. The
        process is told it has four CPUs, so the main process's plan forks
        the first seed's long chain; it runs in a child with a timeout, so a
        hang fails the test."""
        long_cell = "\n[cell.long]\nscheme = original\neta = 0.3\nbatch = 4\nepochs = 20\n"
        ini = tiny_cfg(tmp_path, extra=long_cell)
        main_dir, pool_dir = tmp_path / "main", tmp_path / "pool"
        script = textwrap.dedent(f"""
            import multiprocessing, os, sys
            os.sched_getaffinity = lambda pid: set(range(4))
            from augbias.cli import main

            if __name__ == "__main__":
                with multiprocessing.get_context("fork").Pool(1) as pool:
                    codes = [main(["run", {ini!r}, "--outdir", {str(main_dir)!r}]),
                             pool.apply(main, (["run", {ini!r}, "--outdir", {str(pool_dir)!r}],))]
                sys.exit(max(codes))
        """)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        script_path = tmp_path / "pool_plan.py"
        script_path.write_text(script)
        proc = subprocess.Popen([sys.executable, str(script_path)], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the plans did not finish within 120 s")
        assert proc.returncode == 0, err
        for name in ("long__seed1.csv", "aggregate.csv"):
            assert (main_dir / name).read_bytes() == (pool_dir / name).read_bytes()

    def test_augdrop_and_wemix_run_in_the_chain_of_their_first_stage(self):
        """AugDrop's first stage is Augmented's and WeMix's is MixLoss's, so
        each joins that cell's chain; Original runs alone. Chains go by the
        scheme each cell runs, which theory mode resolves, and the cells
        whose runs did not resolve make one chain."""
        plan = presets()["table1-desk"]
        runs = {cell.name: cli._Run(cell.scheme, {}, [], {}, 0) for cell in plan.cells}

        def chains():
            return [[cell.name for cell in chain] for chain in cli._chains(plan.cells, runs)]

        assert chains() == [["original"], ["augmented", "augdrop"], ["mixloss", "wemix"]]
        runs["augdrop"] = runs["original"]
        runs["mixloss"] = runs["wemix"] = ValueError("no schedule")
        assert chains() == [["original", "augdrop"], ["augmented"], ["mixloss", "wemix"]]

    @pytest.mark.parametrize("cpus, processes, share", [
        (1, 1, 1), (2, 1, 2), (2, 2, 1), (2, 3, 1), (8, 3, 2)])
    def test_cpu_share_divides_the_cpus_among_the_plan_processes(self, monkeypatch, cpus,
                                                                 processes, share):
        """Each plan process may use the CPUs it may run on over the plan
        processes, rounded down, and at least one."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        assert cli._cpu_share(processes) == share

    @pytest.mark.parametrize("steps", [CHUNK - 1, CHUNK])
    def test_only_a_chain_of_at_least_CHUNK_steps_is_forked(self, tmp_path, monkeypatch,
                                                             steps):
        """Two seeds of one Original cell, one step per original, on a host
        said to have two CPUs: a chain of CHUNK - 1 steps runs in the plan
        process, and one of CHUNK steps is forked for the first seed, while
        the plan process runs the last seed's itself. Either way both runs
        finish with the outputs of a plan that forks nothing."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        chain_process, log = cli._chain_process, tmp_path / "chains.log"

        def logged_chain_process(*args):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            chain_process(*args)

        monkeypatch.setattr(cli, "_chain_process", logged_chain_process)
        task = SyntheticTask(mode="label_bias", n=steps, m=300, d=3, k=3, delta_y=0.2)
        plan = ExperimentPlan(task=task, cells=(Cell("orig", Original(eta=0.3, batch=1,
                                                                      epochs=1)),),
                              seeds=(0, 1), outdir=str(tmp_path / "plan"))
        assert run_plan(plan)[1] == 0
        assert len(log.read_text().split() if log.exists() else []) == int(steps >= CHUNK)
        monkeypatch.setattr(cli, "_cpu_share", lambda processes: 1)
        assert run_plan(dataclasses.replace(plan, outdir=str(tmp_path / "one")))[1] == 0
        forked, one = outputs(tmp_path / "plan"), outputs(tmp_path / "one")
        assert len(forked) == 4 and forked == one
        assert len(read_trace_csv(tmp_path / "plan" / "orig__seed0.csv")) == steps + 1

    def test_at_most_cpus_less_one_chain_processes_are_alive(self, tmp_path, monkeypatch):
        """Six seeds of one cell, whose chain of 150 steps trains slowly in a
        chain process (each step sleeps), on a host said to have three CPUs.
        The plan process forks a chain only while fewer than two chain
        processes are alive, and runs it itself otherwise, so at no time do
        more than two train; each logs when it started and ended. The outputs
        are those of a plan that forks none."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        plan_pid, step = os.getpid(), trainers.sgd_step

        def slow_step(w, grad, eta):
            if os.getpid() != plan_pid:
                time.sleep(0.002)
            return step(w, grad, eta)

        monkeypatch.setattr(trainers, "sgd_step", slow_step)
        chain_process, log = cli._chain_process, tmp_path / "chains.log"

        def logged_chain_process(*args):
            start = time.monotonic()
            chain_process(*args)
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{start!r} {time.monotonic()!r}\n")

        monkeypatch.setattr(cli, "_chain_process", logged_chain_process)
        task = SyntheticTask(mode="label_bias", n=200, m=300, d=3, k=3, delta_y=0.2)
        plan = ExperimentPlan(task=task, cells=(Cell("orig", Original(eta=0.3, batch=4,
                                                                      epochs=3)),),
                              seeds=tuple(range(6)), outdir=str(tmp_path / "capped"))
        assert run_plan(plan)[1] == 0
        spans = [tuple(map(float, line.split())) for line in log.read_text().splitlines()]
        assert len(spans) >= 2
        assert max(sum(start <= t < end for start, end in spans) for t, _ in spans) <= 2
        monkeypatch.setattr(cli, "_cpu_share", lambda processes: 1)
        assert run_plan(dataclasses.replace(plan, outdir=str(tmp_path / "one")))[1] == 0
        capped, one = outputs(tmp_path / "capped"), outputs(tmp_path / "one")
        assert len(capped) == 2 * 6 and capped == one

    def test_chain_processes_give_the_outputs_of_one_process(self, tmp_path, monkeypatch):
        """Two seeds of five cells in three chains of at least CHUNK steps,
        on a host said to have eight CPUs, so that no cap on the live chain
        processes is reached: the plan process forks five chain processes
        and runs the last chain itself. Every trace CSV and summary
        (final_gap, floor and reused_steps included) is that of the plan with
        its CPU share set to 1, which forks none."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        chain_process, log = cli._chain_process, tmp_path / "chains.log"

        def logged_chain_process(*args):
            with open(log, "a", encoding="ascii") as fh:
                fh.write(f"{os.getpid()}\n")
            chain_process(*args)

        monkeypatch.setattr(cli, "_chain_process", logged_chain_process)
        task = SyntheticTask(mode="label_bias", n=200, m=300, d=3, k=3, delta_y=0.2)
        cells = (
            Cell("orig", Original(eta=0.3, batch=4, epochs=3)),
            Cell("aug", Augmented(eta=0.3, batch=4, epochs=2)),
            Cell("drop", AugDrop(t1=100, m1=4, m2=4, eta1=0.3, eta2=0.3, t2=50)),
            Cell("mix", MixLoss(lam=0.6, delta_y=0.2, m0=3, eta=0.3)),
            Cell("wemix", WeMix(lam=0.6, delta_y=0.2, t1=100, t2=50, m0=3, eta1=0.3, eta2=0.3)),
        )
        plan = ExperimentPlan(task=task, cells=cells, seeds=(0, 1), outdir=str(tmp_path / "forked"))
        assert run_plan(plan)[1] == 0
        assert len(set(log.read_text().split())) == 5
        monkeypatch.setattr(cli, "_cpu_share", lambda processes: 1)
        assert run_plan(dataclasses.replace(plan, outdir=str(tmp_path / "one")))[1] == 0
        assert len(log.read_text().split()) == 5
        forked, one = outputs(tmp_path / "forked"), outputs(tmp_path / "one")
        assert len(forked) == 2 * 2 * len(cells) and forked == one
        reused = TestSharedSetup._reused(tmp_path / "forked")
        assert reused == TestSharedSetup._reused(tmp_path / "one")
        assert {name for name, steps in reused.items() if steps} == {
            f"{cell}__seed{seed}.json" for cell in ("drop", "wemix") for seed in (0, 1)}
        assert (tmp_path / "forked" / "aggregate.csv").read_bytes() == \
            (tmp_path / "one" / "aggregate.csv").read_bytes()
