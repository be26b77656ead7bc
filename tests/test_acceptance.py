"""End-to-end acceptance battery.

One test per numbered criterion; each records a PASS/FAIL line that the
terminal summary prints after the run (see conftest.record_verdict). The
empirical studies reuse the shipped presets so the CLI and this battery
cannot drift apart. Tuning constants inside the presets were frozen from
5-seed calibration runs; the asserted margins held on every seed.
"""
import dataclasses
import json
import os

import numpy as np
import pytest

from conftest import record_verdict
from augbias.core import LabeledSet, Rng
from augbias.models import estimate_G, forward
from augbias.losses import combined_grad
from augbias.augment import (
    SyntheticTask,
    estimate_delta_P,
    estimate_delta_y,
    gen_synthetic,
)
from augbias.trainers import (
    AugDrop,
    MixLoss,
    TrainConfig,
    TrainTrace,
    WeMix,
    read_trace_csv,
    run_scheme,
    train,
    write_trace_csv,
)
from augbias.theory import (
    CeObjective,
    best_found_floor,
    bias_radius,
    estimate_mu,
    estimate_L_smooth,
    in_constraint_set,
)
from augbias.cli import presets, run_plan
from reference import (
    ball_min_oracle,
    ce_grad,
    ce_loss,
    clean_labels,
    fd_grad,
    grad_a,
    loss_a,
    p_from_scores,
)


# --- helpers -----------------------------------------------------------------


def rel_err(analytic, numeric):
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12))


def run_preset(name, tmp_path_factory):
    plan = dataclasses.replace(
        presets()[name], outdir=str(tmp_path_factory.mktemp(name)))
    rows, code = run_plan(plan)
    assert code == 0, f"preset {name} had aborted runs"
    return plan, {r["cell"]: r["median_gap"] for r in rows}


def load_summaries(outdir):
    out = []
    for f in sorted(os.listdir(outdir)):
        if f.endswith(".json"):
            with open(os.path.join(outdir, f), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


# --- criterion 1: closed-form corrected loss vs brute force -------------------


def test_corrected_loss_matches_ball_oracle():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 11))
        y = rng.dirichlet(np.ones(k))
        scores = 2.0 * rng.standard_normal(k)
        delta = float(rng.uniform(0.0, 0.6))
        closed = loss_a(y, scores, delta).value
        brute = ball_min_oracle(y, p_from_scores(scores), delta)
        worst = max(worst, abs(closed - brute))
    record_verdict(1, "corrected-loss closed form matches ball-constrained oracle",
                   worst <= 1e-4, f"max abs diff {worst:.2e} over 100 instances")


# --- criterion 2: analytic gradients vs central differences -------------------


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(307)
    worst = 0.0
    for _ in range(100):
        w = 0.7 * rng.standard_normal(4 * 5)
        x = rng.standard_normal(5)
        y = rng.dirichlet(np.ones(4))
        delta = float(rng.uniform(0.05, 0.5))
        lam = float(rng.uniform(0.1, 0.9))
        xa = rng.standard_normal((3, 5))
        ya = rng.dirichlet(np.ones(4), size=3)

        worst = max(worst, rel_err(
            ce_grad(w, x, y).grad,
            fd_grad(lambda wv: ce_loss(y, forward(wv, x)), w)))
        worst = max(worst, rel_err(
            grad_a(w, x, y, delta).grad,
            fd_grad(lambda wv: loss_a(y, forward(wv, x), delta).value, w)))

        def mixed_val(wv):
            ce = ce_loss(y, forward(wv, x))
            corr = np.mean([loss_a(ya[i], forward(wv, xa[i]), delta).value
                            for i in range(3)])
            return lam * ce + (1.0 - lam) * corr

        worst = max(worst, rel_err(
            combined_grad(w, (x[None], y[None]), (xa, ya), lam, delta),
            fd_grad(mixed_val, w)))
    record_verdict(2, "ce/corrected/combined gradients match central differences",
                   worst <= 1e-6, f"max rel err {worst:.2e}")


# --- criteria 3-5, 10: preset studies -----------------------------------------


@pytest.fixture(scope="module")
def plateau_medians(tmp_path_factory):
    return run_preset("lemma2-plateau", tmp_path_factory)[1]


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    plan, med = run_preset("table1-desk", tmp_path_factory)
    init = [s["initial_gap"] for s in load_summaries(plan.outdir)
            if s["cell"] == "original"]
    return med, float(np.median(init))


def test_plateau_scales_with_label_bias(plateau_medians):
    g1 = plateau_medians["aug-delta_y01"]
    g2 = plateau_medians["aug-delta_y02"]
    g4 = plateau_medians["aug-delta_y04"]
    r21, r42 = g2 / g1, g4 / g2
    ok = g1 < g2 < g4 and 2.0 <= r21 <= 8.0 and 2.0 <= r42 <= 8.0
    record_verdict(3, "augmented-only plateau grows quadratically in delta_y",
                   ok, f"medians {g1:.4f}/{g2:.4f}/{g4:.4f}, doubling ratios "
                       f"{r21:.2f}, {r42:.2f} in [2, 8]")


def test_corrected_schemes_beat_plain_augmentation(table1):
    med, init_gap = table1
    ok_drop = med["augdrop"] <= 0.5 * med["augmented"]
    ok_mix = med["mixloss"] <= 0.5 * med["augmented"]
    ok_we = med["wemix"] <= min(med["augdrop"], med["mixloss"]) + 0.1 * init_gap
    record_verdict(
        4, "two-stage and mixed schemes beat plain augmentation at delta_y=0.4",
        ok_drop and ok_mix and ok_we,
        f"medians augdrop {med['augdrop']:.3g}, mixloss {med['mixloss']:.3g}, "
        f"wemix {med['wemix']:.3g} vs augmented {med['augmented']:.3g}")


def test_augmentation_helps_when_bias_is_small(tmp_path_factory):
    _, med = run_preset("small-bias", tmp_path_factory)
    ok = med["augmented"] <= med["original"]
    # run_scheme scores L over the set a scheme trains on, so only
    # Augmented's L is on the held-out set; the line says so
    record_verdict(5, "augmented training wins at delta_y=0.01 with m = 20n",
                   ok, f"median gap {med['augmented']:.2e} (augmented, L on the held-out "
                       f"set) vs {med['original']:.2e} (original, L on its training set), "
                       f"both less the held-out floor")


def test_plateau_scales_with_input_shift(tmp_path_factory):
    _, med = run_preset("label-preserving", tmp_path_factory)
    ok_mono = med["aug-delta_p005"] < med["aug-delta_p02"]
    ok_drop = med["augdrop-p02"] <= med["aug-delta_p02"]
    record_verdict(
        10, "input-shift plateau monotone in delta_P; augdrop closes it",
        ok_mono and ok_drop,
        f"plateaus {med['aug-delta_p005']:.2e} < {med['aug-delta_p02']:.2e}, "
        f"augdrop {med['augdrop-p02']:.2e}")


# --- criteria 6-7: constraint membership and restricted curvature --------------


CANON = SyntheticTask(mode="label_bias", n=2000, m=4000, d=10, k=5, delta_y=0.4)
STRIDE = 20


@pytest.fixture(scope="module")
def membership_runs():
    """Five instrumented two-stage runs on the canonical biased task.

    Per seed: stage-subsampled iterate clouds (stage-2 and their union,
    nested so the min-based mu estimate is monotone by construction),
    best-found floors for both objectives, and the estimated constants
    feeding the constraint radius.
    """
    size = CANON.k * CANON.d
    out = []
    for seed in range(5):
        orig, aug, planted = gen_synthetic(CANON, Rng(seed, 0))
        cfg = TrainConfig(
            scheme=AugDrop(t1=1000, m1=64, m2=64, eta1=0.5, eta2=0.5, t2=1000),
            seed=seed)
        w0 = np.zeros(size)
        steps = list(train(w0, orig, aug, cfg))
        assert len(steps) == 2000

        # the start iterate counts as stage 1, as its trace record does
        stage2_all = [w for _, tag, w in steps if tag == 2]
        s1 = [w0, *(w for _, tag, w in steps if tag == 1)][::STRIDE]
        s2 = stage2_all[::STRIDE]
        union = s1 + s2

        orig_obj = CeObjective(orig)
        aug_obj = CeObjective(aug)
        hint = planted.w_star.ravel()
        l_floor, _ = best_found_floor(
            orig_obj, size, Rng(seed, 11).gen,
            extra_starts=(hint, steps[-1][2]), n_random=1)
        lt_floor, _ = best_found_floor(
            aug_obj, size, Rng(seed, 12).gen,
            extra_starts=(hint, s1[-1]), n_random=1)

        dy = estimate_delta_y(zip(clean_labels(planted, aug.inputs[:500]),
                                  aug.labels[:500]))
        g_hat = estimate_G(
            LabeledSet(aug.inputs[:64], aug.labels[:64]),
            np.asarray(union)[::5])
        mu_union = estimate_mu(orig_obj, union, l_floor)
        mu_s2 = estimate_mu(orig_obj, s2, l_floor)
        radius = 8.0 * bias_radius(dy, g_hat, mu_union)
        hits = sum(in_constraint_set(w, radius, lt_floor, aug_obj).member
                   for w in stage2_all)
        out.append({
            "seed": seed, "rate": hits / len(stage2_all), "radius": radius,
            "mu_union": mu_union, "mu_s2": mu_s2, "delta_y_hat": dy,
        })
    return out


def test_stage2_iterates_stay_in_constraint_set(membership_runs):
    rates = [r["rate"] for r in membership_runs]
    overall = float(np.mean(rates))
    dy = membership_runs[0]["delta_y_hat"]
    ok = overall >= 0.95 and abs(dy - CANON.delta_y) < 1e-9
    record_verdict(
        6, "stage-2 iterates stay within 8x the estimated constraint radius",
        ok, f"membership {overall:.1%} (min seed {min(rates):.1%}), "
            f"recovered delta_y {dy:.3f}")


def test_restricted_curvature_no_worse_than_global(membership_runs):
    ok = all(r["mu_s2"] >= r["mu_union"] for r in membership_runs)
    lo = min(r["mu_s2"] / r["mu_union"] for r in membership_runs)
    record_verdict(
        7, "mu estimated on stage-2 iterates >= mu on all visited iterates",
        ok, f"every seed; worst ratio {lo:.2f}")


# --- criterion 8: estimator calibration ----------------------------------------


class Quad:
    """0.5 ||A w - b||^2 with a planted singular spectrum."""

    def __init__(self, seed, d=5, s_lo=1.0, s_hi=1.2):
        rng = np.random.default_rng(seed)
        q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
        q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
        self.a = q1 @ np.diag(np.linspace(s_lo, s_hi, d)) @ q2.T
        self.b = rng.standard_normal(d)
        self.w_star = np.linalg.solve(self.a, self.b)
        self.d = d

    def loss(self, w):
        r = self.a @ w - self.b
        return float(0.5 * r @ r)

    def grad(self, w):
        return self.a.T @ (self.a @ w - self.b)

    def value_and_grad(self, w):
        return self.loss(w), self.grad(w)


def test_constant_estimators_recover_planted_values():
    quad = Quad(5)
    hess_eigs = np.linalg.eigvalsh(quad.a.T @ quad.a)
    lam_min, lam_max = float(hess_eigs[0]), float(hess_eigs[-1])
    rng = np.random.default_rng(17)
    cloud = quad.w_star + rng.standard_normal((1000, quad.d))
    mu_hat = estimate_mu(quad, cloud, 0.0)
    pairs = [(cloud[2 * i], cloud[2 * i + 1]) for i in range(500)]
    l_hat = estimate_L_smooth(quad, pairs)
    ok_quad = (lam_min <= mu_hat and mu_hat >= 0.85 * lam_min
               and l_hat <= lam_max and l_hat >= 0.85 * lam_max)

    shift = np.array([0.6, -0.3, 0.2])
    true_kl = float(0.5 * shift @ shift)
    p = rng.standard_normal((100_000, 3))
    q = rng.standard_normal((100_000, 3)) + shift
    kl_hat = estimate_delta_P(p, q)
    ok_kl = abs(kl_hat - true_kl) <= 0.10 * true_kl
    record_verdict(
        8, "mu/L recover a planted spectrum; delta_P recovers a planted KL",
        ok_quad and ok_kl,
        f"mu {mu_hat:.3f} vs {lam_min:.3f}, L {l_hat:.3f} vs {lam_max:.3f}, "
        f"KL {kl_hat:.4f} vs {true_kl:.4f}")


# --- criterion 9: scheme reduction identities -----------------------------------


def _csv_bytes(trace, path):
    write_trace_csv(trace, path)
    with open(path, "rb") as fh:
        return fh.read()


def test_scheme_reductions_are_bitwise(tmp_path):
    task = SyntheticTask(mode="label_bias", n=24, m=30, d=3, k=3, delta_y=0.2)
    orig, aug, _ = gen_synthetic(task, Rng(41, 0))
    w0 = np.zeros(3 * 3)

    tw = run_scheme(w0, orig, aug, TrainConfig(
        scheme=WeMix(lam=0.0, delta_y=0.0, t1=7, t2=5, m0=5, eta1=0.3, eta2=0.2, batch=8),
        seed=13))
    ta = run_scheme(w0, orig, aug, TrainConfig(
        scheme=AugDrop(t1=7, m1=5, m2=8, eta1=0.3, eta2=0.2, t2=5), seed=13))
    pair1 = _csv_bytes(tw, tmp_path / "w1.csv") == _csv_bytes(ta, tmp_path / "a1.csv")

    tw2 = run_scheme(w0, orig, aug, TrainConfig(
        scheme=WeMix(lam=0.35, delta_y=0.15, t1=orig.n, t2=0, m0=6,
                     eta1=0.25, eta2=0.1, batch=4), seed=23))
    tm = run_scheme(w0, orig, aug, TrainConfig(
        scheme=MixLoss(lam=0.35, delta_y=0.15, m0=6, eta=0.25, epochs=1), seed=23))
    pair2 = _csv_bytes(tw2, tmp_path / "w2.csv") == _csv_bytes(tm, tmp_path / "m2.csv")

    record_verdict(
        9, "wemix degenerates to augdrop and to mixloss bit-exactly",
        pair1 and pair2, "byte-identical trace files, shared seed")


# --- criterion 11: determinism and lossless traces ------------------------------


def test_repeat_runs_are_byte_identical_and_traces_roundtrip(tmp_path):
    from augbias.cli import Cell, ExperimentPlan
    from augbias.trainers import Original

    task = SyntheticTask(mode="label_bias", n=40, m=60, d=3, k=3, delta_y=0.2)
    cells = (
        Cell("orig", Original(eta=0.3, batch=8, epochs=2)),
        Cell("drop", AugDrop(t1=8, m1=6, m2=6, eta1=0.3, eta2=0.3, t2=8)),
    )
    dirs = []
    for d in ("one", "two"):
        plan = ExperimentPlan(task=task, cells=cells, seeds=(0, 1),
                              outdir=str(tmp_path / d))
        _, code = run_plan(plan)
        assert code == 0
        dirs.append(tmp_path / d)
    csvs = sorted(f for f in os.listdir(dirs[0]) if f.endswith(".csv"))
    identical = all((dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes()
                    for f in csvs)

    src = dirs[0] / "drop__seed0.csv"
    rows = read_trace_csv(src)
    rewritten = tmp_path / "rt.csv"
    write_trace_csv(TrainTrace(rows=rows, final_params=np.zeros(1)), rewritten)
    roundtrip = src.read_bytes() == rewritten.read_bytes()

    record_verdict(
        11, "repeated runs byte-identical; trace files parse back losslessly",
        identical and roundtrip,
        f"{len(csvs)} trace files compared; round-trip exact")
