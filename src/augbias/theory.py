"""Empirical constant estimation and evaluation of the convergence bounds.

Every quantity here is an empirical surrogate. The curvature and gradient
constants are defined in the analysis as suprema/infima over all of
parameter space, which is unverifiable; we estimate them over clouds of
visited iterates plus random perturbations around them, and the reports
label them as such. The restricted curvature constant realizes only the
inequality direction (restricting the point set can never lower the min),
not the defining max.

Floors (the objective values at the unconstrained optima) are best-found
values from multi-start quasi-Newton polishing, optionally seeded with a
planted optimum when the task is synthetic.

Log arguments inside bound formulas are clamped at e, keeping every bound
positive and finite even for degenerate constant estimates; schedule
formulas share the clamp and flag it in the result.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .core import DegenerateEstimateError, LabeledSet, as_vec
from .models import eval_scores, label_grad

_E = math.e
_START_SCALE = 0.5  # standard deviation of best_found_floor's random starts
_JITTER_COPIES = 2  # jittered copies of each point in perturbed_cloud,
_JITTER_SCALE = 0.1  # and their standard deviation
_G_INPUTS = 128  # originals that estimate_constants' Jacobian scan subsamples
_CONFIDENCE = 0.05  # failure probability the AugDrop batch sizes are sized for


# ---------------------------------------------------------------------------
# the full-batch objective the floor solves and the constant estimates read


@dataclass(frozen=True)
class CeObjective:
    """Full-batch cross entropy over a fixed dataset, with exact gradient.
    Each method takes the flat weights w of a (k, d) matrix."""

    dataset: LabeledSet

    def _w(self, w) -> np.ndarray:
        """`w` as a finite float64 vector of k * d entries."""
        return as_vec(w, size=self.dataset.k * self.dataset.d, name="w")

    def loss(self, w: np.ndarray) -> float:
        return eval_scores(self._w(w), self.dataset).loss

    def grad(self, w: np.ndarray) -> np.ndarray:
        return label_grad(self._w(w), self.dataset.inputs, self.dataset.labels)

    def value_and_grad(self, w: np.ndarray) -> tuple[float, np.ndarray]:
        """(loss(w), grad(w)) from one scores pass, equal to both bit for bit."""
        st = eval_scores(self._w(w), self.dataset, grad=True)
        return st.loss, st.grad


# ---------------------------------------------------------------------------
# constants


@dataclass(frozen=True)
class ConstantEstimates:
    g_bound: float
    l_smooth: float
    mu: float
    mu_restricted: float
    delta_y: float
    l_floor: float
    ltilde_floor: float
    initial_gap: float
    initial_gap_tilde: float
    delta_p: float | None = None

    def __post_init__(self):
        vals = {
            "g_bound": self.g_bound,
            "l_smooth": self.l_smooth,
            "mu": self.mu,
            "mu_restricted": self.mu_restricted,
            "delta_y": self.delta_y,
            "initial_gap": self.initial_gap,
            "initial_gap_tilde": self.initial_gap_tilde,
        }
        for name, v in vals.items():
            if not np.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {v}")
        if self.delta_p is not None and (not np.isfinite(self.delta_p) or self.delta_p < 0):
            raise ValueError("delta_p must be finite and nonnegative")
        if not (np.isfinite(self.l_floor) and np.isfinite(self.ltilde_floor)):
            raise ValueError("floors must be finite")
        if self.mu > self.l_smooth:
            raise ValueError("curvature estimates violate mu <= l_smooth")


def estimate_mu(obj, points, l_floor: float) -> float:
    """Smallest squared-gradient-to-gap ratio over the cloud.

    `obj` provides value_and_grad(w), one evaluation per point.

    Points within 1e-10 of the floor carry no curvature information and are
    skipped. Shrinking the point set can only raise the estimate, which is
    the operational form of restricted-curvature monotonicity.
    """
    best = math.inf
    used = 0
    for w in points:
        loss, g = obj.value_and_grad(w)
        gap = loss - l_floor
        if gap < 1e-10:
            continue
        best = min(best, float(g @ g) / (2.0 * gap))
        used += 1
    if used == 0:
        raise DegenerateEstimateError("every point sits at the floor; curvature undefined")
    return best


def estimate_L_smooth(obj, pairs) -> float:
    """Largest gradient-difference-to-distance ratio over sampled pairs.

    Each distinct point's gradient is taken once, keyed on its bytes, so a
    point shared by several pairs costs one `obj.grad` call.
    """
    grads: dict[bytes, np.ndarray] = {}

    def grad(w: np.ndarray) -> np.ndarray:
        key = w.tobytes()
        if key not in grads:
            grads[key] = obj.grad(w)
        return grads[key]

    best = 0.0
    used = 0
    for w, u in pairs:
        w = np.asarray(w, dtype=np.float64)
        u = np.asarray(u, dtype=np.float64)
        dist = float(np.linalg.norm(w - u))
        if dist < 1e-8:
            continue
        best = max(best, float(np.linalg.norm(grad(w) - grad(u))) / dist)
        used += 1
    if used == 0:
        raise DegenerateEstimateError("no pair is separated enough to probe smoothness")
    return best


def bias_radius(delta_y: float, g_bound: float, mu: float) -> float:
    """Constraint radius induced by a label-space bias of delta_y."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return delta_y**2 * g_bound**2 / (2.0 * mu)


def shift_radius(delta_p: float, g_bound: float, mu: float) -> float:
    """Constraint radius induced by an input-distribution shift of delta_p."""
    if mu <= 0:
        raise ValueError("mu must be positive")
    return delta_p * g_bound**2 / mu


@dataclass(frozen=True)
class ConstraintCheck:
    member: bool
    margin: float


def in_constraint_set(w, gamma: float, ltilde_floor: float, aug_obj: CeObjective) -> ConstraintCheck:
    """Whether the augmented-objective gap at w stays within gamma."""
    value = aug_obj.loss(np.asarray(w, dtype=np.float64)) - ltilde_floor
    margin = gamma - value
    return ConstraintCheck(member=bool(value <= gamma), margin=float(margin))


def best_found_floor(obj, dim: int, rng, extra_starts=(), n_random: int = 3):
    """Multi-start quasi-Newton floor for a full-batch objective.

    `obj` provides value_and_grad(w). Returns (value, argmin). Best-found,
    not certified: the reported floor is an upper bound on the true one,
    which is the conservative direction for every gap it feeds.
    """
    starts = [np.zeros(dim)]
    starts += [np.asarray(s, dtype=np.float64) for s in extra_starts]
    starts += [_START_SCALE * rng.standard_normal(dim) for _ in range(n_random)]
    best_val, best_w = math.inf, None
    for s in starts:
        res = optimize.minimize(
            obj.value_and_grad,
            s,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 500, "ftol": 1e-14, "gtol": 1e-10},
        )
        if res.fun < best_val:
            best_val, best_w = float(res.fun), res.x.copy()
    return best_val, best_w


def perturbed_cloud(points, rng) -> list[np.ndarray]:
    """The points plus Gaussian jitter around each, for curvature probing."""
    out = [np.asarray(p, dtype=np.float64) for p in points]
    for p in list(out):
        for _ in range(_JITTER_COPIES):
            out.append(p + _JITTER_SCALE * rng.standard_normal(p.shape))
    return out


def estimate_constants(
    orig: LabeledSet,
    aug: LabeledSet,
    w1: np.ndarray,
    cloud,
    delta_y: float,
    rng,
    delta_p: float | None = None,
    restricted_cloud=None,
    floor_hints=(),
) -> ConstantEstimates:
    """One-stop estimation pipeline over a cloud of visited iterates."""
    from .models import estimate_G

    obj = CeObjective(orig)
    obj_t = CeObjective(aug)
    pts = perturbed_cloud(cloud, rng)
    size = orig.k * orig.d
    l_floor, w_star = best_found_floor(obj, size, rng, extra_starts=floor_hints)
    lt_floor, _ = best_found_floor(obj_t, size, rng, extra_starts=floor_hints)
    mu = estimate_mu(obj, pts, l_floor)
    pairs = [(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))]
    pairs += [(p, w_star) for p in pts[: len(pts) // 2]]
    l_smooth = estimate_L_smooth(obj, pairs)
    # The Jacobian scan is quadratic in (inputs x cloud); a subsample of the
    # inputs loses little because the max is over smooth per-example maps.
    if orig.n > _G_INPUTS:
        pick = rng.choice(orig.n, size=_G_INPUTS, replace=False)
        g_set = LabeledSet(orig.inputs[pick], orig.labels[pick])
    else:
        g_set = orig
    # by keyword: perfbench/tracing.py counts the Jacobian pairs from these names
    g = estimate_G(dataset=g_set, params_cloud=pts)
    if restricted_cloud is not None and len(restricted_cloud) > 0:
        mu_r = estimate_mu(obj, restricted_cloud, l_floor)
    else:
        mu_r = mu
    return ConstantEstimates(
        g_bound=g,
        l_smooth=l_smooth,
        mu=mu,
        mu_restricted=max(mu_r, mu),
        delta_y=delta_y,
        delta_p=delta_p,
        l_floor=l_floor,
        ltilde_floor=lt_floor,
        initial_gap=max(obj.loss(w1) - l_floor, 0.0),
        initial_gap_tilde=max(obj_t.loss(w1) - lt_floor, 0.0),
    )


# ---------------------------------------------------------------------------
# bounds


def _clog(x: float) -> float:
    """log with the argument clamped at e, so the result is at least 1."""
    return math.log(max(x, _E))


def plateau_label_bound(delta_y: float, g: float, mu: float) -> float:
    return delta_y**2 * g**2 / mu


def original_sgd_bound(g: float, l: float, mu: float, n: int, initial_gap: float) -> float:
    lead = g**2 * l / (8.0 * n * mu**2)
    return lead * (1.0 + _clog(8.0 * n * mu**2 * initial_gap / (g**2 * l)))


def augdrop_label_bound(g: float, l: float, mu_restricted: float, n: int, initial_gap: float) -> float:
    lead = g**2 * l / (4.0 * n * mu_restricted**2)
    return lead * (1.0 + _clog(4.0 * n * mu_restricted**2 * initial_gap / (g**2 * l)))


def mixloss_bound(g: float, l: float, mu: float, n: int, lam: float, initial_gap: float) -> float:
    if not (0.0 < lam <= 1.0):
        raise ValueError("lambda out of (0,1]")
    lead = lam * l * g**2 / (n * mu**2)
    return lead * (1.0 + 5.0 * _clog(n * mu**2 * initial_gap / (lam**2 * l * g**2)))


def plateau_shift_bound(delta_p: float, g: float, mu: float) -> float:
    return 4.0 * delta_p * g**2 / mu


def augdrop_shift_bound(g: float, l: float, mu_restricted: float, n: int, initial_gap: float) -> float:
    lead = g**2 * l / (8.0 * n * mu_restricted**2)
    return lead * (1.0 + _clog(8.0 * n * mu_restricted**2 * initial_gap / (g**2 * l)))


# ---------------------------------------------------------------------------
# schedules


def highprob_inflation(x: float) -> float:
    """(1 + sqrt(3 log x))^2, the batch inflation for a 1-x^-1 guarantee."""
    if x <= 1.0:
        return 1.0
    return (1.0 + math.sqrt(3.0 * math.log(x))) ** 2


def _iceil(x: float) -> int:
    """ceil with a tiny tolerance so exact-integer formulas resolve exactly."""
    return math.ceil(round(x, 9))


@dataclass(frozen=True)
class ResolvedSchedule:
    values: dict
    warnings: tuple
    bounds: dict  # the gap bound the schedule guarantees, by bound name (`mixloss`, ...)


def theory_stepsizes(
    constants: ConstantEstimates,
    scheme: str,
    n: int,
    lam: float | None = None,
) -> ResolvedSchedule:
    """Step sizes, batch sizes, iteration counts and the gap bound they
    guarantee, from estimated constants, for the trainer scheme `scheme`:
    original, augmented, augdrop or mixloss. Augmented and AugDrop take
    their input-shift forms when the constants carry a delta_p.

    All resolved values are positive and finite; a log argument below e is
    clamped there (flagged), and the mixed-scheme step honors its analysis
    cap of 1/(2 l_smooth) (flagged when it binds).
    """
    c = constants
    for name in ("g_bound", "l_smooth", "mu"):
        if getattr(c, name) <= 0:
            raise DegenerateEstimateError(f"{name} must be positive for schedule resolution")
    if n < 1:
        raise ValueError("n must be at least 1")
    shift = c.delta_p is not None
    if scheme in ("augmented", "augdrop"):
        bias, name = (c.delta_p, "delta_p") if shift else (c.delta_y, "delta_y")
        if bias <= 0:
            raise DegenerateEstimateError(f"{name} must be positive for this schedule")
    w: list[str] = []
    v: dict[str, float | int] = {}
    bounds: dict[str, float] = {}

    def logged(x: float, label: str) -> float:
        if x < _E:
            w.append(f"{label} log argument clamped at e")
        return _clog(x)

    g2 = c.g_bound**2
    if scheme == "original":
        v["eta"] = (1.0 / (2.0 * n * c.mu)) * logged(
            8.0 * n * c.mu**2 * c.initial_gap / (g2 * c.l_smooth), "eta"
        )
        v["iters"] = n
        v["batch"] = 1
        bounds["original_sgd"] = original_sgd_bound(c.g_bound, c.l_smooth, c.mu, n, c.initial_gap)
    elif scheme == "augmented":
        v["eta"] = 1.0 / c.l_smooth
        if shift:
            v["m0"] = _iceil(4.0 * c.l_smooth / c.delta_p)
            arg = c.initial_gap * c.mu / (2.0 * c.delta_p * g2)
            bounds["plateau_shift"] = plateau_shift_bound(c.delta_p, c.g_bound, c.mu)
        else:
            v["m0"] = _iceil(8.0 / c.delta_y**2)
            arg = 4.0 * c.initial_gap * c.mu / (c.delta_y**2 * g2)
            bounds["plateau_label"] = plateau_label_bound(c.delta_y, c.g_bound, c.mu)
        v["iters"] = _iceil((c.l_smooth / c.mu) * logged(arg, "iters"))
    elif scheme == "augdrop":
        r = c.delta_p if shift else c.delta_y**2  # what the t1 and batch formulas divide by
        v["eta1"] = 1.0 / c.l_smooth
        t1 = _iceil(
            (c.l_smooth / c.mu)
            * logged(2.0 * c.initial_gap_tilde * c.mu / (r * g2), "t1")
        )
        v["t1"] = t1
        v["m1"] = _iceil(highprob_inflation(2.0 * t1 / _CONFIDENCE) * 8.0 / r)
        v["m2"] = _iceil(highprob_inflation(2.0 * n / _CONFIDENCE) * (8.0 if shift else 4.0) / r)
        if v["m2"] > n:
            v["m2"] = n
            w.append("m2 capped at n")
        v["eta2"] = (1.0 / (2.0 * n * c.mu_restricted)) * logged(
            8.0 * n * c.mu_restricted**2 * c.initial_gap / (g2 * c.l_smooth), "eta2"
        )
        bound = augdrop_shift_bound if shift else augdrop_label_bound
        bounds["augdrop_shift" if shift else "augdrop_label"] = bound(
            c.g_bound, c.l_smooth, c.mu_restricted, n, c.initial_gap)
    elif scheme == "mixloss":
        if lam is None or not (0.0 < lam <= 1.0):
            raise ValueError("lambda out of (0,1]")
        v["m0"] = max(1, _iceil(72.0 * (1.0 - lam) ** 2 / lam**2))
        raw = (1.0 / (c.mu * n)) * logged(
            n * c.mu**2 * c.initial_gap / (lam**2 * c.l_smooth * g2), "eta"
        )
        cap = 1.0 / (2.0 * c.l_smooth)
        if raw > cap:
            w.append("eta capped at 1/(2 l_smooth)")
            raw = cap
        v["eta"] = raw
        v["iters"] = n
        bounds["mixloss"] = mixloss_bound(c.g_bound, c.l_smooth, c.mu, n, lam, c.initial_gap)
    else:
        raise ValueError(f"unknown scheme {scheme!r}")
    for key, val in v.items():
        if not np.isfinite(val) or val <= 0:
            raise DegenerateEstimateError(f"resolved {key} is not positive and finite")
    return ResolvedSchedule(values=v, warnings=tuple(w), bounds=bounds)
