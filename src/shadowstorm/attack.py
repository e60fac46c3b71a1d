"""Projected sign-gradient attacks with uniform and intensity-adaptive budgets.

Both attacks maximize the l2 distance between the model's clean output and
its output on the perturbed image, by iterated sign-gradient ascent followed
by coordinate-wise projection onto a per-pixel feasible box:

  * uniform mode: delta_i in [-eps, eps] intersected with [-I_i, 1 - I_i];
  * adaptive mode: |delta_i| <= eps * max(I_i, 1/255), same intersection,
    so dark pixels get proportionally smaller budgets.

The two budgets are comparable through the mean-intensity mapping
eps_uniform = eps_adaptive * mean(I), which equalizes the maximum
achievable mean absolute perturbation of the two feasible sets.

Every budget passes :func:`check_budget`, so every radius and step is a
normal float and every coordinate of the box has room to move.

The loop runs on arrays, through the model's array-level ``vjp``; ``Image``s
are built only outside it. Every iterate is a read-only array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .imagecore import (INTENSITY_FLOOR, Image, effective_intensity,
                        mean_intensity)
from .models import DiffModel
from .rng import Xoshiro256StarStar

MODES = MODE_UNIFORM, MODE_ADAPTIVE = ("uniform", "adaptive")
STEP_DIVISOR = 4.0  # the step is epsilon / STEP_DIVISOR per iteration
L1_SLACK = 1e-9  # float slack of verify_l1_bound's two checks


def check_budget(value: float, what: str) -> None:
    """Raise ValueError, naming `what`, unless `value` is a budget below 1
    whose smallest step, value / STEP_DIVISOR on a pixel at INTENSITY_FLOOR,
    is a normal float: a budget of about 2.27e-305 or more."""
    smallest_step = value / STEP_DIVISOR * INTENSITY_FLOOR
    if not (value < 1.0 and smallest_step >= np.finfo(float).tiny):
        raise ValueError(f"{what} must lie in (0, 1) with a normal smallest "
                         f"step (about 2.27e-305 or more), got {value}")


class NonFiniteGradientError(ArithmeticError):
    """The model produced a NaN/Inf objective or gradient during the attack."""


@dataclass(frozen=True)
class AttackConfig:
    """Attack hyperparameters.

    epsilon is the budget: an absolute bound in uniform mode, a fraction of
    each pixel's intensity in adaptive mode. The step size is epsilon /
    STEP_DIVISOR, per coordinate and intensity-scaled in adaptive mode.
    """

    mode: str
    epsilon: float
    iterations: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown attack mode {self.mode!r}")
        check_budget(self.epsilon, "epsilon")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


@dataclass(frozen=True)
class BudgetBox:
    """Per-coordinate feasible interval [lower, upper] for the perturbation."""

    lower: np.ndarray
    upper: np.ndarray


@dataclass(frozen=True)
class AttackResult:
    """The final perturbation and attacked image, the objective per
    iteration, and the model outputs on the clean image (the anchor) and on
    the attacked image, so callers need no further forward pass."""

    perturbation: np.ndarray
    attacked_image: Image
    objective_trace: list[float]
    config: AttackConfig
    clean_output: Image
    attacked_output: Image


def _radius(image: Image, config: AttackConfig) -> np.ndarray | float:
    """The budget's bound on |delta|: epsilon in uniform mode, epsilon *
    max(I, 1/255) per coordinate in adaptive mode."""
    if config.mode == MODE_ADAPTIVE:
        return config.epsilon * effective_intensity(image)
    return config.epsilon


def budget_box(image: Image, config: AttackConfig) -> BudgetBox:
    """Feasible perturbation box for an image under the configured budget.

    Both modes intersect the budget interval with [-I, 1 - I] so the
    attacked image stays inside [0, 1].
    """
    radius, intens = _radius(image, config), image.data
    return BudgetBox(lower=np.maximum(-radius, -intens),
                     upper=np.minimum(radius, 1.0 - intens))


def init_delta(box: BudgetBox, seed: int) -> np.ndarray:
    """Seeded read-only uniform draw from the box, coordinate by coordinate.

    Uses the package's portable PRNG so the same seed gives the same start
    on every platform. Saturated coordinates (zero-width box) start at 0.
    """
    rng = Xoshiro256StarStar(seed)
    u = rng.fill(box.lower.shape)
    delta = box.lower + u * (box.upper - box.lower)
    delta.flags.writeable = False
    return delta


def attack_objective(anchor: np.ndarray, attacked_output: np.ndarray
                     ) -> tuple[float, np.ndarray]:
    """l2 output-distortion objective and its gradient w.r.t. the output.

    Returns (objective, cotangent) where cotangent is d objective /
    d attacked_output; at zero distortion the chosen subgradient is 0.
    """
    residual = attacked_output - anchor
    value = float(np.sqrt(np.sum(residual * residual)))
    if value > 0.0:
        cotangent = residual / value
    else:
        cotangent = np.zeros_like(residual)
    return value, cotangent


def pgd_attack(model: DiffModel, image: Image, config: AttackConfig,
               on_iteration: Callable[[int, np.ndarray], None] | None = None,
               anchor: Image | None = None) -> AttackResult:
    """Run the projected sign-gradient attack.

    The clean output anchor f(I) is held fixed; it is computed here unless
    `anchor` gives it, as a caller attacking one image many times does. Each
    iteration runs one model pass (``vjp``) at the current delta, evaluates
    the objective (recorded in the trace), pulls its gradient back to the
    input, takes an ascent step of sign(gradient) scaled by the step size,
    and projects back onto the budget box. sign(0) = 0, so coordinates with
    exactly zero gradient do not move. `on_iteration`, when given, is called
    with (iteration, read-only delta) after every projection; test harnesses
    use it to audit the per-iteration constraint. Once a step returns the
    bits of the delta before it, or of the one before that with at most
    1/16 of the coordinates moved, the run repeats that cycle (``vjp`` is
    pure), so the loop repeats it with no further model pass.
    """
    box = budget_box(image, config)
    delta = init_delta(box, config.seed)  # read-only; only ever rebound
    if anchor is None:
        anchor = model.forward(image)
    step = _radius(image, config) / STEP_DIVISOR

    trace: list[float] = []
    cycle: tuple[np.ndarray, ...] = ()  # the iterates delta repeats, if any
    idx = was = np.empty(0, np.intp)  # what the last step moved, if few
    for t in range(config.iterations):
        if cycle:  # delta repeats: the rest of the run needs no model pass
            cycle = cycle[1:] + cycle[:1]
            delta = cycle[0]
            trace.append(trace[-len(cycle)])
        else:
            out, pullback = model.vjp(np.clip(image.data + delta, 0.0, 1.0))
            value, cotangent = attack_objective(anchor.data, out)
            del out  # read only by the objective; freed before the pullback
            if not np.isfinite(value):
                raise NonFiniteGradientError(
                    f"non-finite objective at iteration {t} of {config.mode} "
                    f"attack (eps={config.epsilon:g})")
            trace.append(value)
            grad = pullback(cotangent)
            if not np.all(np.isfinite(grad)):
                raise NonFiniteGradientError(
                    f"non-finite gradient at iteration {t} of {config.mode} "
                    f"attack (eps={config.epsilon:g})")
            stepped = np.clip(delta + step * np.sign(grad), box.lower,
                              box.upper)
            del pullback, cotangent, grad  # only delta outlives iteration t
            stepped.flags.writeable = False
            old = delta.reshape(-1).view(np.uint64)  # bits: -0.0 != +0.0
            new = stepped.reshape(-1).view(np.uint64)
            differs = old != new
            count = np.count_nonzero(differs)
            if count == 0:
                cycle = (stepped,)
            elif count == idx.size and np.array_equal(new[idx], was):
                cycle = (stepped, delta)  # this step undid the last one
            few = 16 * count <= old.size  # a full record costs two arrays
            idx = np.flatnonzero(differs) if few else np.empty(0, np.intp)
            was = old[idx]
            del old, new, differs  # old views the delta being replaced
            delta = stepped
        if on_iteration is not None:
            on_iteration(t, delta)
    del cycle, idx, was  # only the final delta outlives the loop

    attacked = Image(np.clip(image.data + delta, 0.0, 1.0))
    return AttackResult(
        perturbation=delta,
        attacked_image=attacked,
        objective_trace=trace,
        config=config,
        clean_output=anchor,
        attacked_output=model.forward(attacked),
    )


def equivalent_uniform_budget(image: Image, epsilon_a: float) -> float:
    """Uniform budget with the same maximum mean-l1 strength as an adaptive
    budget epsilon_a on this image: epsilon_a times the mean intensity."""
    check_budget(epsilon_a, "epsilon_a")
    return epsilon_a * mean_intensity(image)


@dataclass(frozen=True)
class L1BoundReport:
    """Outcome of the adaptive-budget l1 bound check.

    mean_abs is (1/n) * sum |delta_i|; bound is epsilon_a times the mean
    floored intensity. per_pixel_ok tracks the stronger coordinate-wise
    constraint |delta_i| <= epsilon_a * max(I_i, 1/255); on violation
    first_violation names the offending (row, col, channel) coordinate.
    """

    ok: bool
    mean_abs: float
    bound: float
    mean_ok: bool
    per_pixel_ok: bool
    first_violation: tuple[int, ...] | None = None
    violation_excess: float = 0.0


def verify_l1_bound(delta: np.ndarray, image: Image, epsilon_a: float
                    ) -> L1BoundReport:
    """Check an adaptive perturbation against its theoretical l1 budget,
    each check with a float slack of L1_SLACK."""
    if delta.shape != image.shape:
        raise ValueError(
            f"delta shape {delta.shape} does not match image shape {image.shape}")
    abs_delta = np.abs(delta)
    ieff = effective_intensity(image)
    mean_abs = float(np.mean(abs_delta))
    bound = epsilon_a * float(np.mean(ieff))
    mean_ok = mean_abs <= bound + L1_SLACK

    excess = abs_delta - epsilon_a * ieff
    violations = np.argwhere(excess > L1_SLACK)
    per_pixel_ok = violations.size == 0
    first = tuple(int(v) for v in violations[0]) if not per_pixel_ok else None
    worst = float(excess.max()) if not per_pixel_ok else 0.0

    return L1BoundReport(
        ok=mean_ok and per_pixel_ok,
        mean_abs=mean_abs,
        bound=bound,
        mean_ok=mean_ok,
        per_pixel_ok=per_pixel_ok,
        first_violation=first,
        violation_excess=worst,
    )
