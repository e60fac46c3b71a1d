"""Projected sign-gradient attacks with uniform and intensity-adaptive budgets.

Both attacks maximize the l2 distance between the model's clean output and
its output on the perturbed image, by iterated sign-gradient ascent followed
by coordinate-wise projection onto a per-pixel feasible box:

  * uniform mode: delta_i in [-eps, eps] intersected with [-I_i, 1 - I_i];
  * adaptive mode: |delta_i| <= eps * max(I_i, floor), same intersection,
    so dark pixels get proportionally smaller budgets.

The two budgets are comparable through the mean-intensity mapping
eps_uniform = eps_adaptive * mean(I), which equalizes the maximum
achievable mean absolute perturbation of the two feasible sets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .imagecore import Image, Perturbation, mean_intensity
from .models import DiffModel
from .rng import Xoshiro256StarStar

log = logging.getLogger(__name__)

MODE_UNIFORM = "uniform"
MODE_ADAPTIVE = "adaptive"
DEFAULT_INTENSITY_FLOOR = 1.0 / 255.0


class NonFiniteGradientError(ArithmeticError):
    """The model produced a NaN/Inf objective or gradient during the attack."""


@dataclass(frozen=True)
class AttackConfig:
    """Attack hyperparameters.

    epsilon is the budget: an absolute bound in uniform mode, a fraction of
    each pixel's intensity in adaptive mode. The step size is epsilon /
    step_divisor, per coordinate and intensity-scaled in adaptive mode.
    intensity_floor substitutes for intensities below it so zero pixels
    keep a one-level budget instead of none.
    """

    mode: str
    epsilon: float
    iterations: int = 20
    step_divisor: float = 4.0
    seed: int = 0
    intensity_floor: float = DEFAULT_INTENSITY_FLOOR

    def __post_init__(self):
        if self.mode not in (MODE_UNIFORM, MODE_ADAPTIVE):
            raise ValueError(f"unknown attack mode {self.mode!r}")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.step_divisor <= 0.0:
            raise ValueError(f"step_divisor must be positive, got {self.step_divisor}")
        if not 0.0 < self.intensity_floor <= 1.0:
            raise ValueError(
                f"intensity_floor must lie in (0, 1], got {self.intensity_floor}")


@dataclass(frozen=True)
class BudgetBox:
    """Per-coordinate feasible interval [lower, upper] for the perturbation."""

    lower: np.ndarray
    upper: np.ndarray

    @property
    def is_degenerate(self) -> bool:
        """True when no coordinate has any room to move."""
        return bool(np.all(self.upper - self.lower <= 0.0))


@dataclass(frozen=True)
class AttackResult:
    """The final perturbation and attacked image, the objective per
    iteration, and the model outputs on the clean image (the anchor) and on
    the attacked image, so callers need no further forward pass."""

    perturbation: Perturbation
    attacked_image: Image
    objective_trace: list[float]
    config: AttackConfig
    clean_output: Image
    attacked_output: Image


def effective_intensity(image: Image, floor: float) -> np.ndarray:
    """Pixel intensities with the floor substituted below it."""
    return np.maximum(image.data, floor)


def budget_box(image: Image, config: AttackConfig) -> BudgetBox:
    """Feasible perturbation box for an image under the configured budget.

    Both modes intersect the budget interval with [-I, 1 - I] so the
    attacked image stays inside [0, 1].
    """
    intens = image.data
    if config.mode == MODE_UNIFORM:
        radius = np.full_like(intens, config.epsilon)
    else:
        radius = config.epsilon * effective_intensity(image, config.intensity_floor)
    lower = np.maximum(-radius, -intens)
    upper = np.minimum(radius, 1.0 - intens)
    return BudgetBox(lower=lower, upper=upper)


def init_delta(box: BudgetBox, seed: int) -> Perturbation:
    """Seeded uniform draw from the box, coordinate by coordinate.

    Uses the package's portable PRNG so the same seed gives the same start
    on every platform. Saturated coordinates (zero-width box) start at 0.
    """
    rng = Xoshiro256StarStar(seed)
    u = rng.fill(box.lower.shape)
    return Perturbation(box.lower + u * (box.upper - box.lower))


def attack_objective(anchor: Image, attacked_output: Image) -> tuple[float, np.ndarray]:
    """l2 output-distortion objective and its gradient w.r.t. the output.

    Returns (objective, cotangent) where cotangent is d objective /
    d attacked_output; at zero distortion the chosen subgradient is 0.
    """
    residual = attacked_output.data - anchor.data
    value = float(np.sqrt(np.sum(residual * residual)))
    if value > 0.0:
        cotangent = residual / value
    else:
        cotangent = np.zeros_like(residual)
    return value, cotangent


def _step_size(image: Image, config: AttackConfig) -> np.ndarray | float:
    if config.mode == MODE_ADAPTIVE:
        return (config.epsilon / config.step_divisor) * effective_intensity(
            image, config.intensity_floor)
    return config.epsilon / config.step_divisor


def pgd_attack(model: DiffModel, image: Image, config: AttackConfig,
               on_iteration: Callable[[int, np.ndarray], None] | None = None,
               ) -> AttackResult:
    """Run the projected sign-gradient attack.

    The clean output anchor f(I) is computed once and held fixed. Each
    iteration runs one model pass (``vjp``) at the current delta, evaluates
    the objective (recorded in the trace), pulls its gradient back to the
    input, takes an ascent step of sign(gradient) scaled by the step size,
    and projects back onto the budget box. sign(0) = 0, so coordinates with
    exactly zero gradient do not move. `on_iteration`, when given, is called
    with (iteration, delta) after every projection; test harnesses use it to
    audit the per-iteration constraint.
    """
    box = budget_box(image, config)
    if box.is_degenerate:
        log.warning("budget box is degenerate (no coordinate can move); "
                    "the attack will return delta = 0")
    delta = np.array(init_delta(box, config.seed).data)
    anchor = model.forward(image)
    step = _step_size(image, config)

    trace: list[float] = []
    for t in range(config.iterations):
        attacked = Image(np.clip(image.data + delta, 0.0, 1.0))
        out, pullback = model.vjp(attacked)
        value, cotangent = attack_objective(anchor, out)
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
        delta = np.clip(delta + step * np.sign(grad), box.lower, box.upper)
        if on_iteration is not None:
            on_iteration(t, delta)

    attacked = Image(np.clip(image.data + delta, 0.0, 1.0))
    return AttackResult(
        perturbation=Perturbation(delta),
        attacked_image=attacked,
        objective_trace=trace,
        config=config,
        clean_output=anchor,
        attacked_output=model.forward(attacked),
    )


def equivalent_uniform_budget(image: Image, epsilon_a: float) -> float:
    """Uniform budget with the same maximum mean-l1 strength as an adaptive
    budget epsilon_a on this image: epsilon_a times the mean intensity."""
    if not 0.0 < epsilon_a < 1.0:
        raise ValueError(f"epsilon_a must lie in (0, 1), got {epsilon_a}")
    return epsilon_a * mean_intensity(image)


@dataclass(frozen=True)
class L1BoundReport:
    """Outcome of the adaptive-budget l1 bound check.

    mean_abs is (1/n) * sum |delta_i|; bound is epsilon_a times the mean
    floored intensity. per_pixel_ok tracks the stronger coordinate-wise
    constraint |delta_i| <= epsilon_a * max(I_i, floor); on violation
    first_violation names the offending (row, col, channel) coordinate.
    """

    ok: bool
    mean_abs: float
    bound: float
    tolerance: float
    mean_ok: bool
    per_pixel_ok: bool
    first_violation: tuple[int, ...] | None = None
    violation_excess: float = 0.0

    def __bool__(self) -> bool:
        return self.ok


def verify_l1_bound(delta: Perturbation, image: Image, epsilon_a: float,
                    floor: float = DEFAULT_INTENSITY_FLOOR,
                    tol: float = 1e-9) -> L1BoundReport:
    """Check an adaptive perturbation against its theoretical l1 budget."""
    if delta.shape != image.shape:
        raise ValueError(
            f"delta shape {delta.shape} does not match image shape {image.shape}")
    abs_delta = np.abs(delta.data)
    ieff = effective_intensity(image, floor)
    mean_abs = float(np.mean(abs_delta))
    bound = epsilon_a * float(np.mean(ieff))
    mean_ok = mean_abs <= bound + tol

    excess = abs_delta - epsilon_a * ieff
    violations = np.argwhere(excess > tol)
    per_pixel_ok = violations.size == 0
    first = tuple(int(v) for v in violations[0]) if not per_pixel_ok else None
    worst = float(excess.max()) if not per_pixel_ok else 0.0

    return L1BoundReport(
        ok=mean_ok and per_pixel_ok,
        mean_abs=mean_abs,
        bound=bound,
        tolerance=tol,
        mean_ok=mean_ok,
        per_pixel_ok=per_pixel_ok,
        first_violation=first,
        violation_excess=worst,
    )
