"""Deterministic diffusion-step arithmetic: sampling, inversion, guidance.

The denoising step maps a noisier latent down one level of the schedule:

    z[t-1] = sqrt(a[t-1]/a[t]) * z[t]
             + (sqrt(1/a[t-1] - 1) - sqrt(1/a[t] - 1)) * eps

The inversion step is its exact algebraic inverse, which requires scaling
the noise term by the same leading coefficient:

    z[t] = sqrt(a[t]/a[t-1]) * (z[t-1] - (sqrt(1/a[t-1] - 1)
                                          - sqrt(1/a[t] - 1)) * eps)

With any state-independent noise prediction the two directions cancel
exactly, so an invert/denoise round trip reproduces its input to floating
point error. Both directions query the predictor with the upper step
index of the transition, keeping those queries identical in both
directions; with a state-dependent predictor the two directions see
different states and exact inversion is not expected.

Noise predictors are pluggable callables ``(state, t, cond) -> noise`` of
matching shape; the bundled ones are deterministic stand-ins for a real
denoising model. The steps query them with the ``COND`` tag, and
classifier-free guidance adds an ``UNCOND`` query. The schedule's betas
run linearly from ``BETA_START`` to ``BETA_END``, and ``LinearPredictor``
scales its matrix by ``LINEAR_GAIN``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import ConfigError, DimensionError, _checked_record, seeded_rng

# linear beta range of DDPM (Ho et al. 2020)
BETA_START = 1e-4
BETA_END = 2e-2
# query tags of classifier-free guidance (Ho & Salimans 2022)
COND = "cond"
UNCOND = "uncond"
# scale of LinearPredictor's seeded matrix, whose spectral norm is about 2 * gain
LINEAR_GAIN = 0.05


@dataclass(frozen=True)
class DiffusionSchedule:
    """Cumulative diffusion coefficients alpha[0..T], strictly decreasing."""

    alphas: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.alphas, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 2:
            raise ConfigError("schedule needs alphas for levels 0..T with T >= 1")
        if not np.isfinite(arr).all() or np.any(arr <= 0) or np.any(arr > 1):
            raise ConfigError("alphas must lie in (0, 1]")
        if np.any(np.diff(arr) >= 0):
            raise ConfigError("alphas must be strictly decreasing")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "alphas", arr)

    @property
    def n_steps(self) -> int:
        return self.alphas.size - 1


def linear_beta_schedule(n_steps: int) -> DiffusionSchedule:
    """Cumulative products of (1 - beta) for betas linear over ``n_steps``,
    from ``BETA_START`` to ``BETA_END``.

    alpha[0] = 1 is the clean boundary; alpha[t] = prod_{s<=t} (1 - beta_s).
    """
    if n_steps < 1:
        raise ConfigError(f"n_steps must be >= 1, got {n_steps}")
    betas = np.linspace(BETA_START, BETA_END, n_steps)
    alphas = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
    return DiffusionSchedule(alphas)


class NoisePredictor:
    """Deterministic noise model: callable (state, t, cond) -> same shape."""

    def __call__(self, state: np.ndarray, t: int, cond: str) -> np.ndarray:
        raise NotImplementedError


class ZeroPredictor(NoisePredictor):
    def __call__(self, state, t, cond):
        return np.zeros_like(state)


class ConstantPredictor(NoisePredictor):
    """Always returns one fixed noise array (broadcast to the state shape)."""

    def __init__(self, noise: np.ndarray):
        self.noise = np.asarray(noise, dtype=np.float64)

    def __call__(self, state, t, cond):
        return np.broadcast_to(self.noise, state.shape).astype(np.float64)


class TimeOnlyPredictor(NoisePredictor):
    """State-independent noise, a fixed pseudo-random draw per (t, cond)."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)

    def __call__(self, state, t, cond):
        tag = zlib.crc32(str(cond).encode("utf-8"))
        return seeded_rng(self.seed, t, tag).standard_normal(state.shape)


class LinearPredictor(NoisePredictor):
    """Fixed linear map of the flattened state; state-dependent on purpose."""

    def __init__(self, dim: int, seed: int = 0):
        if dim < 1:
            raise ConfigError(f"dim must be >= 1, got {dim}")
        rng = seeded_rng(seed)
        self.matrix = LINEAR_GAIN * rng.standard_normal((dim, dim)) / np.sqrt(dim)

    def __call__(self, state, t, cond):
        flat = np.asarray(state, dtype=np.float64).ravel()
        if flat.size != self.matrix.shape[0]:
            raise DimensionError(
                f"predictor built for {self.matrix.shape[0]} elements, state has {flat.size}"
            )
        return (self.matrix @ flat).reshape(state.shape)


def cfg_combine(eps_cond: np.ndarray, eps_uncond: np.ndarray, scale: float) -> np.ndarray:
    """Guided noise: scale * eps_cond + (1 - scale) * eps_uncond."""
    eps_cond = np.asarray(eps_cond, dtype=np.float64)
    eps_uncond = np.asarray(eps_uncond, dtype=np.float64)
    if eps_cond.shape != eps_uncond.shape:
        raise DimensionError(
            f"prediction shapes differ: {eps_cond.shape} vs {eps_uncond.shape}"
        )
    return scale * eps_cond + (1.0 - scale) * eps_uncond


class GuidedPredictor(NoisePredictor):
    """Wraps a predictor with classifier-free guidance at a finite ``scale``.

    Queries the base predictor under the ``COND`` and ``UNCOND`` tags and
    combines them; the incoming cond tag is ignored.
    """

    def __init__(self, base: NoisePredictor, scale: float):
        if not np.isfinite(scale):
            raise ConfigError("guidance scale must be finite")
        self.base = base
        self.scale = scale

    def __call__(self, state, t, cond):
        return cfg_combine(self.base(state, t, COND), self.base(state, t, UNCOND), self.scale)


def _coefficients(sched: DiffusionSchedule, t: int) -> tuple[float, float]:
    """(scale, noise_weight) of the denoising step at level t."""
    if not 1 <= t <= sched.n_steps:
        raise ConfigError(f"t must lie in [1, {sched.n_steps}], got {t}")
    a_t = sched.alphas[t]
    a_prev = sched.alphas[t - 1]
    scale = np.sqrt(a_prev / a_t)
    noise = np.sqrt(1.0 / a_prev - 1.0) - np.sqrt(1.0 / a_t - 1.0)
    return float(scale), float(noise)


def denoise_step(
    state: np.ndarray, t: int, sched: DiffusionSchedule, pred: NoisePredictor
) -> np.ndarray:
    """One deterministic sampling step, level t -> t-1."""
    scale, noise = _coefficients(sched, t)
    state = np.asarray(state, dtype=np.float64)
    return scale * state + noise * pred(state, t, COND)


def invert_step(
    state: np.ndarray, t: int, sched: DiffusionSchedule, pred: NoisePredictor
) -> np.ndarray:
    """One inversion step, level t-1 -> t; exact inverse of the sampler.

    For any fixed noise array eps, denoise_step(invert_step(z; eps); eps)
    returns z up to floating point error.
    """
    scale, noise = _coefficients(sched, t)
    state = np.asarray(state, dtype=np.float64)
    return (state - noise * pred(state, t, COND)) / scale


def run_trajectory(
    state: np.ndarray, sched: DiffusionSchedule, pred: NoisePredictor, direction: str
) -> list[np.ndarray]:
    """All intermediate states of a full traversal of the schedule.

    ``invert`` starts from the clean latent and walks t = 1..T upward;
    ``denoise`` starts from the noisy latent and walks t = T..1 downward.
    The returned list has T + 1 states including the input.
    """
    if direction not in ("invert", "denoise"):
        raise ConfigError(f"direction must be 'invert' or 'denoise', got {direction!r}")
    states = [np.asarray(state, dtype=np.float64)]
    if direction == "invert":
        for t in range(1, sched.n_steps + 1):
            states.append(invert_step(states[-1], t, sched, pred))
    else:
        for t in range(sched.n_steps, 0, -1):
            states.append(denoise_step(states[-1], t, sched, pred))
    return states


def save_trajectory(directory, states: list[np.ndarray]) -> None:
    """Dump a trajectory as numbered VLT1 tensors plus an index manifest; every
    record is checked before the directory is made, so a refused state leaves nothing."""
    out = Path(directory)
    names = [f"state_{i:04d}.vlt" for i in range(len(states))]
    records = [_checked_record(out / name, np.atleast_1d(np.asarray(state)))
               for name, state in zip(names, states)]
    out.mkdir(parents=True, exist_ok=True)
    for name, record in zip(names, records):
        (out / name).write_bytes(record)
    (out / "manifest.txt").write_text("".join(f"{n}\n" for n in names), encoding="utf-8")
