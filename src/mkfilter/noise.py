"""Synthesis of the two benchmark noise regimes and complex MRI test data.

Integrally-varying noise: one Gaussian level per image, expressed as a
variance in squared intensity units (the usual normalization divides by
255^2 = 65025 for 8-bit data). Spatially-varying noise: a per-pixel sigma
field shaped like a 2D Gaussian bump on the centre pixel. Complex slices
are synthesized from a magnitude raster and one smooth background phase
schedule that drifts linearly with the slice index.

Noise is added in real-valued space, never clamped; 8-bit clamping only
happens at PGM export. All generators are seeded instances of numpy's
PCG64, deterministic per seed within one build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, overflow_is_config_error, require_bandwidth,
                     require_positive)
from .raster import ComplexRaster, Raster

__all__ = [
    "NoiseSpec",
    "PhaseSpec",
    "add_integral_noise",
    "make_noise_field",
    "add_spatial_noise",
    "synthesize_complex_slice",
    "phase_map",
    "parse_noise_spec",
    "apply_noise",
    "format_number",
    "parse_spec",
]

# the peak sigma of the spatially-varying field
DEFAULT_PEAK_SIGMA = 500.0
# background phase: quadratic polynomial over normalized [-1, 1] coords
DEFAULT_PHASE_COEFFS = (0.3, 0.5, -0.4, 0.25, 0.15, -0.2)
# per-slice linear drift, small enough that adjacent slices stay close
DEFAULT_PHASE_DRIFT = (0.03, 0.05, -0.04)


def format_number(value) -> str:
    """Spec text for a number: `:g` when it reads back as the same value,
    `repr` otherwise, so a CSV row's recorded parameters replay exactly."""
    text = f"{value:g}"
    try:
        return text if type(value)(text) == value else repr(value)
    except ValueError:  # an int that `:g` wrote with an exponent
        return repr(value)


def parse_spec(text: str, what: str, keys: dict) -> tuple[str, dict]:
    """Read a `name:key=value,...` spec string, the one grammar of filter
    and noise specs. `keys` maps each name to its keys, and each key to
    the type that converts its stripped value; `what` names the kind of
    spec in messages. Returns the name and the converted values given.
    An unknown name or key, an item without `=`, a repeated key and a
    value its type rejects are ConfigErrors that name the item or key."""
    name, _, body = text.partition(":")
    if name not in keys:
        raise ConfigError(f"unknown {what} {name!r} in {text!r}")
    given: dict = {}
    for item in body.split(",") if body else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in keys[name]:
            raise ConfigError(f"bad {what} option {item!r} in {text!r}")
        if key in given:
            raise ConfigError(f"repeated {what} option {key!r} in {text!r}")
        try:
            given[key] = keys[name][key](value.strip())
        except ValueError:
            raise ConfigError(f"bad value for {key!r} in {text!r}") from None
    return name, given


@dataclass(frozen=True)
class NoiseSpec:
    """Parsed noise request.

    kind 'integral': `level` is the per-image variance. kind
    'spatial-field': `level` is the peak sigma of the 2D Gaussian field on
    the centre pixel (w//2, h//2); `spread` defaults to min(w, h) / 4.
    """

    kind: str
    level: float
    seed: int
    spread: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("integral", "spatial-field"):
            raise ConfigError(f"unknown noise kind {self.kind!r}")
        require_positive(level=self.level)
        if self.spread is not None:  # the width of the Gaussian field
            require_bandwidth(spread=self.spread)
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")

    def describe(self) -> str:
        """Seedless descriptor; parse_noise_spec accepts it back, so a CSV
        row's noise column plus its seed column replays the realization."""
        if self.kind == "integral":
            return f"integral:level={format_number(self.level)}"
        spread = "auto" if self.spread is None else format_number(self.spread)
        return f"field:peak={format_number(self.level)},spread={spread}"


@dataclass(frozen=True)
class PhaseSpec:
    """Background phase of one slice, in radians: DEFAULT_PHASE_COEFFS
    plus `slice_index` times DEFAULT_PHASE_DRIFT."""

    slice_index: int = 0


def add_integral_noise(image: Raster, level: float, seed: int) -> Raster:
    """Add i.i.d. zero-mean Gaussian noise of variance `level`."""
    require_positive(level=level)
    rng = np.random.default_rng(seed)
    with overflow_is_config_error("the noisy image"):
        noisy = image.data + rng.normal(0.0, math.sqrt(level), image.data.shape)
    return image.with_data(noisy)


def make_noise_field(width: int, height: int,
                     spread: float | None = None,
                     peak_sigma: float = DEFAULT_PEAK_SIGMA) -> Raster:
    """Per-pixel sigma field: a 2D Gaussian bump of width `spread` (None:
    min(width, height) / 4) whose maximum, on the centre pixel
    (w//2, h//2), equals peak_sigma exactly."""
    require_positive(peak_sigma=peak_sigma)
    if spread is None:
        spread = min(width, height) / 4.0
    require_bandwidth(spread=spread)
    x = np.arange(width, dtype=np.float64) - float(width // 2)
    y = np.arange(height, dtype=np.float64) - float(height // 2)
    # a tiny spread: r^2 / (2 spread^2) is inf, and exp(-inf) = 0
    with np.errstate(over="ignore"):
        rsq = x[None, :] ** 2 + y[:, None] ** 2
        field = peak_sigma * np.exp(-rsq / (2.0 * spread * spread))
    return Raster(field, range_hint=(0.0, peak_sigma))


def add_spatial_noise(image: Raster, field: Raster, seed: int) -> Raster:
    """Add zero-mean Gaussian noise with per-pixel sigma from `field`."""
    if field.data.shape != image.data.shape:
        raise ConfigError(
            f"noise field shape {field.data.shape} does not match image "
            f"shape {image.data.shape}")
    rng = np.random.default_rng(seed)
    with overflow_is_config_error("the noisy image"):
        noisy = image.data + field.data * rng.standard_normal(image.data.shape)
    return image.with_data(noisy)


# ---------------------------------------------------------------------------
# complex-slice synthesis


def _wrap_phase(phi: np.ndarray) -> np.ndarray:
    """Wrap into (-pi, pi]."""
    return math.pi - np.mod(math.pi - phi, 2.0 * math.pi)


def phase_map(width: int, height: int, spec: PhaseSpec) -> np.ndarray:
    """Evaluate the background phase polynomial on the pixel grid."""
    u = np.linspace(-1.0, 1.0, width)[None, :]
    v = np.linspace(-1.0, 1.0, height)[:, None]
    c00, c10, c01, c20, c11, c02 = DEFAULT_PHASE_COEFFS
    d0, d1, d2 = DEFAULT_PHASE_DRIFT
    phi = (c00 + c10 * u + c01 * v + c20 * u * u + c11 * u * v
           + c02 * v * v + spec.slice_index * (d0 + d1 * u + d2 * v))
    return _wrap_phase(phi)


def synthesize_complex_slice(magnitude: Raster, phase: PhaseSpec) -> ComplexRaster:
    """Split a magnitude raster into noise-free real/imaginary components
    under the synthesized background phase."""
    phi = phase_map(magnitude.width, magnitude.height, phase)
    hint = magnitude.range_hint
    low, high = min(hint[0], -hint[1]), max(hint[1], -hint[0])
    real = Raster(magnitude.data * np.cos(phi), range_hint=(low, high))
    imag = Raster(magnitude.data * np.sin(phi), range_hint=(low, high))
    return ComplexRaster(real, imag)


# ---------------------------------------------------------------------------
# CLI-facing spec strings


# each noise kind's keys and their types; a spread of `auto` is None
_NOISE_KEYS = {"integral": {"level": float, "seed": int},
               "field": {"peak": float, "seed": int, "spread": lambda text:
                         None if text == "auto" else float(text)}}


def parse_noise_spec(text: str) -> NoiseSpec:
    """Parse strings like `integral:level=1000,seed=42` or
    `field:peak=500,spread=auto,seed=42` (the grammar of `parse_spec`).
    `level` is required; `peak` defaults to DEFAULT_PEAK_SIGMA, `spread`
    to `auto` (None: min(w, h) / 4) and `seed` to 0."""
    kind, given = parse_spec(text, "noise", _NOISE_KEYS)
    if kind == "integral":
        if "level" not in given:
            raise ConfigError(f"integral noise needs level= in {text!r}")
        return NoiseSpec("integral", given["level"], given.get("seed", 0))
    return NoiseSpec("spatial-field", given.get("peak", DEFAULT_PEAK_SIGMA),
                     given.get("seed", 0), given.get("spread"))


def apply_noise(image: Raster, spec: NoiseSpec) -> Raster:
    if spec.kind == "integral":
        return add_integral_noise(image, spec.level, spec.seed)
    field = make_noise_field(image.width, image.height, spread=spec.spread,
                             peak_sigma=spec.level)
    return add_spatial_noise(image, field, spec.seed)
