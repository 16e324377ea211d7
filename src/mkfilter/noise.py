"""Synthesis of the two benchmark noise regimes and complex MRI test data.

Integrally-varying noise: one Gaussian level per image, expressed as a
variance in squared intensity units (the usual normalization divides by
255^2 = 65025 for 8-bit data). Spatially-varying noise: a per-pixel sigma
field shaped like a 2D Gaussian bump. Complex slices are synthesized from
a magnitude raster and a smooth background phase that drifts slice by
slice.

Noise is added in real-valued space, never clamped; 8-bit clamping only
happens at PGM export. All generators are seeded instances of numpy's
PCG64 (see GENERATOR_ID), deterministic per seed within one build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, overflow_is_config_error, require_bandwidth,
                     require_positive)
from .raster import ComplexRaster, Coordinate, Raster

__all__ = [
    "GENERATOR_ID",
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
]

GENERATOR_ID = "numpy-pcg64"

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


@dataclass(frozen=True)
class NoiseSpec:
    """Parsed noise request.

    kind 'integral': `level` is the per-image variance. kind
    'spatial-field': `level` is the peak sigma of the 2D Gaussian field;
    `center`/`spread` default to the image center pixel and min(w,h)/4.
    """

    kind: str
    level: float
    seed: int
    center: Coordinate | None = None
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
        out = f"field:peak={format_number(self.level)},spread={spread}"
        if self.center is not None:
            out += f",cx={self.center.x},cy={self.center.y}"
        return out


@dataclass(frozen=True)
class PhaseSpec:
    """Background phase for one slice: quadratic coefficients plus a
    slice-indexed linear drift, all in radians."""

    slice_index: int = 0
    coefficients: tuple = DEFAULT_PHASE_COEFFS
    drift: tuple = DEFAULT_PHASE_DRIFT


def add_integral_noise(image: Raster, level: float, seed: int) -> Raster:
    """Add i.i.d. zero-mean Gaussian noise of variance `level`."""
    require_positive(level=level)
    rng = np.random.default_rng(seed)
    with overflow_is_config_error("the noisy image"):
        noisy = image.data + rng.normal(0.0, math.sqrt(level), image.data.shape)
    return image.with_data(noisy)


def make_noise_field(width: int, height: int,
                     center: Coordinate | None = None,
                     spread: float | None = None,
                     peak_sigma: float = 500.0) -> Raster:
    """Per-pixel sigma field: a 2D Gaussian bump peaking at `center`.

    Defaults put the peak on the center pixel (w//2, h//2) with spread
    min(width, height) / 4, so the field's maximum equals peak_sigma
    exactly.
    """
    require_positive(peak_sigma=peak_sigma)
    if center is None:
        center = Coordinate(width // 2, height // 2)
    if spread is None:
        spread = min(width, height) / 4.0
    require_bandwidth(spread=spread)
    x = np.arange(width) - center.x
    y = np.arange(height) - center.y
    rsq = x[None, :] ** 2 + y[:, None] ** 2
    with np.errstate(over="ignore"):  # far from a narrow peak: exp(-inf) = 0
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
    c00, c10, c01, c20, c11, c02 = spec.coefficients
    d0, d1, d2 = spec.drift
    phi = (c00 + c10 * u + c01 * v + c20 * u * u + c11 * u * v + c02 * v * v
           + spec.slice_index * (d0 + d1 * u + d2 * v))
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


def parse_noise_spec(text: str) -> NoiseSpec:
    """Parse strings like `integral:level=1000,seed=42` or
    `field:peak=500,spread=auto,seed=42`."""
    kind, _, body = text.partition(":")
    options: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key:
                raise ConfigError(f"malformed noise option {item!r} in {text!r}")
            options[key.strip()] = value.strip()

    def take_float(key: str, default=None) -> float | None:
        raw = options.pop(key, None)
        if raw is None:
            return default
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"bad value for {key!r} in {text!r}") from None

    seed = options.pop("seed", "0")
    try:
        seed = int(seed)
    except ValueError:
        raise ConfigError(f"bad seed in {text!r}") from None

    if kind == "integral":
        level = take_float("level")
        if level is None:
            raise ConfigError(f"integral noise needs level= in {text!r}")
        spec = NoiseSpec(kind="integral", level=level, seed=seed)
    elif kind == "field":
        peak = take_float("peak", 500.0)
        if options.get("spread") == "auto":
            del options["spread"]
        spread = take_float("spread")  # None: the default spread
        center = None
        if "cx" in options or "cy" in options:
            try:
                center = Coordinate(int(options.pop("cx")),
                                    int(options.pop("cy")))
            except KeyError:
                raise ConfigError(f"cx and cy go together in {text!r}") from None
            except ValueError:
                raise ConfigError(f"bad center in {text!r}") from None
        spec = NoiseSpec(kind="spatial-field", level=peak, seed=seed,
                         center=center, spread=spread)
    else:
        raise ConfigError(f"unknown noise kind {kind!r} in {text!r}")
    if options:
        raise ConfigError(f"unknown noise options {sorted(options)} in {text!r}")
    return spec


def apply_noise(image: Raster, spec: NoiseSpec) -> Raster:
    if spec.kind == "integral":
        return add_integral_noise(image, spec.level, spec.seed)
    field = make_noise_field(image.width, image.height, center=spec.center,
                             spread=spec.spread, peak_sigma=spec.level)
    return add_spatial_noise(image, field, spec.seed)
