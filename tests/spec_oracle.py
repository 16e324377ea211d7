"""Frozen spec-string oracle: the filter-spec, noise-spec and `--spread`
readers as they stood while each module carried its own item loop.

``parse_filter_spec``, ``parse_noise_spec`` and ``parse_spread`` are
verbatim copies of those readers (``parse_spread`` renamed from
``cli._parse_spread``), kept so that the library's one `name:key=value`
reader can be checked against them text for text: an equal spec from
both, or a ConfigError from both. They share only the spec types, the
filter registry and the value checks with the library.
"""

from __future__ import annotations

from mkfilter.bench import FILTERS, FilterSpec, filter_spec
from mkfilter.errors import ConfigError, require_bandwidth
from mkfilter.noise import DEFAULT_PEAK_SIGMA, NoiseSpec


def parse_filter_spec(text: str) -> FilterSpec:
    """Parse `bf:hi=57,hx=3` style strings; unset parameters take their
    defaults. The params dataclasses check the values here, so a bad
    value fails before any input is read."""
    name, _, body = text.partition(":")
    if name not in FILTERS:
        raise ConfigError(f"unknown filter {name!r} in {text!r}")
    defaults = FILTERS[name].defaults()
    given = {}
    for item in body.split(",") if body else ():
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep or key not in defaults:
            raise ConfigError(f"bad filter option {item!r} in {text!r}")
        if key in given:
            raise ConfigError(f"repeated filter option {key!r} in {text!r}")
        try:
            given[key] = type(defaults[key])(value)
        except ValueError:
            raise ConfigError(f"bad value for {key!r} in {text!r}") from None
    spec = filter_spec(name, given)
    spec.build()
    return spec


def parse_noise_spec(text: str) -> NoiseSpec:
    """Parse strings like `integral:level=1000,seed=42` or
    `field:peak=500,spread=auto,seed=42`."""
    kind, _, body = text.partition(":")
    options: dict[str, str] = {}
    if body:
        for item in body.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"malformed noise option {item!r} in {text!r}")
            if key in options:
                raise ConfigError(f"repeated noise option {key!r} in {text!r}")
            options[key] = value.strip()

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
        peak = take_float("peak", DEFAULT_PEAK_SIGMA)
        if options.get("spread") == "auto":
            del options["spread"]
        spread = take_float("spread")  # None: the default spread
        spec = NoiseSpec(kind="spatial-field", level=peak, seed=seed,
                         spread=spread)
    else:
        raise ConfigError(f"unknown noise kind {kind!r} in {text!r}")
    if options:
        raise ConfigError(f"unknown noise options {sorted(options)} in {text!r}")
    return spec


def parse_spread(text: str) -> float | None:
    """`--spread`: `auto` (None) or a width, checked before any read."""
    if text == "auto":
        return None
    try:
        spread = float(text)
    except ValueError:
        raise ConfigError(f"bad --spread {text!r}") from None
    require_bandwidth(spread=spread)
    return spread
