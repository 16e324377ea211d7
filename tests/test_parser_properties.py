"""Properties: the command line's text parsers either return or raise
ConfigError, whatever the text, and `main(argv)` keeps its exit contract
whatever the flag values. Any other exception would reach the user as a
traceback instead of one `error: bad-arguments:` line. A run that succeeds
prints nothing on stderr, and one that fails prints only that line:
numpy's RuntimeWarnings would be printed there too."""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mkfilter import ClusterConfig, ConfigError, Raster, save_f64_raster, save_pgm
from mkfilter.bench import FILTERS, parse_filter_spec
from mkfilter.cli import _parse_coeffs, _parse_levels, main
from mkfilter.noise import parse_noise_spec
from mkfilter.phantoms import brain_slice

PARSERS = {
    "noise": parse_noise_spec,
    "filter": parse_filter_spec,
    "levels": _parse_levels,
    "coeffs": lambda text: _parse_coeffs(text, 3, "--phase-drift"),
}

# arbitrary text, and text built from the characters specs are made of
# behind a valid or near-valid prefix, so most examples get past the kind
SPEC_CHARS = "0123456789:,.=+-_ eEinfatyuxlvpkdsorchwb"
PREFIXES = ("", "integral:", "field:", "bf:", "mkf:", "tv:", "cf:", "level=",
            "integral:level=", "field:cx=", "mkf:depth=", "1:", "10,")
TEXT = st.one_of(
    st.text(max_size=40),
    st.builds(lambda prefix, rest: prefix + rest, st.sampled_from(PREFIXES),
              st.text(alphabet=SPEC_CHARS, max_size=30)),
)


@pytest.mark.parametrize("name", sorted(PARSERS))
@settings(max_examples=300, deadline=None)
@given(text=TEXT)
def test_parser_returns_or_raises_config_error(name, text):
    try:
        PARSERS[name](text)
    except ConfigError:
        pass


# ---------------------------------------------------------------------------
# the whole command line: `main(argv)` on an 8x8 PGM

# values of every kind a flag can be given; integers stay at most 12, which
# bounds the work a command can start (depth, radius, iterations)
VALUES = st.one_of(
    st.integers(1, 12).map(str),
    st.sampled_from(["0", "-1", "nan", "inf", "1e-300", "1e300"]),
    st.text(max_size=12),
)


def flag_lists(keys):
    """`--key=value` lists over the registry parameter names `keys`."""
    return st.lists(st.tuples(st.sampled_from(sorted(keys)), VALUES),
                    max_size=4).map(
        lambda flags: [f"--{key.replace('_', '-')}={value}"
                       for key, value in flags])


DENOISE_ARGS = st.sampled_from(sorted(FILTERS)).flatmap(
    lambda name: flag_lists(FILTERS[name].keys).map(
        lambda flags: ["--filter", name, *flags]))
CLUSTER_ARGS = flag_lists(key for key, (cls, _) in FILTERS["mkf"].keys.items()
                          if cls is ClusterConfig)
# `--noise` text: a kind, then options with the same values as the flags
NOISE_SPECS = st.builds(
    lambda kind, options: kind + ":" + ",".join(f"{key}={value}"
                                                for key, value in options),
    st.sampled_from(["integral", "field"]),
    st.lists(st.tuples(st.sampled_from(["level", "peak", "spread", "seed",
                                        "cx", "cy"]), VALUES), max_size=4))


@pytest.fixture(scope="module")
def small_pgm(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "in.pgm"
    values = np.random.default_rng(0).integers(0, 256, (8, 8))
    save_pgm(Raster(values.astype(np.float64)), path)
    return path


@pytest.fixture(scope="module")
def other_pgm(small_pgm):
    path = small_pgm.with_name("other.pgm")
    values = np.random.default_rng(1).integers(0, 256, (8, 8))
    save_pgm(Raster(values.astype(np.float64)), path)
    return path


def run_main(argv):
    """Exit code, stderr and RuntimeWarnings of one `main(argv)` call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit
            code = exc.code
    return code, err.getvalue(), [str(w.message) for w in caught
                                  if issubclass(w.category, RuntimeWarning)]


def assert_exit_contract(code, err, runtime_warnings):
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    assert not runtime_warnings, runtime_warnings
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert not err, err


@settings(max_examples=300, deadline=None)
@given(args=DENOISE_ARGS)
# overflows that are meant (a zero range factor, an infinite energy)
@example(args=["--filter", "bf", "--hi=1e300"])
@example(args=["--filter", "tv", "--lam=1e-300", "--step=1e300"])
# arrays larger than numpy can address: the energy trace, the padded image
@example(args=["--filter", "tv", "--iters=9223372036854775806"])
@example(args=["--filter", "tv", "--iters=100000000000000000000"])
@example(args=["--filter", "bf", "--radius=9223372036854775807"])
@example(args=["--filter", "bf", "--radius=99999999999999999999"])
@example(args=["--filter", "mkf", "--radius=9223372036854775807"])
@example(args=["--filter", "mkf", "--radius=99999999999999999999"])
def test_denoise_keeps_the_exit_contract(small_pgm, args):
    out = small_pgm.with_name("out.mkfr")
    assert_exit_contract(*run_main(["denoise", str(small_pgm), str(out),
                                    *args]))


# 16 px images near the float64 maximum, which the 8-bit PGM above never
# reaches: a window sum, a deviation or a TV step can overflow there
NEAR_MAX = {
    "constant": np.full((16, 16), 1.5e307),
    "checkerboard": np.where(np.indices((16, 16)).sum(axis=0) % 2,
                             1.6e307, 1.5e307),
}


# the TV and CF outcomes near the maximum: their overflow guards must raise
# exactly where the row-by-row forms did
NEAR_MAX_OUTCOMES = {
    ("tv", "constant"): (0, ""),
    ("tv", "checkerboard"): (2, "error: bad-arguments: the TV gradient norm "
                                "overflows the float64 range\n"),
    ("cf", "constant"): (0, ""),
    ("cf", "checkerboard"): (0, ""),
}


@pytest.mark.parametrize("image", sorted(NEAR_MAX))
@pytest.mark.parametrize("name", ["bf", "mkf", "tv", "cf"])
def test_denoise_keeps_the_exit_contract_near_max(tmp_path, name, image):
    path = tmp_path / "in.mkfr"
    save_f64_raster(Raster(NEAR_MAX[image]), path)
    code, err, runtime_warnings = run_main(["denoise", str(path),
                                            str(tmp_path / "out.mkfr"),
                                            "--filter", name])
    assert_exit_contract(code, err, runtime_warnings)
    assert NEAR_MAX_OUTCOMES.get((name, image), (code, err)) == (code, err)


@pytest.mark.parametrize("command", [
    ["denoise", "{pgm}", "{out}", "--filter", "tv",
     "--iters=9223372036854775806"],
    ["denoise", "{pgm}", "{out}", "--filter", "mkf",
     "--radius=99999999999999999999"],
    ["bench-bsd", "{bsd}", "--levels=10", "--filters",
     "bf:radius=9223372036854775807"],
    ["bench-brainweb", "{vol}", "--filters", "tv:iters=100000000000000000000"],
])
def test_unaddressable_sizes_are_memory_errors(small_pgm, bench_dir,
                                               command):
    paths = {"pgm": small_pgm, "out": small_pgm.with_name("out.mkfr"),
             "bsd": bench_dir / "bsd", "vol": bench_dir / "vol"}
    code, err, runtime_warnings = run_main(
        [arg.format(**paths) for arg in command]
        + ["--out-dir", str(bench_dir / "out")] * (command[0] != "denoise"))
    assert_exit_contract(code, err, runtime_warnings)
    assert code == 1
    assert err.startswith("error: memory: ") and "numpy can address" in err


@settings(max_examples=200, deadline=None)
@given(args=CLUSTER_ARGS)
@example(args=["--depth=--"])  # argparse leaves the flag an empty list
def test_cluster_keeps_the_exit_contract(small_pgm, args):
    assert_exit_contract(*run_main(["cluster", str(small_pgm), *args]))


@settings(max_examples=200, deadline=None)
@given(spec=NOISE_SPECS, suffix=st.sampled_from([".pgm", ".mkfr"]))
# spread^2 underflows to 0, 1/(2 spread^2) overflows, or r^2/(2 spread^2)
# does at the corners
@example(spec="field:spread=1e-300", suffix=".mkfr")
@example(spec="field:spread=1e-160", suffix=".mkfr")
@example(spec="field:spread=1e-154", suffix=".mkfr")
def test_noise_keeps_the_exit_contract(small_pgm, spec, suffix):
    out = small_pgm.with_name("noisy" + suffix)
    assert_exit_contract(*run_main(["noise", str(small_pgm), str(out),
                                    "--noise", spec]))


@settings(max_examples=100, deadline=None)
@given(value=VALUES)
@example(value="1e200")  # C2 = (0.03 L)^2 overflows
@example(value="1e100")  # C1 * C2 overflows
def test_metrics_keeps_the_exit_contract(small_pgm, other_pgm, value):
    assert_exit_contract(*run_main(["metrics", str(small_pgm), str(other_pgm),
                                    f"--range={value}"]))


# ---------------------------------------------------------------------------
# the bench commands: short filter lists with radius <= 2 and few
# iterations, and at most two levels, depths or sizes, so that an example
# stays cheap

BENCH_FILTERS = st.lists(st.sampled_from(
    ["bf:radius=1", "bf:hi=5,radius=2", "mkf:depth=2,radius=1",
     "mkf:depth=3,max_cluster=12,radius=2", "tv:iters=3", "cf:iters=1"]),
    min_size=1, max_size=2)
# a comma list of one or two values, never a `lo:hi:step` range
LEVELS = st.lists(VALUES.filter(lambda value: not set(value) & set(",:")),
                  min_size=1, max_size=2).map(",".join)
COUNTS = st.lists(st.integers(0, 40).map(str), min_size=1,
                  max_size=2).map(",".join)


def options(strategies):
    """`--flag=value` for any subset of the flags in `strategies`."""
    return st.fixed_dictionaries({}, optional=strategies).map(
        lambda given: [f"--{key}={value}" for key, value in given.items()])


@pytest.fixture(scope="module")
def bench_dir(small_pgm, other_pgm, tmp_path_factory):
    """Two 8 px PGMs under `bsd/` and one 8 px MKFR slice under `vol/`."""
    root = tmp_path_factory.mktemp("bench")
    (root / "bsd").mkdir()
    (root / "vol").mkdir()
    for path in (small_pgm, other_pgm):
        (root / "bsd" / path.name).write_bytes(path.read_bytes())
    save_f64_raster(brain_slice(8, 8), root / "vol" / "slice_000.mkfr")
    return root


@settings(max_examples=40, deadline=None)
@given(filters=BENCH_FILTERS, levels=LEVELS,
       flags=options({"seed": VALUES}))
# a single chart point beyond 2**53, where x + 1 rounds back to x
@example(filters=["bf:radius=1"], levels="1e17", flags=[])
# a padded image larger than numpy can address
@example(filters=["bf:radius=9223372036854775807"], levels="10", flags=[])
@example(filters=["bf:radius=99999999999999999999"], levels="10", flags=[])
def test_bench_bsd_keeps_the_exit_contract(bench_dir, filters, levels, flags):
    assert_exit_contract(*run_main([
        "bench-bsd", str(bench_dir / "bsd"), "--filters", *filters,
        f"--levels={levels}", *flags, "--out-dir", str(bench_dir / "out")]))


@settings(max_examples=40, deadline=None)
@given(filters=BENCH_FILTERS, flags=options(
    {key: VALUES for key in ("peak", "spread", "range", "seed")}))
# noise beyond the float64 range; SSIM products or TV's gradient norm
# beyond it
@example(filters=["bf:radius=1", "cf:iters=1"], flags=["--peak=1e308"])
@example(filters=["bf:radius=1", "cf:iters=1"], flags=["--peak=1e200"])
@example(filters=["tv:iters=3"], flags=["--peak=1e300"])
# an energy trace or a padded image larger than numpy can address
@example(filters=["tv:iters=9223372036854775806"], flags=[])
@example(filters=["tv:iters=100000000000000000000"], flags=[])
@example(filters=["bf:radius=9223372036854775807"], flags=[])
@example(filters=["bf:radius=99999999999999999999"], flags=[])
def test_bench_brainweb_keeps_the_exit_contract(bench_dir, filters, flags):
    assert_exit_contract(*run_main([
        "bench-brainweb", str(bench_dir / "vol"), "--filters", *filters,
        *flags, "--out-dir", str(bench_dir / "out")]))


@settings(max_examples=40, deadline=None)
@given(depths=COUNTS, sizes=COUNTS, levels=LEVELS,
       flags=options({key: VALUES for key in ("hx", "radius", "seed")}))
def test_sweep_depth_keeps_the_exit_contract(small_pgm, bench_dir, depths,
                                             sizes, levels, flags):
    assert_exit_contract(*run_main([
        "sweep-depth", str(small_pgm), f"--depths={depths}",
        f"--sizes={sizes}", f"--levels={levels}", *flags,
        "--out-dir", str(bench_dir / "out")]))
