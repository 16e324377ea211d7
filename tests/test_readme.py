"""The README's library quick start and CLI examples run as written."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# runs the block read from stdin; the library imports numpy alone
RUNNER = """
import sys
exec(sys.stdin.read())
assert "scipy" not in sys.modules, "the quick start imported scipy"
"""


def quick_start() -> str:
    """The python block under the README's "## Library quick start"."""
    section = README.read_text(encoding="utf-8").split(
        "\n## Library quick start\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def run_cli_examples(directory: Path) -> list[list[str]]:
    """Run every `mkfilter ...` line of the bash block under the README's
    "## CLI" through `cli.main` in `directory`, on placeholder inputs made
    from 16 px phantoms, and return the command lines run. Imports
    mkfilter alone, so it also runs without the test extra."""
    from mkfilter import cli, save_f64_raster, save_pgm
    from mkfilter.phantoms import brain_slice, bsd_style

    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```bash\n", 1)[1].split("\n```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("mkfilter ")]
    (directory / "pgm_dir").mkdir()
    (directory / "mkfr_dir").mkdir()
    for seed, name in enumerate(("in", "clean", "restored", "image",
                                 "pgm_dir/img0")):
        save_pgm(bsd_style(16, 16, seed=seed), directory / f"{name}.pgm")
    save_f64_raster(brain_slice(16, 16), directory / "clean.mkfr")
    save_f64_raster(brain_slice(16, 16), directory / "mkfr_dir/slice_00.mkfr")
    cwd = os.getcwd()
    os.chdir(directory)  # the examples name their files relative to it
    try:
        for argv in commands:
            assert cli.main(argv) == 0, argv
    finally:
        os.chdir(cwd)
    return commands


def test_readme_quick_start_runs(src_env):
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=quick_start(),
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words[0::2] == ["mae", "ssim"]
    mae, ssim = map(float, words[1::2])
    assert mae > 0 and 0 < ssim <= 1


def test_readme_cli_examples_run(tmp_path):
    commands = run_cli_examples(tmp_path)
    assert len(commands) == 12
    assert {argv[0] for argv in commands} == {
        "denoise", "cluster", "noise", "metrics", "sweep-depth", "bench-bsd",
        "bench-brainweb"}
