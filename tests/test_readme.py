"""The README's library quick start runs as written."""

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


def test_readme_quick_start_runs(src_env):
    proc = subprocess.run([sys.executable, "-c", RUNNER], input=quick_start(),
                          capture_output=True, text=True, env=src_env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert words[0::2] == ["mae", "ssim"]
    mae, ssim = map(float, words[1::2])
    assert mae > 0 and 0 < ssim <= 1
