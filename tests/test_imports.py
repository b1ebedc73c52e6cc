"""A process loads only what its work runs.

`import motifkit` loads no module, and the CLI commands that do not compute
with numpy (synth, discover and eval-boundaries) never import it, so a run of
one pays no numpy import.  Each command runs in a fresh interpreter, through
a wrapper around `cli.main` that reports whether numpy was loaded.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from motifkit import cli

ROOT = Path(__file__).resolve().parents[1]

WRAPPER = (
    "import sys; from motifkit import cli; code = cli.main(sys.argv[1:]); "
    "print('numpy loaded:', 'numpy' in sys.modules, file=sys.stderr); sys.exit(code)"
)


def python(*argv, cwd):
    return subprocess.run(
        [sys.executable, *map(str, argv)], cwd=cwd, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


def test_package_import_loads_no_module(tmp_path):
    listing = "import motifkit, sys; print(sorted(m for m in sys.modules if m.startswith('motifkit.')))"
    proc = python("-c", listing, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.fixture(scope="module")
def piece_dir(tmp_path_factory):
    """A synthetic piece with its truth, and poll's boundaries of its COSIATEC patterns."""
    d = tmp_path_factory.mktemp("piece")
    assert cli.main(["synth", "--seed", "1", "--name", "p", "--out-dir", str(d), "--quiet"]) == 0
    cos = str(d / "p.cos.json")
    assert cli.main(["discover", "--in", str(d / "p.csv"), "--alg", "cosiatec", "--out", cos]) == 0
    assert cli.main(["poll", "--in", cos, "--out-dir", str(d / "poll"), "--quiet"]) == 0
    return d


# Each command's argv, run in the piece's directory.
COMMANDS = {
    "synth": ["synth", "--seed", "2", "--name", "q", "--out-dir", "out"],
    **{
        f"discover {alg}": ["discover", "--in", "p.csv", "--alg", alg, "--out", "out.json"]
        for alg in ("sia", "siar:3", "siatec", "siatec-compress:cr", "siarct:1,2")
    },
    "discover cosiatec": ["discover", "--in", "p.csv", "--alg", "cosiatec", "--out", "out.json",
                          "--stats", "stats.json"],
    "eval-boundaries": ["eval-boundaries", "--pred", "poll/p.boundaries.json",
                        "--truth", "p.truth.json", "--out", "e.json"],
}


@pytest.mark.parametrize("command", COMMANDS)
def test_command_without_numpy_work_never_imports_it(piece_dir, command):
    proc = python("-c", WRAPPER, *COMMANDS[command], cwd=piece_dir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.endswith("numpy loaded: False\n"), proc.stderr
