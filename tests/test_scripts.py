"""The scripts under ``scripts/`` run from a checkout with ``src`` on
PYTHONPATH, as README shows, and exit 0; ``roundtrip_fuzz`` counts a seed
whose check fails or whose transform raises, also under ``python -O``."""
from __future__ import annotations

import importlib.util
import os
import subprocess
import sys

import pytest

from galkit.errors import GalkitError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUZZ = os.path.join(ROOT, "scripts", "roundtrip_fuzz.py")


@pytest.mark.parametrize(
    "script", ["analyze_corpus", "reproduce_tables", "roundtrip_fuzz"]
)
def test_script_runs_from_a_checkout(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{script}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def load_roundtrip_fuzz():
    spec = importlib.util.spec_from_file_location("roundtrip_fuzz", FUZZ)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def raise_galkit_error(*args):
    raise GalkitError("transform failed")


@pytest.mark.parametrize("name, fake", [
    ("nonempty_iso", lambda a, b: False),
    ("t_pgc", raise_galkit_error),
])
def test_roundtrip_fuzz_counts_failed_seeds(monkeypatch, capsys, name, fake):
    fuzz = load_roundtrip_fuzz()
    monkeypatch.setattr(fuzz, name, fake)
    assert fuzz.main(["--seeds", "2"]) == 1
    out = capsys.readouterr().out
    assert out.count("FAIL") == 2
    assert "0/2 seeds passed" in out


def test_roundtrip_fuzz_counts_failed_checks_under_python_O():
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('roundtrip_fuzz', {FUZZ!r})\n"
        "fuzz = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(fuzz)\n"
        "fuzz.nonempty_iso = lambda a, b: False\n"
        "sys.exit(fuzz.main(['--seeds', '2']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 1, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "0/2 seeds passed" in proc.stdout
