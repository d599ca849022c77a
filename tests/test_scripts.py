"""The scripts under ``scripts/`` run from a checkout with ``src`` on
PYTHONPATH, as README shows, and exit 0; ``analyze_corpus`` prints the
checked-in expected output; ``roundtrip_fuzz`` counts a seed
whose check fails or whose transform raises, also under ``python -O``;
``bench_trajectory`` measures two commits of a repository in one session;
``code_lines`` counts neither blank lines, comments nor docstrings;
``size_ladder`` times every layer it names at its two smallest sizes; and
``output_dump`` prints the same bytes under two hash seeds."""
from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys

import pytest

from galkit import catalog
from galkit.errors import GalkitError

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FUZZ = os.path.join(ROOT, "scripts", "roundtrip_fuzz.py")
# the stdout of scripts/analyze_corpus.py over tests/programs, at the default
# domain and bound
CORPUS_EXPECTED = os.path.join(ROOT, "tests", "programs", "analyze_corpus.expected")


@pytest.mark.parametrize(
    "script", ["analyze_corpus", "reproduce_tables", "roundtrip_fuzz"]
)
def test_script_runs_from_a_checkout(script):
    proc = run_script(script)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def run_script(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", f"{script}.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        encoding="utf-8",
    )


def test_corpus_output_is_pinned():
    with open(CORPUS_EXPECTED, encoding="utf-8") as fh:
        expected = fh.read()
    assert run_script("analyze_corpus").stdout == expected


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


def test_bench_trajectory_measures_two_commits_in_one_session(tmp_path):
    # a repository of its own: a checkout under test may be shallow or no
    # repository at all (a ``git archive`` copy)
    repo = tmp_path / "repo"
    for part in ("src", "perfbench", os.path.join("tests", "programs")):
        shutil.copytree(os.path.join(ROOT, part), repo / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))

    def git(*args):
        subprocess.run(["git", "-C", str(repo), "-c", "user.name=bench",
                        "-c", "user.email=bench@example.invalid", *args],
                       check=True, capture_output=True, timeout=60)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "one")
    (repo / "NOTE").write_text("two\n")
    git("add", "-A")
    git("commit", "-q", "-m", "two")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "bench_trajectory.py"),
         "--repo", str(repo), "--out", str(out), "--pairs", "1", "--seconds", "1",
         "--seed", "1", "--workload", "analyze-corpus", "old=HEAD~1", "new=HEAD"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    docs = {}
    for label in ("old", "new"):
        with open(out / f"BENCH_{label}.json", encoding="utf-8") as fh:
            docs[label] = json.load(fh)
    assert docs["old"]["session"] == docs["new"]["session"]
    assert docs["old"]["sha"] != docs["new"]["sha"]
    assert all(len(d["sha"]) == 40 and d["seeds"] == [1] for d in docs.values())
    # the second commit changes no file under src/: both name the same tree
    src_tree = subprocess.run(["git", "-C", str(repo), "rev-parse", "HEAD:src"],
                              check=True, capture_output=True, text=True).stdout.strip()
    assert docs["old"]["src_tree"] == docs["new"]["src_tree"] == src_tree
    for name in ("throughput_ops_per_s", "setup_s", "peak_rss_mb"):
        metrics = [d["workloads"]["analyze-corpus"]["metrics"][name] for d in docs.values()]
        for m in metrics:
            assert len(m["runs"]) == 1 and m["q1"] == m["median"] == m["q3"] == m["runs"][0]
        assert sum(m["wins"] for m in metrics) <= 1  # a tie is a win for none
    assert all(d["workloads"]["analyze-corpus"]["correct"] for d in docs.values())
    assert all(d["workloads"]["analyze-corpus"]["failed"] == 0 for d in docs.values())


CODE_LINES_FIXTURE = '''"""A module docstring
over two lines."""
import os

# a comment
def f(x):
    """A docstring."""
    return (x +
            1)  # a trailing comment


VALUE = """a string that is no docstring,
over two lines"""
'''


def test_code_lines_counts_neither_blanks_comments_nor_docstrings(tmp_path):
    package = tmp_path / "src" / "galkit"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(CODE_LINES_FIXTURE)
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "code_lines.py"),
         "--root", str(tmp_path)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    # import, def, the two lines of the return and the two of VALUE
    assert json.loads(proc.stdout) == {
        "modules": {"__init__.py": 0, "mod.py": 6}, "total": 6}


def test_size_ladder_times_each_layer_at_its_two_smallest_sizes(tmp_path):
    out = tmp_path / "ladder.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "size_ladder.py"),
         "--sizes", "16,32", "--repeat", "1", "--out", str(out)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    ladder = json.loads(proc.stdout)
    assert json.loads(out.read_text()) == ladder
    assert (ladder["sizes"], ladder["repeat"]) == ([16, 32], 1)
    assert list(ladder["layers"]) == ["signconst_pcgc", "check_pcgc", "t_ppgc",
                                      "classify_partitioning", "check_gc", "t_pcgc",
                                      "analyze", "precision_cmp", "renaming_witnesses",
                                      "nonempty_iso", "check_gc_sign_mutant",
                                      "ordered_round_trip", "moore_chain", "moore_antichain"]
    for layer in ladder["layers"].values():
        assert len(layer["ms"]) == 2 and all(t > 0 for t in layer["ms"])
        assert isinstance(layer["slope"], float)


def test_output_dump_does_not_depend_on_the_hash_seed():
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            p for p in (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "scripts", "output_dump.py"),
             "--bounds", "12", "--seeds", "2"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
            encoding="utf-8",
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    labels = [f"builtin {name} 12" for name in catalog.BUILTIN_NAMES]
    labels += [f"gen {kind} {seed}" for kind in ("cgc", "pgc", "ppgc", "cgp") for seed in (0, 1)]
    labels += [f"gen_downsets_gc {seed}" for seed in (0, 1)]
    # each instance opens with its own line, in this order
    assert [head for line in lines if (head := line.split(": ", 1)[0]) in labels] == labels
    # each checker called twice gives one report
    for first, second in zip(lines, lines[1:]):
        if " #2: " in second:
            assert first.replace(" #1: ", " #2: ") == second
    assert "check_gc #2" in outs[0] and "t_pgc reload: same" in outs[0]
