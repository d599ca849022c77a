"""End-to-end checks of the command line interface."""
from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import PROGRAMS_DIR

import galkit
from galkit import catalog, cli, fileio, galois, transforms
from galkit.cli import main
from galkit.functions import AbstractFn, ConcreteFn
from galkit.galois import CheckResult


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_builtin_prints_a_domain(capsys):
    code, out, _ = run(capsys, "builtin", "parity", "--bound", "8")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "cgc"
    assert data["carrier"]["ints"]["mode"] == "modular"


def test_builtin_emit_and_transform(tmp_path, capsys):
    domain = tmp_path / "sign.json"
    code, out, _ = run(
        capsys, "builtin", "sign_pgi", "--bound", "6", "--emit", str(domain)
    )
    assert code == 0 and domain.exists()
    out_path = tmp_path / "cgp.json"
    code, _, _ = run(
        capsys, "transform", "gc-cgp", str(domain), "--out", str(out_path)
    )
    assert code == 0
    back = fileio.load_domain(str(out_path))
    assert back.kind == "cgp"


def test_transform_checks_the_adjunction_of_a_wide_ppgc(tmp_path, capsys,
                                                        monkeypatch):
    domain = tmp_path / "signconst.json"
    code, _, _ = run(capsys, "builtin", "signconst_pcgc", "--bound", "64",
                     "--emit", str(domain))
    assert code == 0
    reports = []

    def check_gc(G):
        reports.append(galois.check_gc(G))
        return reports[-1]

    monkeypatch.setattr(transforms, "check_gc", check_gc)
    code, out, _ = run(capsys, "transform", "pcgc-ppgc", str(domain))
    assert code == 0 and json.loads(out)["kind"] == "gc"
    # 129 carrier values, so 2^129 concrete subsets: checked all the same
    assert [rep.is_gc for rep in reports] == [True]


# the class each transform reads, by the source tag of its pair
SOURCE_CLASS = {
    "cgc": galois.CarrierConn, "cgp": galois.CarrierConn, "pcgc": galois.CarrierConn,
    "pgc": galois.GaloisConn, "gc": galois.GaloisConn, "ppgc": galois.GaloisConn,
    "cco": galois.ClosureOp,
}


@pytest.mark.parametrize("name", catalog.BUILTIN_NAMES)
def test_transform_of_a_file_of_another_class_is_an_error(tmp_path, capsys, name):
    domain = tmp_path / f"{name}.json"
    assert run(capsys, "builtin", name, "--bound", "12", "--emit", str(domain))[0] == 0
    loaded = type(fileio.load_domain(str(domain))).__name__
    for pair in sorted(cli.TRANSFORMS):
        code, out, err = run(capsys, "transform", pair, str(domain))
        wanted = SOURCE_CLASS[pair.split("-")[0]].__name__
        if wanted != loaded:
            assert (code, out) == (1, ""), pair
            assert err == (f"error: {pair} reads a {wanted}, "
                           f"but {domain} holds a {loaded}\n"), pair
        else:
            assert code == 0 or err.startswith("error: "), pair


def test_bca_subcommand(tmp_path, capsys):
    domain = tmp_path / "sign.json"
    fileio.save_domain(catalog.builtin("sign_pgi", 6), str(domain))
    fn = tmp_path / "neg.json"
    carrier = catalog.builtin("sign_pgi", 6).carrier
    fileio.save_fn(
        "concrete",
        ConcreteFn(1, {v: carrier.clamp(-int(v)) for v in carrier.values}),
        str(fn),
    )
    code, out, _ = run(capsys, "bca", str(domain), str(fn))
    assert code == 0
    table = json.loads(out)["table"]
    assert table["<0"] == ">0" and table["≥0"] == "≤0"


def test_bca_names_a_result_outside_the_carrier(tmp_path, capsys):
    C = catalog.builtin("interval_pcgc", 10)
    domain = tmp_path / "ival.json"
    fileio.save_domain(C, str(domain))
    fn = tmp_path / "stray.json"
    fileio.save_fn(
        "concrete",
        ConcreteFn(1, {v: "zzz" if v == "0" else v for v in C.carrier.values}),
        str(fn),
    )
    code, out, err = run(capsys, "bca", str(domain), str(fn))
    assert code == 1 and out == ""
    assert "result 'zzz' leaves the carrier" in err


def test_soundcheck_subcommand(tmp_path, capsys):
    C = catalog.builtin("parity", 6)
    domain = tmp_path / "parity.json"
    fileio.save_domain(C, str(domain))
    cf = tmp_path / "succ.json"
    fileio.save_fn(
        "concrete",
        ConcreteFn(1, {v: C.carrier.clamp(int(v) + 1) for v in C.carrier.values}),
        str(cf),
    )
    af = tmp_path / "flip.json"
    fileio.save_fn(
        "abstract",
        AbstractFn(1, {"even": "odd", "odd": "even"}),
        str(af),
    )
    code, out, _ = run(
        capsys, "soundcheck", str(domain), str(cf), str(af), "--complete"
    )
    assert code == 0
    assert "sound/ημ: pass" in out and "complete/μμ: pass" in out

    bad = tmp_path / "stuck.json"
    fileio.save_fn(
        "abstract",
        AbstractFn(1, {"even": "even", "odd": "even"}),
        str(bad),
    )
    code, out, _ = run(capsys, "soundcheck", str(domain), str(cf), str(bad))
    assert code == 1
    assert "fail at" in out


def test_fuzz_subcommand(capsys):
    code, out, _ = run(
        capsys, "fuzz", "cgc", "--cases", "5", "--seed", "3",
        "--amax", "5", "--bmax", "5",
    )
    assert code == 0
    assert "5 passed, 0 failed" in out


def test_fuzz_counts_failing_seeds(monkeypatch, capsys):
    monkeypatch.setattr(cli, "check_cgc", lambda C: CheckResult(False))
    code, out, _ = run(
        capsys, "fuzz", "cgc", "--cases", "3", "--seed", "0",
        "--amax", "4", "--bmax", "4",
    )
    assert code == 1
    assert out.count("FAIL") == 3
    assert "0 passed, 3 failed" in out


def test_fuzz_failures_are_counted_under_python_O():
    script = (
        "import sys\n"
        "from galkit import cli\n"
        "from galkit.galois import CheckResult\n"
        "cli.check_cgc = lambda C: CheckResult(False)\n"
        "sys.exit(cli.main(['fuzz', 'cgc', '--cases', '2', '--amax', '4', '--bmax', '4']))\n"
    )
    src = os.path.dirname(os.path.dirname(galkit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "0 passed, 2 failed" in proc.stdout


def test_analyze_subcommand_text_and_json(capsys):
    path = os.path.join(PROGRAMS_DIR, "p01_doubling_loop.while")
    code, out, _ = run(capsys, "analyze", path)
    assert code == 0
    assert "{x ↦ >0, y ↦ 2}" in out
    code, out, _ = run(capsys, "analyze", path, "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["points"]["end"] == {"x": ">0", "y": "2"}


def test_analyze_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.while"
    bad.write_text("x := ;\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "parse error" in err


def test_analyze_a_superscript_digit_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.while"
    bad.write_text("x := 1;\ny := ²;\n", encoding="utf-8")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2 and "2:6: unexpected character '²'" in err


def test_analyze_domain_error_exit_code(capsys):
    path = os.path.join(PROGRAMS_DIR, "p01_doubling_loop.while")
    code, _, err = run(capsys, "analyze", path, "--domain", "parity")
    assert code == 3 and "domain error" in err


def test_unknown_domain_file_reports_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    with pytest.raises(FileNotFoundError):
        run(capsys, "transform", "cgc-pgc", str(missing))
