import json
import os
import pathlib
import subprocess
import sys

import pytest

import colift
from colift import cli, lifting, rings, skolem


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def udiag_file(tmp_path):
    path = tmp_path / "udiag.json"
    path.write_text(json.dumps({
        "ring": {"kind": "laurent", "var": "u", "coeff": "Z"},
        "matrix": {"form": "scalar_diagonal", "prefix": [], "tail": "u"},
    }), encoding="utf-8")
    return path


def test_lift_flagship_writes_certificate(tmp_path, udiag_file, capsys):
    out = tmp_path / "cert.json"
    code, stdout, _ = run_cli(["lift", "--hom", "zxy_to_laurent",
                               "--matrix", str(udiag_file),
                               "--window", "16", "--out", str(out)], capsys)
    assert code == 0
    data = json.loads(out.read_text(encoding="utf-8"))
    assert data["hom"] == "zxy_to_laurent"
    assert data["verified_window"] == 16
    assert "content_hash" in data


def test_lift_identity_spec(tmp_path, capsys):
    path = tmp_path / "id.json"
    path.write_text(json.dumps({"ring": "Z/5", "matrix": {"form": "identity"}}),
                    encoding="utf-8")
    code, stdout, _ = run_cli(["lift", "--hom", "z_to_z5",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 0
    assert "word length 0" in stdout


def test_lift_non_unit_diagonal_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "ring": {"kind": "laurent", "var": "u", "coeff": "Z"},
        "matrix": {"form": "scalar_diagonal", "prefix": [], "tail": "u + 1"},
    }), encoding="utf-8")
    code, _, stderr = run_cli(["lift", "--hom", "zxy_to_laurent",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 3
    assert "u + 1" in stderr


def _write(path, ring, matrix):
    path.write_text(json.dumps({"ring": ring, "matrix": matrix}),
                    encoding="utf-8")
    return path


def test_lift_block_over_the_dense_cap_exits_3(tmp_path, capsys):
    n = 16              # unit upper bidiagonal, invertible over Z/101
    corner = [["1" if i == j else "1" if j == i + 1 else "0"
               for j in range(n)] for i in range(n)]
    path = _write(tmp_path / "big.json", "Z/101",
                  {"form": "finite_perturbation", "corner": corner})
    code, _, stderr = run_cli(["lift", "--hom", "z_to_z101",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 3
    assert "block 0" in stderr and "16x16" in stderr


def _lift_and_verify(tmp_path, capsys, hom, path):
    cert = tmp_path / "cert.json"
    code, stdout, _ = run_cli(["lift", "--hom", hom, "--matrix", str(path),
                               "--window", "16", "--out", str(cert)], capsys)
    assert code == 0
    assert "PASS" in stdout
    code, stdout, _ = run_cli(["verify", "--certificate", str(cert),
                               "--window", "32", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"] and report["content_hash_ok"]
    return json.loads(cert.read_text(encoding="utf-8"))


LAURENT = {"kind": "laurent", "var": "u", "coeff": "Z"}
ELEMENTARY = {"form": "elementary", "cols": {"0": {"1": "u^-1 + 2"}},
              "families": [{"start": 3, "period": 2, "entries": {"-1": "u"}}]}
PERMUTATION = {"form": "permutation", "offset": 1, "period": 3,
               "residues": [2, 0, 1]}


def test_lift_elementary_input(tmp_path, capsys):
    path = _write(tmp_path / "e.json", LAURENT, ELEMENTARY)
    cert = _lift_and_verify(tmp_path, capsys, "zxy_to_laurent", path)
    assert [f["tag"] for f in cert["factors"]] == ["generator"]
    assert cert["factors"][0]["matrix"]["cols"] == {"0": {"1": "y + 2"}}


def test_lift_permutation_input(tmp_path, capsys):
    path = _write(tmp_path / "p.json", "Z/5", PERMUTATION)
    cert = _lift_and_verify(tmp_path, capsys, "z_to_z5", path)
    assert cert["factors"][0]["matrix"] == PERMUTATION


def test_lift_mixed_product_input(tmp_path, capsys):
    path = _write(tmp_path / "m.json", LAURENT, {"form": "product", "factors": [
        PERMUTATION, {"form": "scalar_diagonal", "prefix": [], "tail": "u"},
        ELEMENTARY]})
    cert = _lift_and_verify(tmp_path, capsys, "zxy_to_laurent", path)
    tags = [f["tag"] for f in cert["factors"]]
    assert tags[0] == tags[-1] == "generator"
    assert "swindle" in tags


def test_lift_runs_one_verification(tmp_path, udiag_file, capsys, monkeypatch):
    calls = []
    real = lifting.verify_certificate

    def counting(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(lifting, "verify_certificate", counting)
    monkeypatch.setattr(cli, "verify_certificate", counting)
    code, stdout, _ = run_cli(["lift", "--hom", "zxy_to_laurent",
                               "--matrix", str(udiag_file), "--window", "16"],
                              capsys)
    assert code == 0
    assert "verification on window 16: PASS" in stdout
    assert calls == [16]


def test_verify_parent_certificate_cli(capsys):
    """Certificates with dense block_diagonal sign factors still verify."""
    path = pathlib.Path(__file__).parent / "data" / "flagship_w16_parent.json"
    code, stdout, _ = run_cli(["verify", "--certificate", str(path),
                               "--window", "16"], capsys)
    assert code == 0
    assert "hash matches" in stdout


def test_lift_unknown_hom_exits_2(udiag_file, capsys):
    code, _, stderr = run_cli(["lift", "--hom", "nope",
                               "--matrix", str(udiag_file)], capsys)
    assert code == 2


def test_lift_bad_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, _ = run_cli(["lift", "--hom", "zxy_to_laurent",
                          "--matrix", str(path)], capsys)
    assert code == 2


def test_window_minimum_enforced(udiag_file, capsys):
    code, _, stderr = run_cli(["lift", "--hom", "zxy_to_laurent",
                               "--matrix", str(udiag_file),
                               "--window", "4"], capsys)
    assert code == 2
    assert "window" in stderr


def test_lift_then_verify_roundtrip(tmp_path, udiag_file, capsys):
    out = tmp_path / "cert.json"
    code, _, _ = run_cli(["lift", "--hom", "zxy_to_laurent",
                          "--matrix", str(udiag_file),
                          "--window", "16", "--out", str(out)], capsys)
    assert code == 0
    code, stdout, _ = run_cli(["verify", "--certificate", str(out),
                               "--window", "16", "--format", "json"], capsys)
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"] and report["content_hash_ok"]


def test_verify_detects_tampering(tmp_path, udiag_file, capsys):
    out = tmp_path / "cert.json"
    run_cli(["lift", "--hom", "zxy_to_laurent", "--matrix", str(udiag_file),
             "--window", "16", "--out", str(out)], capsys)
    data = json.loads(out.read_text(encoding="utf-8"))
    data["verified_window"] = 9999           # any byte change breaks the hash
    out.write_text(json.dumps(data), encoding="utf-8")
    code, _, _ = run_cli(["verify", "--certificate", str(out),
                          "--window", "16"], capsys)
    assert code == 4


def test_certificate_bytes_deterministic(tmp_path, udiag_file, capsys):
    out1 = tmp_path / "c1.json"
    out2 = tmp_path / "c2.json"
    run_cli(["lift", "--hom", "zxy_to_laurent", "--matrix", str(udiag_file),
             "--window", "16", "--out", str(out1)], capsys)
    run_cli(["lift", "--hom", "zxy_to_laurent", "--matrix", str(udiag_file),
             "--window", "16", "--out", str(out2)], capsys)
    assert out1.read_bytes() == out2.read_bytes()


def test_skolem_recover_cli(tmp_path, capsys):
    spec = skolem.spec_from_conjugator(rings.residue(5), ((1, 1), (0, 1)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(skolem.spec_to_json(spec)), encoding="utf-8")
    code, stdout, _ = run_cli(["skolem", "recover", "--spec", str(path),
                               "--format", "json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["conjugator"] == [[1, 1], [0, 1]]
    assert all(c["passed"] for c in data["validation"])


def test_skolem_invalid_spec_exits_4(tmp_path, capsys):
    spec = skolem.spec_from_conjugator(rings.residue(5), ((1, 0), (0, 1)))
    data = skolem.spec_to_json(spec)
    data["images"]["0,0"] = [[2, 0], [0, 0]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, _, _ = run_cli(["skolem", "recover", "--spec", str(path)], capsys)
    assert code == 4


def test_cohomology_threshold_table(capsys):
    code, stdout, _ = run_cli(["cohomology", "--system", "standard:P2",
                               "--cond", "V0", "--twist", "-5",
                               "--horizon", "12"], capsys)
    assert code == 0
    assert "n' = 3" in stdout


def test_cohomology_json_report(capsys):
    code, stdout, _ = run_cli(["cohomology", "--system", "standard:P2",
                               "--cond", "V0", "--twist", "-5",
                               "--horizon", "12", "--format", "json"], capsys)
    assert code == 0
    data = json.loads(stdout)
    assert data["verdicts"][0]["threshold"] == 3


def test_cohomology_counterexample_reports(capsys):
    for args in (["--report", "punctured", "--window", "4", "--horizon", "6"],
                 ["--report", "quotient", "--horizon", "8"],
                 ["--report", "nonfree", "--stages", "3", "--bound", "3"]):
        code, stdout, _ = run_cli(["cohomology"] + args, capsys)
        assert code == 0
        assert stdout.strip()


def test_demo_all_pass(capsys):
    code, stdout, _ = run_cli(["demo"], capsys)
    assert code == 0
    assert stdout.count("[PASS]") == 3


def test_demo_only_subset(capsys):
    code, stdout, _ = run_cli(["demo", "--only", "cohomology"], capsys)
    assert code == 0
    assert stdout.count("[PASS]") == 1
    assert "cohomology" in stdout


def test_demo_corrupted_registry_exits_2(tmp_path, capsys):
    path = tmp_path / "homs.json"
    path.write_text("{broken", encoding="utf-8")
    code, _, _ = run_cli(["demo", "--homs", str(path)], capsys)
    assert code == 2


def test_console_entry_point():
    # the child imports the same colift as this process, installed or not
    src = str(pathlib.Path(colift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "colift.cli", "cohomology", "--system",
         "standard:P1", "--cond", "G", "--twist", "-3", "--horizon", "8"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert "n' = 3" in proc.stdout
