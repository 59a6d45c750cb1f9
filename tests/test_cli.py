import json
import os
import pathlib
import random
import re
import subprocess
import sys
import time

import pytest

import colift
from colift import cli, cohomology, dense, lifting, rings, skolem

from conftest import random_invertible_mod


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
    n = 33              # unit upper bidiagonal, invertible over Z/101
    corner = [["1" if i == j else "1" if j == i + 1 else "0"
               for j in range(n)] for i in range(n)]
    path = _write(tmp_path / "big.json", "Z/101",
                  {"form": "finite_perturbation", "corner": corner})
    code, _, stderr = run_cli(["lift", "--hom", "z_to_z101",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 3
    assert "block 0" in stderr and "33x33" in stderr


def test_lift_and_verify_a_16x16_tail_block(tmp_path, capsys):
    """A non-diagonal 16x16 tail block, over the old 14x14 cap, lifts and
    verifies at window 16."""
    block = random_invertible_mod(rings.residue(101), 16, random.Random(16))
    tail = [[rings.render(v) for v in row] for row in block]
    path = _write(tmp_path / "tail16.json", "Z/101",
                  {"form": "block_diagonal", "prefix": [[["3"]]], "tail": tail})
    cert = tmp_path / "cert.json"
    code, stdout, _ = run_cli(["lift", "--hom", "z_to_z101", "--matrix",
                               str(path), "--window", "16", "--out", str(cert)],
                              capsys)
    assert code == 0 and "PASS" in stdout
    code, stdout, _ = run_cli(["verify", "--certificate", str(cert),
                               "--window", "16"], capsys)
    assert code == 0 and "PASS" in stdout


def test_lift_inverts_a_10x10_corner_once(tmp_path, capsys, monkeypatch):
    rng = random.Random(10)
    n, p = 10, 101
    lower = [[rng.randrange(p) if i > j else int(i == j) for j in range(n)]
             for i in range(n)]
    upper = [[rng.randrange(p) if i < j else rng.randrange(1, p) if i == j
              else 0 for j in range(n)] for i in range(n)]
    corner = [[str(sum(lower[i][t] * upper[t][j] for t in range(n)) % p)
               for j in range(n)] for i in range(n)]
    path = _write(tmp_path / "corner.json", "Z/101",
                  {"form": "finite_perturbation", "corner": corner})
    sizes = []
    real = dense.adjugate_inverse

    def counting(a, block_index=None):
        sizes.append(len(a))
        return real(a, block_index=block_index)

    monkeypatch.setattr(dense, "adjugate_inverse", counting)
    code, stdout, _ = run_cli(["lift", "--hom", "z_to_z101",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 0
    assert "PASS" in stdout
    assert sizes == [10]


def test_lift_singular_prefix_block_exits_3(tmp_path, capsys):
    path = _write(tmp_path / "singular.json", "Z/101", {
        "form": "block_diagonal", "prefix": [[["1"]], [["1", "2"], ["2", "4"]]],
        "tail": [["3"]]})
    code, _, stderr = run_cli(["lift", "--hom", "z_to_z101",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 3
    assert "block 1" in stderr


ZERO_SIZE_FORMS = [
    {"form": "finite_perturbation", "corner": []},
    {"form": "block_diagonal", "prefix": [[]], "tail": None},
    {"form": "block_diagonal", "prefix": [], "tail": []},
]


@pytest.mark.parametrize("matrix, expected", zip(ZERO_SIZE_FORMS, (0, 2, 2)))
def test_lift_zero_size_blocks(tmp_path, capsys, matrix, expected):
    """A 0x0 corner is the identity; a 0x0 block is an input error."""
    path = _write(tmp_path / "empty.json", "Z/101", matrix)
    code, _, stderr = run_cli(["lift", "--hom", "z_to_z101",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == expected
    assert "Traceback" not in stderr


@pytest.mark.parametrize("matrix, expected", zip(ZERO_SIZE_FORMS, (4, 2, 2)))
def test_verify_zero_size_factors(tmp_path, capsys, matrix, expected):
    """A certificate factor with a 0x0 block ends in an exit code: the 0x0
    corner is outside the liftable classes, a 0x0 block is malformed."""
    cert = _certificate_with_factor(tmp_path, capsys, matrix)
    code, _, stderr = run_cli(["verify", "--certificate", str(cert),
                               "--window", "16"], capsys)
    assert code == expected
    assert "Traceback" not in stderr


def test_verify_block_over_the_dense_cap_exits_3(tmp_path, capsys):
    """A certificate factor with a non-diagonal 33x33 block is outside the
    dense cap: exit 3, as for `lift`."""
    n = 33
    block = [[str(int(c in (r, r + 1))) for c in range(n)] for r in range(n)]
    cert = _certificate_with_factor(tmp_path, capsys, {
        "form": "block_diagonal", "prefix": [block], "tail": None})
    code, _, stderr = run_cli(["verify", "--certificate", str(cert),
                               "--window", "16"], capsys)
    assert code == 3
    assert "32x32" in stderr


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
    # residues 2, 0, 1 are the rotation by 2, which the writer names
    assert cert["factors"][0]["matrix"] == {"form": "permutation", "offset": 1,
                                            "period": 3, "rotate": 2}


def test_lift_long_scalar_tail_cycle(tmp_path, capsys):
    """A unit tail cycle longer than the dense cap lifts entrywise."""
    cycle = [f"u^{e}" for e in range(1, 17)]
    path = _write(tmp_path / "cycle.json", LAURENT,
                  {"form": "scalar_diagonal", "prefix": [], "tail": cycle})
    _lift_and_verify(tmp_path, capsys, "zxy_to_laurent", path)


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


def test_lift_along_a_hom_whose_section_breaks_exits_2(tmp_path, udiag_file,
                                                     monkeypatch, capsys):
    """x -> u^2 under laurent_monomial: the section of u maps to u^2, which
    the registry refuses on load, before any lift runs."""
    homs = tmp_path / "homs.json"
    homs.write_text(json.dumps({"sq": {
        "source": {"kind": "polynomial", "vars": ["x", "y"], "coeff": "Z"},
        "target": LAURENT, "images": {"x": "u^2", "y": "u^-1"},
        "section": "laurent_monomial"}}), encoding="utf-8")
    lifts = []
    monkeypatch.setattr(cli, "gl_lift", lambda *a: lifts.append(a))
    code, _, stderr = run_cli(["lift", "--hom", "sq", "--homs", str(homs),
                               "--matrix", str(udiag_file)], capsys)
    assert code == 2
    assert "sq" in stderr and "lifts u " in stderr
    assert lifts == []


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


def _flagship_certificate(tmp_path, udiag_file, capsys):
    out = tmp_path / "cert.json"
    run_cli(["lift", "--hom", "zxy_to_laurent", "--matrix", str(udiag_file),
             "--window", "16", "--out", str(out)], capsys)
    return out, json.loads(out.read_text(encoding="utf-8"))


@pytest.mark.parametrize("change, field", [
    (lambda d: [d], "factors"),
    (lambda d: {**d, "factors": 5}, "factors"),
    (lambda d: {**d, "factors": ["x"]}, "factors"),
    (lambda d: {k: v for k, v in d.items() if k != "factors"}, "factors"),
    (lambda d: {**d, "input": 5}, "matrix"),
    (lambda d: {**d, "factors": [{"tag": "swindle", "side": "L", "matrix": 5}]},
     "matrix"),
], ids=["list", "factors-int", "factor-str", "factors-missing", "input-int",
        "factor-matrix-int"])
def test_verify_malformed_certificate_shape_exits_2(tmp_path, udiag_file,
                                                    capsys, change, field):
    out, data = _flagship_certificate(tmp_path, udiag_file, capsys)
    out.write_text(json.dumps(change(data)), encoding="utf-8")
    code, _, stderr = run_cli(["verify", "--certificate", str(out),
                               "--window", "16"], capsys)
    assert code == 2
    assert field in stderr


def _certificate_with_factor(tmp_path, capsys, matrix):
    """An identity certificate over Z/5 with `matrix` appended as a
    generator factor and its hash recomputed."""
    path = _write(tmp_path / "id.json", "Z/5", {"form": "identity"})
    cert = tmp_path / "cert.json"
    code, _, _ = run_cli(["lift", "--hom", "z_to_z5", "--matrix", str(path),
                          "--window", "16", "--out", str(cert)], capsys)
    assert code == 0
    data = json.loads(cert.read_text(encoding="utf-8"))
    data["factors"].append({"tag": "generator", "side": "L", "matrix": matrix})
    data["content_hash"] = lifting._content_hash(data)
    cert.write_text(json.dumps(data), encoding="utf-8")
    return cert


@pytest.mark.parametrize("matrix", [
    {"form": "permutation", "offset": 0, "period": 0, "residues": []},
    {"form": "permutation", "offset": -3, "period": 2, "residues": [1, 0]},
    {"form": "permutation", "map": {"-1": 0, "0": -1}},
], ids=["period-0", "negative-offset", "negative-index"])
def test_malformed_permutation_exits_2(tmp_path, capsys, matrix):
    """A permutation with period 0, a negative offset or a negative index
    is malformed, in a matrix file and as a certificate factor."""
    path = _write(tmp_path / "p.json", "Z/5", matrix)
    code, _, stderr = run_cli(["lift", "--hom", "z_to_z5",
                               "--matrix", str(path), "--window", "8"], capsys)
    assert code == 2
    assert "Traceback" not in stderr
    cert = _certificate_with_factor(tmp_path, capsys, matrix)
    code, _, stderr = run_cli(["verify", "--certificate", str(cert),
                               "--window", "8"], capsys)
    assert code == 2
    assert "Traceback" not in stderr


HOSTILE_SHAPES = [
    ({"form": "elementary", "cols": {}, "families": [5]}, "'families'"),
    ({"form": "elementary", "cols": {},
      "families": [{"start": 0, "period": 2, "entries": 5}]}, "'entries'"),
    ({"form": "elementary", "cols": 5}, "'cols'"),
    ({"form": "scalar_diagonal", "prefix": 5, "tail": "1"}, "'prefix'"),
    ({"form": "block_diagonal", "prefix": 5}, "'prefix'"),
    ({"form": "finite_perturbation", "corner": 5}, "'corner'"),
    ({"form": "permutation", "map": 5}, "'map'"),
    ({"form": "product", "factors": 5}, "'factors'"),
    ({"form": "elementary", "cols": {"0": 5}}, "'cols'"),
    ({"form": "block_diagonal", "prefix": [], "tail": [5]}, "'tail'"),
    ({"form": "permutation", "map": {"0": [1]}}, "'map'"),
    ({"form": "finite_perturbation", "corner": [[5]]}, "expression string"),
]


@pytest.mark.parametrize("matrix, message", HOSTILE_SHAPES, ids=[
    "family-not-object", "entries-not-object", "cols-not-object",
    "diagonal-prefix-not-list", "block-prefix-not-list", "corner-not-list",
    "map-not-object", "factors-not-list", "column-not-object", "tail-row-not-list",
    "map-image-not-index", "entry-not-string"])
def test_hostile_json_shapes_exit_2(tmp_path, capsys, matrix, message):
    """A field of the wrong JSON type is an input error naming the field,
    in a matrix file and as a certificate factor."""
    path = _write(tmp_path / "m.json", "Z/5", matrix)
    cert = _certificate_with_factor(tmp_path, capsys, matrix)
    for argv in (["lift", "--hom", "z_to_z5", "--matrix", str(path)],
                 ["verify", "--certificate", str(cert)]):
        code, _, stderr = run_cli(argv + ["--window", "8"], capsys)
        assert code == 2
        assert message in stderr and "Traceback" not in stderr


def _family(stride=1, count=1, start=0, period=4, entries=None):
    return {"start": start, "period": period, "entries": entries or {"2": "1"},
            "stride": stride, "count": count}


HOSTILE_RUNS = [
    ({"form": "elementary", "cols": {}, "families": [_family(stride=0, count=2)]},
     "stride and count must be at least 1"),
    ({"form": "elementary", "cols": {}, "families": [_family(count=0)]},
     "stride and count must be at least 1"),
    ({"form": "elementary", "cols": {}, "families": [_family(count="2")]},
     "'count' must be an integer"),
    ({"form": "elementary", "cols": {}, "families": [
        _family(count=2), _family(start=5)]},
     "overlapping column families"),
    ({"form": "elementary", "cols": {}, "families": [
        _family(period=2, count=3, entries={"5": "1"})]},
     "overlapping column families"),
    ({"form": "elementary", "cols": {}, "families": [
        _family(period=2, count=10 ** 12)]},
     "overlapping column families"),
    ({"form": "elementary", "cols": {}, "families": [
        _family(period=10 ** 12, count=10 ** 9, entries={"-1": "1"}, start=1)]},
     "MAX_EXPANSION"),
    ({"form": "scalar_diagonal", "prefix": [["1", 10 ** 12]], "tail": "1"},
     "MAX_EXPANSION"),
    ({"form": "scalar_diagonal", "prefix": [], "tail": [["1", 0]]},
     "count >= 1"),
    ({"form": "permutation", "offset": 0, "period": 10 ** 12, "rotate": 1},
     "MAX_EXPANSION"),
    ({"form": "permutation", "offset": 0, "period": 4, "rotate": 4},
     "0 <= rotate < period"),
    ({"form": "permutation", "offset": 0, "period": 4, "rotate": -1},
     "0 <= rotate < period"),
]


@pytest.mark.parametrize("matrix, message", HOSTILE_RUNS, ids=[
    "stride-0", "count-0", "count-str", "runs-overlap", "count-over-period",
    "huge-count-over-period", "huge-expansion", "huge-diagonal-run",
    "diagonal-run-count-0", "huge-rotation", "rotate-is-period", "rotate-negative"])
def test_hostile_compressed_forms_exit_2_quickly(tmp_path, capsys, matrix, message):
    """Runs, [expr, count] pairs and rotations are bounded before they are
    expanded, in a matrix file and as a certificate factor."""
    path = _write(tmp_path / "m.json", "Z/5", matrix)
    cert = _certificate_with_factor(tmp_path, capsys, matrix)
    for argv in (["lift", "--hom", "z_to_z5", "--matrix", str(path)],
                 ["verify", "--certificate", str(cert)]):
        t0 = time.perf_counter()
        code, _, stderr = run_cli(argv + ["--window", "8"], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 2
        assert message in stderr and "Traceback" not in stderr


def test_flagship_certificate_size_is_flat_in_the_window(tmp_path, udiag_file, capsys):
    """The window-64 flagship certificate the CLI writes is under 10 KB, and
    at window 1024 it is at most 1.2x that, as for a Z/101 block diagonal
    with a 3x3 prefix block and a k=4 tail, and for the tail cycle
    (u, u, -u), whose equal columns are not one arithmetic progression."""
    rng = random.Random(9)
    rendered = lambda k: [[rings.render(v) for v in row]
                          for row in random_invertible_mod(rings.residue(101), k, rng)]
    blocks = _write(tmp_path / "blocks.json", "Z/101", {
        "form": "block_diagonal", "prefix": [rendered(3)], "tail": rendered(4)})
    uuu = _write(tmp_path / "uuu.json", LAURENT, {
        "form": "scalar_diagonal", "prefix": [], "tail": ["u", "u", "-u"]})
    sizes = {}
    for hom, path in (("zxy_to_laurent", udiag_file), ("z_to_z101", blocks),
                      ("zxy_to_laurent", uuu)):
        for window in (64, 1024):
            out = tmp_path / f"{hom}_{window}.json"
            code, _, _ = run_cli(["lift", "--hom", hom, "--matrix", str(path),
                                  "--window", str(window), "--out", str(out)], capsys)
            assert code == 0
            sizes[path, window] = out.stat().st_size
        assert sizes[path, 1024] <= 1.2 * sizes[path, 64]
    assert sizes[udiag_file, 64] < 10_000


def test_long_scalar_tail_cycle_lifts_quickly(tmp_path, capsys):
    """A tail cycle of period 3200 stays a diagonal block: it is never
    expanded to a dense 3200 x 3200 block.  Its one copy holds two stretches
    of 1600 equal columns, each one column-order run, so the certificate
    stays small (one run per column would make it about 2.8 MB)."""
    path = _write(tmp_path / "tail.json", LAURENT, {
        "form": "scalar_diagonal", "prefix": [],
        "tail": [["u", 1600], ["-1", 1600]]})
    out = tmp_path / "cert.json"
    t0 = time.perf_counter()
    code, stdout, _ = run_cli(["lift", "--hom", "zxy_to_laurent", "--matrix",
                               str(path), "--window", "8", "--out", str(out)],
                              capsys)
    assert code == 0
    assert time.perf_counter() - t0 < 2.0
    assert "verification on window 8: PASS" in stdout
    assert out.stat().st_size < 10_000


@pytest.mark.parametrize("expr", ["(1+u)^300000", "(2)^99999999"])
def test_oversized_power_exits_2_quickly(tmp_path, udiag_file, capsys, expr):
    path = _write(tmp_path / "pow.json", LAURENT,
                  {"form": "scalar_diagonal", "prefix": [], "tail": expr})
    t0 = time.perf_counter()
    code, _, stderr = run_cli(["lift", "--hom", "zxy_to_laurent",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 2 and "MAX_POWER_WORK" in stderr
    assert time.perf_counter() - t0 < 1.0
    out, data = _flagship_certificate(tmp_path, udiag_file, capsys)
    data["input"]["tail"] = expr
    data["content_hash"] = lifting._content_hash(data)
    out.write_text(json.dumps(data), encoding="utf-8")
    t0 = time.perf_counter()
    code, _, stderr = run_cli(["verify", "--certificate", str(out),
                               "--window", "16"], capsys)
    assert code == 2 and "MAX_POWER_WORK" in stderr
    assert time.perf_counter() - t0 < 1.0


DEEP = "(" * 5000 + "u" + ")" * 5000


def test_lift_deeply_nested_expression_exits_2(tmp_path, capsys):
    path = _write(tmp_path / "deep.json", LAURENT,
                  {"form": "scalar_diagonal", "prefix": [], "tail": DEEP})
    code, _, stderr = run_cli(["lift", "--hom", "zxy_to_laurent",
                               "--matrix", str(path), "--window", "16"], capsys)
    assert code == 2
    assert f"nesting deeper than {rings.MAX_NESTING_DEPTH}" in stderr


def test_verify_deeply_nested_input_exits_2(tmp_path, udiag_file, capsys):
    out, data = _flagship_certificate(tmp_path, udiag_file, capsys)
    data["input"]["tail"] = DEEP
    data["content_hash"] = lifting._content_hash(data)
    out.write_text(json.dumps(data), encoding="utf-8")
    code, _, stderr = run_cli(["verify", "--certificate", str(out),
                               "--window", "16"], capsys)
    assert code == 2
    assert f"nesting deeper than {rings.MAX_NESTING_DEPTH}" in stderr


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000
DEEP_PRODUCT = ('{"form": "product", "factors": [' * 3000 + '{"form": "identity"}'
                + "]}" * 3000)


@pytest.mark.parametrize("command, nest", [
    ("lift", DEEP_ARRAY), ("lift", DEEP_PRODUCT),
    ("verify", DEEP_ARRAY), ("verify", DEEP_PRODUCT),
    ("skolem", DEEP_ARRAY), ("homs", DEEP_ARRAY),
], ids=["lift-array", "lift-product", "verify-array", "verify-product",
        "skolem-array", "homs-array"])
def test_deeply_nested_json_exits_2(tmp_path, udiag_file, capsys, command, nest):
    """JSON nested past the decoder's recursion limit, in any file the CLI
    reads, is an input error: exit 2, no traceback."""
    deep = tmp_path / "deep.json"
    if command == "lift":
        deep.write_text('{"ring": "Z/5", "matrix": ' + nest + "}", encoding="utf-8")
        argv = ["lift", "--hom", "z_to_z5", "--matrix", str(deep)]
    elif command == "verify":
        _, data = _flagship_certificate(tmp_path, udiag_file, capsys)
        text = json.dumps({**data, "factors": "NEST"})
        deep.write_text(text.replace(
            '"NEST"', '[{"tag": "swindle", "side": "L", "matrix": ' + nest + "}]"),
            encoding="utf-8")
        argv = ["verify", "--certificate", str(deep)]
    elif command == "skolem":
        deep.write_text('{"n": 1, "ring": "Z/5", "images": ' + nest + "}",
                        encoding="utf-8")
        argv = ["skolem", "recover", "--spec", str(deep)]
    else:
        deep.write_text('{"h": ' + nest + "}", encoding="utf-8")
        argv = ["lift", "--hom", "h", "--homs", str(deep),
                "--matrix", str(udiag_file)]
    code, _, stderr = run_cli(argv + ["--window", "16"] * (command != "skolem"),
                              capsys)
    assert code == 2
    assert "Traceback" not in stderr
    assert "nested too deeply" in stderr


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


def _unit_images(n):
    return {f"{i},{j}": [[int((r, c) == (i, j)) for c in range(n)]
                         for r in range(n)]
            for i in range(n) for j in range(n)}


@pytest.mark.parametrize("doc", [
    [1, 2],                                            # top-level list
    {"n": 1, "ring": "Z", "images": None},
    {"n": 1, "ring": "Z", "images": {"0,0": [[1.5]]}},
    {"n": 1, "ring": "Z", "images": {"0,0": [["1"]]}},
    {"n": 1, "ring": "Z", "images": {"0,0": [[True]]}},
    {"n": 2, "ring": "Z/5", "images": {**_unit_images(2), "1,1": [[0, 0], [0]]}},
    {"n": 2, "ring": "Z/5", "images": {**_unit_images(2), "1,1": [[0, 0, 0]] * 3}},
    {"n": 2, "ring": "Z/5", "images": {**_unit_images(2), "1,1": 7}},
    {"n": 2, "ring": "Z/5", "images": {"0,0": [[1, 0], [0, 0]]}},
    {"n": 1, "ring": "Z", "images": {"1,1": [[1]]}},
    {"n": 1, "ring": "Z", "images": {"0": [[1]]}},
    {"n": 1, "ring": "Z", "images": {"-0,0": [[1]]}},
    {"n": 1.5, "ring": "Z", "images": {}},
], ids=["list", "images-null", "float", "string", "bool", "ragged",
        "oversized", "not-a-matrix", "missing-units", "key-out-of-range", "key-no-comma",
        "key-sign", "n-float"])
def test_skolem_malformed_spec_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, stderr = run_cli(["skolem", "recover", "--spec", str(path)], capsys)
    assert code == 2
    assert "Traceback" not in stderr


def test_skolem_empty_spec_exits_0(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 0, "ring": "Z/5", "images": {}}),
                    encoding="utf-8")
    code, stdout, _ = run_cli(["skolem", "recover", "--spec", str(path),
                               "--format", "json"], capsys)
    assert code == 0
    assert json.loads(stdout)["conjugator"] == []


def test_skolem_modulus_beyond_the_primality_bound_is_refused(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"n": 2, "ring": f"Z/{2 ** 127 - 1}",
                                "images": _unit_images(2)}), encoding="utf-8")
    start = time.perf_counter()
    code, stdout, _ = run_cli(["skolem", "recover", "--spec", str(path),
                               "--format", "json"], capsys)
    assert time.perf_counter() - start < 5
    assert code == 4
    assert str(rings.PRIME_TEST_BOUND) in json.loads(stdout)["error"]


def test_skolem_recover_validates_once(tmp_path, capsys, monkeypatch):
    calls = []
    validate = skolem.validate_auto_spec

    def counting(spec):
        calls.append(spec.n)
        return validate(spec)

    monkeypatch.setattr(skolem, "validate_auto_spec", counting)
    spec = skolem.spec_from_conjugator(rings.residue(101),
                                       ((3, 7, 1), (0, 2, 5), (9, 0, 2)))
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(skolem.spec_to_json(spec)), encoding="utf-8")
    code, _, _ = run_cli(["skolem", "recover", "--spec", str(path)], capsys)
    assert code == 0
    assert calls == [3]


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


@pytest.mark.parametrize("args, cap", [
    (["--report", "punctured", "--horizon", "15000"], "MAX_HORIZON"),
    (["--report", "punctured", "--window", "3000"], "MAX_WINDOW"),
    (["--report", "quotient", "--horizon", "200000"], "MAX_HORIZON"),
    (["--report", "nonfree", "--bound", "300"], "MAX_BOUND"),
    (["--report", "nonfree", "--stages", "100000"], "MAX_STAGES"),
    (["--system", "shifted:P1", "--horizon", "100000"], "MAX_HORIZON"),
])
def test_cohomology_over_a_cap_exits_2_naming_it(args, cap, capsys):
    code, stdout, stderr = run_cli(["cohomology"] + args, capsys)
    assert code == 2
    assert cap in stderr and "Traceback" not in stderr
    assert stdout == ""


@pytest.mark.parametrize("args", [
    ["--report", "nonfree", "--stages", "18", "--bound", "2"],
    ["--system", "standard:P1000000"],
    ["--system", "standard:P1000000", "--cond", "V0", "--twist", "-10000000"],
    ["--system", "standard:P1000000", "--cond", "V'0", "--twist", "-10000000"],
    ["--report", "punctured", "--window", str(cohomology.MAX_WINDOW),
     "--horizon", str(cohomology.MAX_HORIZON)],
    ["--report", "quotient", "--horizon", str(cohomology.MAX_HORIZON)],
    ["--report", "nonfree", "--stages", str(cohomology.MAX_STAGES),
     "--bound", str(cohomology.MAX_BOUND)],
    ["--system", "shifted:P3", "--cond", "V0", "--horizon",
     str(cohomology.MAX_HORIZON)] + [a for d in range(-20, 21)
                                for a in ("--twist", str(d))],
])
def test_cohomology_reports_at_their_caps_stay_small(args, capsys):
    for fmt in ("text", "json"):
        t0 = time.perf_counter()
        code, stdout, stderr = run_cli(["cohomology"] + args
                                       + ["--format", fmt], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == 0, stderr
        assert len(stdout) < 2_000_000
        # far from Python's 4,300-digit int-to-str limit
        assert max(map(len, re.findall(r"\d+", stdout))) < 1000


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


def test_import_leaves_numpy_out():
    src = str(pathlib.Path(colift.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, colift, colift.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "False"
