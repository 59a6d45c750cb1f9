"""Byte-for-byte pins of every cohomology report the CLI prints or writes.

Each output is recorded by its SHA-256.  The report set is the benchmark's
(copied here, not imported), the `demo --only cohomology` stdout and the six
JSON files it writes with `--out`, the README's cohomology examples, and one
combined hash over a grid of systems, conditions, twists and horizons.
"""

import hashlib

from colift import cli

TWISTS = [arg for d in range(-8, 1) for arg in ("--twist", str(d))]

# (argv without --format, sha256 of the JSON output, sha256 of the text output)
REPORT_COMMANDS = [
    (["cohomology", "--system", "standard:P2", "--cond", "V0",
      "--horizon", "12"] + TWISTS,
     "f7905617a529cbb64bb791c057afc528f05d529484dc3c7c4ef9fbac8982c868",
     "0e2d0e181f905b92100fd585e55e196fb7f6db2a356fe9b930c9a200358b7a6a"),
    (["cohomology", "--system", "standard:P3", "--cond", "V0",
      "--horizon", "12"] + TWISTS,
     "85267144b8b76fcdd234aca672b666b98c20590cf2fa1f41c4f208b5baf583de",
     "72546c3e4e71834035d31394c2b78915d01362397a89ef217c0dcddf3089bd94"),
    (["cohomology", "--system", "standard:P4", "--cond", "V0",
      "--horizon", "12"] + TWISTS,
     "5d3f3d1d25b3c84518f7122679f6883fcb3f20f7b0ab604d14983dd423b779cf",
     "0de1ab71ebadadca366aa2549c285f2e0734547a59bf9158f304d76d27229537"),
    (["cohomology", "--system", "shifted:P1", "--cond", "G", "--twist", "0",
      "--horizon", "12"],
     "ea4412379da393636ac2ea084a53ba000e4085851cadeb53417727d354d3a95e",
     "d3b3faab2146187e68dfbe50818a604e9935adf60ca3b9f8bfff95972c6aec4c"),
    (["cohomology", "--system", "shifted:P1", "--cond", "G'", "--twist", "0",
      "--horizon", "12"],
     "24a234f0e7eae14c8f1f5cf9c919e168b53e1e355a601a8beea51a9edab1fe61",
     "6ffd0e50f777d77ae50f458f2bc6f69d015006e2bd09a77376ff4062c928995b"),
    (["cohomology", "--report", "punctured", "--window", "4",
      "--horizon", "8"],
     "8b45c726f7af633a97b9ba7ceaf413df44359b22837859b037649462e3fbf132",
     "fd06b6ee7ba730695fd380ea3458fb3cf60afb22a1205c3939602495cf8f8058"),
    (["cohomology", "--report", "quotient", "--horizon", "12"],
     "fe22978e80ea7261eb03606882f9665207dc272dae26e7748fd7049c3c95ee4e",
     "250754c082b1e9d956063d77e03f7b6b19d1c6a7e58b12eb6e0944ff51223f3e"),
    (["cohomology", "--report", "nonfree", "--stages", "3", "--bound", "4"],
     "433d692243e3d661fe82f1b6a70795c05b3e33eac43e9f100f42b87f43b9cd94",
     "47ba8b9b7032e0510b4760aa4fb2ddf3c760aec049b0fa6dd955aed2d07dc153"),
]

README_EXAMPLES = [
    (["cohomology", "--system", "standard:P2", "--cond", "V0", "--twist", "-5",
      "--horizon", "12"],
     "80944c4f529e020a9d7e9c05a835b94c48689ae8760c177091f5453fc9726cdd"),
    (["cohomology", "--report", "punctured", "--window", "4", "--horizon", "8"],
     "fd06b6ee7ba730695fd380ea3458fb3cf60afb22a1205c3939602495cf8f8058"),
    (["cohomology", "--report", "quotient", "--horizon", "12"],
     "250754c082b1e9d956063d77e03f7b6b19d1c6a7e58b12eb6e0944ff51223f3e"),
    (["cohomology", "--report", "nonfree", "--stages", "3", "--bound", "4"],
     "47ba8b9b7032e0510b4760aa4fb2ddf3c760aec049b0fa6dd955aed2d07dc153"),
]

DEMO_STDOUT = "78a4306ca521788d1507eb69672981dfe26198cb387fcb041d4ec2b0cadcd7b8"

DEMO_FILES = {
    "nonfree_pullback.json":
        "433d692243e3d661fe82f1b6a70795c05b3e33eac43e9f100f42b87f43b9cd94",
    "punctured_plane.json":
        "8b45c726f7af633a97b9ba7ceaf413df44359b22837859b037649462e3fbf132",
    "quotient.json":
        "fe22978e80ea7261eb03606882f9665207dc272dae26e7748fd7049c3c95ee4e",
    "shifted_g.json":
        "ea4412379da393636ac2ea084a53ba000e4085851cadeb53417727d354d3a95e",
    "shifted_g_colim.json":
        "24a234f0e7eae14c8f1f5cf9c919e168b53e1e355a601a8beea51a9edab1fe61",
    "threshold_v0.json":
        "f0f02f5e77ce2b0d569494e0349cf014c190ad134ecd9cf588d0a8234706b00b",
}

GRID = "77dd350987de9f6c971abd0b2f70d3342c30a89b72f07528079e961384565ce9"


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def grid_commands():
    """Both systems on P^1..P^3, every condition family, twists on both
    sides of every threshold, horizons that do and do not reach them; then
    the three counterexample reports at several sizes."""
    twists = [arg for d in range(-9, 3) for arg in ("--twist", str(d))]
    for kind in ("standard", "shifted"):
        for n in (1, 2, 3):
            for cond in ("G", "G'", "V0", "V'0", "V1", "V'1", "V2", "V'2"):
                for horizon in (1, 3, 12):
                    yield ["cohomology", "--system", f"{kind}:P{n}",
                           "--cond", cond, "--horizon", str(horizon)] + twists
    for window, horizon in ((2, 1), (5, 3), (9, 20)):
        yield ["cohomology", "--report", "punctured", "--window", str(window),
               "--horizon", str(horizon)]
    for horizon in (4, 5, 30):
        yield ["cohomology", "--report", "quotient", "--horizon", str(horizon)]
    for stages, bound in ((2, 0), (2, 3), (5, 1), (6, 7)):
        yield ["cohomology", "--report", "nonfree", "--stages", str(stages),
               "--bound", str(bound)]


def test_benchmark_report_commands_are_byte_identical(capsys):
    for argv, want_json, want_text in REPORT_COMMANDS:
        assert sha(run(argv + ["--format", "json"], capsys)) == want_json, argv
        assert sha(run(argv + ["--format", "text"], capsys)) == want_text, argv


def test_readme_examples_are_byte_identical(capsys):
    for argv, want in README_EXAMPLES:
        assert sha(run(argv, capsys)) == want, argv


def test_demo_stdout_and_files_are_byte_identical(tmp_path, capsys):
    assert sha(run(["demo", "--only", "cohomology"], capsys)) == DEMO_STDOUT
    run(["demo", "--only", "cohomology", "--out", str(tmp_path)], capsys)
    written = {p.name: sha(p.read_text(encoding="utf-8"))
               for p in tmp_path.iterdir()}
    assert written == DEMO_FILES


def test_report_grid_is_byte_identical(capsys):
    combined = hashlib.sha256()
    for argv in grid_commands():
        for fmt in ("json", "text"):
            combined.update(run(argv + ["--format", fmt], capsys)
                            .encode("utf-8"))
    assert combined.hexdigest() == GRID
