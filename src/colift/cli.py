"""Command-line front end: reproducible lifting certificates, certificate
verification, conjugator recovery, and cohomology reports.

Exit codes: 0 success, 2 parse/input error, 3 unsupported input class,
4 verification failure.  Reports go to stdout, diagnostics to stderr.
JSON outputs are deterministic: stable key order and no timestamps inside
hashed content.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cohomology, lifting, matrices, rings, skolem
from .dense import DenseSizeError, NonInvertibleError
from .homs import HomRegistry, SectionError, read_json
from .lifting import (LiftError, UnsupportedMatrixError, certificate_from_json,
                      certificate_to_json, gl_lift, verify_certificate)
from .matrices import MatrixFormError
from .rings import ParseError, RingError

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSUPPORTED = 3
EXIT_VERIFY = 4

_PARSE_ERRORS = (ParseError, RingError, MatrixFormError, KeyError, ValueError,
                 OSError, json.JSONDecodeError, skolem.SkolemError)
_UNSUPPORTED_ERRORS = (UnsupportedMatrixError, NonInvertibleError, SectionError,
                       DenseSizeError)


def _load_registry(path):
    return HomRegistry.from_file(path) if path else HomRegistry.builtin()


def _load_matrix(path):
    data = read_json(path)
    ring = rings.descriptor_from_json(data["ring"])
    return ring, matrices.matrix_from_json(ring, data["matrix"])


def _dump_json(data, path=None):
    text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_text(report) -> str:
    lines = [f"verification on window {report.window}: "
             + ("PASS" if report.passed else "FAIL")]
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        lines.append(f"  [{status}] {c.name}: {c.detail} ({c.seconds:.3f}s)")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_lift(args) -> int:
    registry = _load_registry(args.homs)
    hom = registry.get(args.hom)
    ring, matrix = _load_matrix(args.matrix)
    if ring != hom.target:
        print(f"error: matrix ring {ring} is not the hom target {hom.target}",
              file=sys.stderr)
        return EXIT_PARSE
    cert = gl_lift(hom, matrix, args.window)
    report = cert.report        # gl_lift's own check on this window
    body = certificate_to_json(cert)
    if args.out:
        _dump_json(body, args.out)
        print(f"certificate written to {args.out}")
    if args.format == "json":
        _dump_json({"certificate": body, "verification": report.to_json()})
    else:
        print(f"lifted {matrix.form} over {hom.target} along {hom.name}; "
              f"word length {cert.word_length()}")
        print(_report_text(report))
    return EXIT_OK if report.passed else EXIT_VERIFY


def _cmd_verify(args) -> int:
    registry = _load_registry(args.homs)
    data = read_json(args.certificate)
    cert = certificate_from_json(data, registry)
    hash_ok = data.get("content_hash") == lifting._content_hash(data)
    report = verify_certificate(cert, args.window)
    if args.format == "json":
        out = report.to_json()
        out["content_hash_ok"] = hash_ok
        _dump_json(out)
    else:
        print(_report_text(report))
        print(f"  [{'pass' if hash_ok else 'FAIL'}] content_hash: "
              + ("hash matches certificate body" if hash_ok
                 else "hash does not match certificate body"))
    return EXIT_OK if (report.passed and hash_ok) else EXIT_VERIFY


def _cmd_skolem(args) -> int:
    spec = skolem.spec_from_json(read_json(args.spec))
    report = skolem.validate_auto_spec(spec)
    conj = None
    error = None
    if report.passed:
        try:
            conj = skolem.recover_conjugator(spec, report)
        except skolem.SkolemError as exc:
            error = str(exc)
    if args.format == "json":
        out = {"validation": report.to_json()}
        if conj is not None:
            out["conjugator"] = [list(row) for row in conj.u]
            out["scalar_ambiguity"] = conj.scalar_ambiguity
        if error:
            out["error"] = error
        _dump_json(out)
    else:
        for c in report.checks:
            print(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
        if conj is not None:
            print(f"conjugator over {conj.ring}: {list(map(list, conj.u))}")
            print(f"  ({conj.scalar_ambiguity})")
        if error:
            print(f"error: {error}", file=sys.stderr)
    if not report.passed or error:
        return EXIT_VERIFY
    return EXIT_OK


def _parse_system(text: str):
    kind, _, rest = text.partition(":")
    if not rest.upper().startswith("P"):
        raise ValueError(f"bad system {text!r}; expected e.g. standard:P2")
    n = int(rest[1:])
    if kind == "standard":
        return cohomology.standard_system(n)
    if kind in ("shifted", "shifted_sum"):
        return cohomology.shifted_sum_system(n)
    raise ValueError(f"unknown system kind {kind!r}")


def _cmd_cohomology(args) -> int:
    if args.report == "punctured":
        rep = cohomology.punctured_plane_v0_report(args.window, args.horizon)
    elif args.report == "quotient":
        rep = cohomology.quotient_counterexample_report(args.horizon)
    elif args.report == "nonfree":
        rep = cohomology.nonfree_pullback_report(args.stages, args.bound)
    else:
        system = _parse_system(args.system)
        twists = args.twist if args.twist else [0]
        rep = cohomology.check_condition(system, args.cond, twists, args.horizon)
    if args.format == "json":
        _dump_json(rep.to_json())
    else:
        print(rep.to_text())
    return EXIT_OK


def _cmd_demo(args) -> int:
    registry = _load_registry(args.homs)
    failures = []
    only = args.only

    def run(name, fn):
        if only and only != name.split("/")[0]:
            return
        try:
            ok, detail = fn()
        except Exception as exc:          # demos must report, not crash
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        print(f"[{'PASS' if ok else 'FAIL'}] demo {name}: {detail}")
        if not ok:
            failures.append(name)

    def flagship():
        hom = registry.get("zxy_to_laurent")
        ring = hom.target
        u = ring.variable("u")
        matrix = matrices.ScalarDiagonal(ring, (), u)
        cert = gl_lift(hom, matrix, 64)
        report = cert.report
        if args.out:
            path = os.path.join(args.out, "flagship_certificate.json")
            os.makedirs(args.out, exist_ok=True)
            _dump_json(certificate_to_json(cert), path)
        return report.passed, (f"u*Id lift verified on window 64, word length "
                               f"{cert.word_length()}")

    def skolem_roundtrip():
        ring = rings.residue(101)
        u_true = ((3, 7, 1, 0), (0, 2, 5, 1), (9, 0, 1, 4), (2, 2, 0, 3))
        spec = skolem.spec_from_conjugator(ring, u_true)
        conj = skolem.recover_conjugator(spec)
        ratio = skolem._matmul(ring, conj.u,
                               skolem.matrix_inverse(ring, u_true))
        lam = skolem.central_scalar(ratio, ring)
        return lam is not None, "recovered conjugator matches up to the " \
            f"central unit {rings.render(lam) if lam else '?'}"

    def coh_tables():
        sys_std = cohomology.standard_system(2)
        rep = cohomology.check_condition(sys_std, "V0", [-5], 12)
        ok = rep.verdicts[0].outcome == "THRESHOLD" and rep.verdicts[0].threshold == 3
        shifted = cohomology.shifted_sum_system(1)
        rep_g = cohomology.check_condition(shifted, "G", [0], 12)
        rep_gc = cohomology.check_condition(shifted, "G'", [0], 12)
        ok = ok and rep_g.verdicts[0].outcome == "NONE"
        ok = ok and rep_gc.verdicts[0].outcome == "PASS"
        punct = cohomology.punctured_plane_v0_report(4, 8)
        ok = ok and punct.v0_fails and punct.v0_colim_holds_to_horizon
        quot = cohomology.quotient_counterexample_report(12)
        ok = ok and all(l.certified for l in quot.levels if l.level >= 2)
        nonfree = cohomology.nonfree_pullback_report(3, 4)
        ok = ok and nonfree.all_decomposed
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            for name, payload in (("threshold_v0", rep.to_json()),
                                  ("shifted_g", rep_g.to_json()),
                                  ("shifted_g_colim", rep_gc.to_json()),
                                  ("punctured_plane", punct.to_json()),
                                  ("quotient", quot.to_json()),
                                  ("nonfree_pullback", nonfree.to_json())):
                _dump_json(payload, os.path.join(args.out, f"{name}.json"))
        return ok, "threshold tables and all three counterexample reports agree"

    run("lift/flagship", flagship)
    run("skolem/roundtrip", skolem_roundtrip)
    run("cohomology/reports", coh_tables)
    if failures:
        print(f"{len(failures)} demo(s) failed: {', '.join(failures)}",
              file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="colift",
        description="exact lifting of column-finite invertible matrices, "
                    "conjugator recovery, and projective-space cohomology "
                    "reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lift", help="lift a matrix along a registered hom")
    p.add_argument("--hom", required=True, help="registered hom name")
    p.add_argument("--matrix", required=True, help="matrix spec JSON file")
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--out", help="write the certificate JSON here")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--homs", help="hom registry file (default: builtin)")
    p.set_defaults(fn=_cmd_lift)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    p.add_argument("--certificate", required=True)
    p.add_argument("--window", type=int, default=64)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--homs", help="hom registry file (default: builtin)")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("skolem", help="conjugator recovery")
    skolem_sub = p.add_subparsers(dest="skolem_command", required=True)
    pr = skolem_sub.add_parser("recover", help="recover the conjugator "
                                               "from a unit-image spec file")
    pr.add_argument("--spec", required=True)
    pr.add_argument("--format", choices=["text", "json"], default="text")
    pr.set_defaults(fn=_cmd_skolem)

    p = sub.add_parser("cohomology", help="positivity condition reports")
    p.add_argument("--system", default="standard:P2",
                   help="standard:P<n> or shifted:P<n>")
    p.add_argument("--cond", default="V0", help="G, G', V<l> or V'<l>")
    p.add_argument("--twist", type=int, action="append",
                   help="twist degree d (repeatable)")
    p.add_argument("--horizon", type=int, default=12)
    p.add_argument("--report", choices=["punctured", "quotient", "nonfree"],
                   help="emit a counterexample report instead")
    p.add_argument("--window", type=int, default=4,
                   help="degree window for the punctured-plane report")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--bound", type=int, default=4)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("demo", help="replay the flagship examples")
    p.add_argument("--only", choices=["lift", "skolem", "cohomology"])
    p.add_argument("--out", help="directory for demo artifacts")
    p.add_argument("--homs", help="hom registry file (default: builtin)")
    p.set_defaults(fn=_cmd_demo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "window", 8) < 8 and args.command in ("lift", "verify"):
        print("error: window must be >= 8", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.fn(args)
    except _UNSUPPORTED_ERRORS as exc:
        print(f"error: unsupported input: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except LiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
