"""Workload definitions, the closed loop, output checks and metrics.

Every op is one in-process call of `colift.cli.main([...])` on files written
at set-up, with one client: the next op starts when the previous returns.

Each workload runs its own family of inputs at benchmark size and, so that
every end-to-end metric is measured in every run, the other two families at
companion size (a tenth to a fifth of a cycle):

- flagship_laurent: scalar diagonals over Z[u^+-] along zxy_to_laurent at
  windows 24/48.  The swindle corner (horizon 2*window + 16) dominates, so
  matrices, homs, rings and certificate JSON carry the time and dense does
  almost nothing.  Excludes windows above 48: fewer than six samples per
  class in a run are not steady enough on a 2-CPU machine.
- blocks_mod_p: random invertible blocks over Z/101 along z_to_z101 at
  window 16; dense adjugate inversion dominates `.exact` and is large in
  `.large`.  Excludes blocks beyond the documented 14x14 cap, and k > 4
  (4 s+ per lift, too few samples per run).
- conjugators: `skolem recover` on seeded specs plus the fixed cohomology
  report set; the only workload where skolem and cohomology carry time.
  Excludes n above 16 (the numpy check is O(n^6) in memory).

No op of a workload is expected to fail.  The big-prime correctness probes,
which do fail today, run apart from the workloads: `run.py --probes`.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import statistics
import time
from fractions import Fraction

import inputs

FULL = {
    "flagship": {"small": 24, "large": 48},
    "blocks": {"small": (2, 16), "large": (4, 16), "exact": (10, 16)},
    "conj": {"small": 12, "large": 16, "z": 8},
}
# Other families, run beside the workload's own one; large enough that a
# sample is not lost in timer and allocator noise.
COMPANION = {
    "flagship": {"small": 16, "large": 24},
    "blocks": {"small": (2, 8), "large": (3, 8), "exact": (6, 8)},
    "conj": {"small": 8, "large": 10, "z": 6},
}
SMOKE = {
    "flagship": {"small": 8, "large": 16},
    "blocks": {"small": (2, 8), "large": (3, 8), "exact": (4, 8)},
    "conj": {"small": 4, "large": 6, "z": 4},
}
# Size n of the big-prime probe specs, and how many specs per modulus.
PROBE_N = {"full": 12, "smoke": 4}
PROBE_SPECS = 2

# Wall times drift by 10-30% over minutes on a shared machine, and the drift
# hits every pure-Python loop alike.  Each timed sample is therefore
# bracketed by a fixed reference block and reported at reference speed:
# seconds * REF_S / (mean of the two reference times).  REF_S is about the
# block's time on a quiet 2.1 GHz Xeon core, so figures stay near seconds.
REF_S = 0.025


def reference_block():
    """Fixed pure-Python work like colift's ring arithmetic: products of
    dict-based polynomials over Z/101 and a Fraction sum."""
    a = {e: (7 * e + 3) % 101 for e in range(-12, 13)}
    acc = 0
    for _ in range(260):
        prod = {}
        for e1, c1 in a.items():
            for e2, c2 in a.items():
                prod[e1 + e2] = (prod.get(e1 + e2, 0) + c1 * c2) % 101
        acc += sum(prod.values())
    f = Fraction(0)
    for i in range(1, 300):
        f += Fraction(acc % 97 + i, i + 1)
    return acc + f.numerator % 7


def time_reference():
    t0 = time.perf_counter()
    reference_block()
    return time.perf_counter() - t0


# lift classes and recover classes each come from one family per workload;
# "own" is the family run at benchmark size.
WORKLOADS = {
    "flagship_laurent": {"own": "flagship", "small": "flagship",
                         "large": "flagship", "exact": "blocks"},
    "blocks_mod_p": {"own": "blocks", "small": "blocks", "large": "blocks",
                     "exact": "blocks"},
    "conjugators": {"own": "conj", "small": "flagship", "large": "flagship",
                    "exact": "blocks"},
}

# One cycle: (op kind, class, repeats).  Companion ops of cheap classes
# repeat within a cycle so their medians rest on several samples.
CYCLES = {
    "flagship": [("lift", "small", 1), ("lift", "large", 1)],
    "blocks": [("lift", "small", 1), ("lift", "large", 1), ("lift", "exact", 1)],
    "conj": [("recover", "small", 1), ("recover", "large", 1),
             ("recover", "z", 1), ("report", "set", 10)],
}
COMPANION_STEPS = {
    "flagship": [("lift", "small", 1), ("lift", "large", 1)],
    "blocks": [("lift", "exact", 1)],
    "conj": [("recover", "small", 2), ("recover", "large", 2),
             ("recover", "z", 2), ("report", "set", 10)],
}
# Lift inputs repeat within a run so certificate bytes can be compared;
# recover inputs vary more so a run's median spans several of them.
INPUTS_PER_CLASS = 2
SPECS_PER_CLASS = 4
HOMS = {"flagship": "zxy_to_laurent", "blocks": "z_to_z101"}

END_TO_END = [
    ("setup_s", "s"), ("lift_s.small", "s"), ("lift_s.large", "s"),
    ("lift_s.exact", "s"), ("verify_s.small", "s"), ("verify_s.large", "s"),
    ("cert_kb.large", "KB"), ("recover_s.small", "s"), ("recover_s.large", "s"),
    ("recover_s.z", "s"), ("report_s", "s"), ("peak_rss_mb", "MB"),
]


def cycle_for(workload, companions=True):
    """The workload's steps, then those of the companion families."""
    spec = WORKLOADS[workload]
    own = spec["own"]
    steps = list(CYCLES[own])
    if not companions:
        return steps
    for fam in ("flagship", "blocks", "conj"):
        if fam == own:
            continue
        for kind, cls, reps in COMPANION_STEPS[fam]:
            if kind == "lift" and spec[cls] != fam:
                continue
            steps.append((kind, cls, reps))
    return steps


def sizes_for(workload, smoke):
    """{family: sizes}: the workload's own family at benchmark size, the
    rest at companion size; everything at smoke size for the self-test."""
    own = WORKLOADS[workload]["own"]
    return {fam: (SMOKE if smoke else FULL if fam == own else COMPANION)[fam]
            for fam in FULL}


# ---------------------------------------------------------------------------
# Set-up: input files and the manifest of expected results
# ---------------------------------------------------------------------------

def report_commands():
    """(argv, expectation) for the fixed cohomology report set."""
    cmds = []
    twists = list(range(-8, 1))
    for n in (2, 3, 4):
        argv = ["cohomology", "--system", f"standard:P{n}", "--cond", "V0",
                "--horizon", "12", "--format", "json"]
        for d in twists:
            argv += ["--twist", str(d)]
        # H^q(P^n, O(k+d)) vanishes for all q >= 1 iff k + d >= -n
        cmds.append((argv, {"thresholds": [max(0, -n - d) for d in twists]}))
    for cond, outcome in (("G", "NONE"), ("G'", "PASS")):
        cmds.append((["cohomology", "--system", "shifted:P1", "--cond", cond,
                      "--twist", "0", "--horizon", "12", "--format", "json"],
                     {"outcome": outcome}))
    cmds.append((["cohomology", "--report", "punctured", "--window", "4",
                  "--horizon", "8", "--format", "json"], {"v0_fails": True}))
    cmds.append((["cohomology", "--report", "quotient", "--horizon", "12",
                  "--format", "json"], {"certified_from": 2}))
    cmds.append((["cohomology", "--report", "nonfree", "--stages", "3",
                  "--bound", "4", "--format", "json"],
                 {"identity_certified": True}))
    return cmds


def prepare(workload, seed, smoke, out_dir):
    """Write every input file of one run and return its manifest."""
    rng = random.Random(seed)
    sizes = sizes_for(workload, smoke)
    spec = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"lift": {}, "recover": {}}

    def dump(name, doc):
        path = os.path.join(out_dir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path

    flag = inputs.flagship_matrices(rng, INPUTS_PER_CLASS)
    for cls in ("small", "large", "exact"):
        fam = spec[cls]
        entries = []
        for i in range(INPUTS_PER_CLASS):
            if fam == "flagship":
                doc, window = flag[i], sizes[fam][cls]
            else:
                k, window = sizes[fam][cls]
                doc = (inputs.exact_corner(rng, k) if cls == "exact"
                       else inputs.periodic_blocks(rng, k))
            entries.append({"matrix": dump(f"lift_{cls}_{i}.json", doc),
                            "cert": os.path.join(out_dir, f"cert_{cls}_{i}.json"),
                            "hom": HOMS[fam], "window": window})
        manifest["lift"][cls] = entries

    conj = sizes["conj"]
    for cls, modulus in (("small", inputs.P), ("large", inputs.P), ("z", None)):
        entries = []
        for i in range(SPECS_PER_CLASS):
            doc, u = inputs.conjugator_spec(rng, conj[cls], modulus)
            entries.append({"spec": dump(f"spec_{cls}_{i}.json", doc),
                            "u": u, "modulus": modulus})
        manifest["recover"][cls] = entries
    manifest["report"] = {"set": [report_commands()]}
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    return manifest


def prepare_probes(seed, n, out_dir):
    """Write the big-prime probe specs, each built from a known conjugator,
    and return their manifest."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    manifest = {"probe": {}}
    for cls, modulus in inputs.BIG_PRIMES.items():
        entries = []
        for i in range(PROBE_SPECS):
            doc, u = inputs.conjugator_spec(rng, n, modulus)
            path = os.path.join(out_dir, f"probe_{cls}_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            entries.append({"spec": path, "u": u, "modulus": modulus})
        manifest["probe"][cls] = entries
    return manifest


# ---------------------------------------------------------------------------
# Running ops and checking their outputs
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, colift, manifest, recorder=None):
        self.colift = colift
        self.manifest = manifest
        self.rec = recorder
        self.samples = {}          # metric name -> [values at reference speed]
        self.raw = {}              # timed metric name -> [wall seconds]
        self.refs = []             # every reference block time
        self.ref_last = None       # reference time taken since the last op
        self.attempted = 0
        self.failed = 0
        self.wrong = []            # descriptions of wrong successful outputs
        self.unexpected = []       # descriptions of failed ops
        self.probe_outcomes = {}   # "p31 exit 4" -> count
        self.hashes = {}
        self.uses = {}
        self.ops = []              # traced op records
        self.traced_s = 0.0
        self.untraced_s = 0.0

    # -- one CLI call, traced or not -------------------------------------------

    def _call(self, argv, kind, cls, traced):
        # A CLI command normally starts in a fresh process: collect the
        # previous op's garbage here, outside the timed region.
        self.ref_last = None
        gc.collect()
        out = io.StringIO()
        if traced:
            op_id = len(self.ops)
            self.rec.install(self.colift)
            self.rec.begin_op(op_id)
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                rc = self.colift.cli.main(argv)
                seconds = time.perf_counter() - t0
        finally:
            if traced:
                self.rec.end_op()
                self.rec.uninstall()
        if traced:
            self.ops.append({"id": op_id, "kind": kind, "class": cls,
                             "argv": argv, "seconds": seconds, "exit": rc})
        return rc, seconds, out.getvalue()

    def call(self, argv, kind, cls):
        """Run one op; in a traced run, run it untraced and traced in
        alternating order and report the untraced time."""
        self.attempted += 1
        if self.rec is None:
            return self._call(argv, kind, cls, False)
        first_traced = len(self.ops) % 2 == 1
        results = {}
        for traced in ((True, False) if first_traced else (False, True)):
            results[traced] = self._call(argv, kind, cls, traced)
        self.traced_s += results[True][1]
        self.untraced_s += results[False][1]
        if results[True][0] != results[False][0]:
            self.wrong.append(f"{kind} {cls}: traced exit code differs")
        return results[False]

    def _fail(self, what):
        self.failed += 1
        self.unexpected.append(what)

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def _ref(self):
        self.ref_last = time_reference()
        self.refs.append(self.ref_last)
        return self.ref_last

    def _ref_before(self):
        """The reference time for the next op: the last one, if no op ran
        since it was taken."""
        return self.ref_last if self.ref_last is not None else self._ref()

    def timed_sample(self, name, seconds, ref_before, ref_after):
        self.raw.setdefault(name, []).append(seconds)
        self.sample(name, seconds * 2 * REF_S / (ref_before + ref_after))

    def _next(self, kind, cls):
        entries = self.manifest[kind][cls]
        i = self.uses.get((kind, cls), 0)
        self.uses[(kind, cls)] = i + 1
        return i % len(entries), entries[i % len(entries)]

    # -- op kinds ------------------------------------------------------------------

    def lift(self, cls):
        i, e = self._next("lift", cls)
        r_lift = self._ref_before()
        rc, t_lift, _ = self.call(["lift", "--hom", e["hom"], "--matrix", e["matrix"],
                                   "--window", str(e["window"]), "--out", e["cert"]],
                                  "lift", cls)
        r_verify = self._ref()
        if rc != 0:
            self._fail(f"lift {cls}[{i}] exit {rc}")
            return
        with open(e["cert"], "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        first = self.hashes.setdefault((cls, i), digest)
        rc, t_verify, out = self.call(["verify", "--certificate", e["cert"],
                                       "--window", str(e["window"]),
                                       "--format", "json"], "verify", cls)
        r_end = self._ref()
        report = json.loads(out) if rc == 0 else {}
        if rc != 0 or not report.get("content_hash_ok") or not report.get("passed"):
            self._fail(f"verify {cls}[{i}] exit {rc}")
            if rc == 0:
                self.wrong.append(f"verify {cls}[{i}] passed without a valid hash")
            return
        if digest != first:
            self._fail(f"lift {cls}[{i}] certificate bytes differ across repeats")
            self.wrong.append(f"lift {cls}[{i}] is not byte-for-byte reproducible")
            return
        self.timed_sample(f"lift_s.{cls}", t_lift, r_lift, r_verify)
        self.timed_sample(f"verify_s.{cls}", t_verify, r_verify, r_end)
        self.sample(f"cert_kb.{cls}", len(blob) / 1024)
        if self.rec is not None:
            self.sample(f"word_length.{cls}", len(json.loads(blob)["factors"]))

    def _recover(self, kind, cls):
        """One `skolem recover`; returns (outcome, seconds), the outcome
        None on success, else "exit <code>" or "wrong conjugator"."""
        i, e = self._next(kind, cls)
        rc, seconds, out = self.call(["skolem", "recover", "--spec", e["spec"],
                                      "--format", "json"], kind, cls)
        if rc != 0:
            return f"exit {rc}", seconds
        if not self._conjugator_ok(json.loads(out).get("conjugator"), e):
            self.wrong.append(f"{kind} {cls}[{i}] recovered a wrong conjugator")
            return "wrong conjugator", seconds
        return None, seconds

    def recover(self, cls):
        r_before = self._ref_before()
        outcome, seconds = self._recover("recover", cls)
        r_after = self._ref()
        if outcome:
            self._fail(f"recover {cls} {outcome}")
        else:
            self.timed_sample(f"recover_s.{cls}", seconds, r_before, r_after)

    def probe(self, cls):
        """A correctness-only probe: its outcome is counted, never timed."""
        outcome, _ = self._recover("probe", cls)
        key = f"{cls} {outcome or 'ok'}"
        self.probe_outcomes[key] = self.probe_outcomes.get(key, 0) + 1

    def _conjugator_ok(self, u, e):
        """u * U_true^-1 must be a central scalar, and a unit: a zero or
        singular u would otherwise pass as the scalar 0."""
        if u is None:
            return False
        skolem, rings = self.colift.skolem, self.colift.rings
        m = e["modulus"]
        u_inv = inputs.inverse_int(e["u"]) if m is None \
            else inputs.inverse_mod(e["u"], m)
        ring = rings.integers() if m is None else rings.residue(m)
        lam = skolem.central_scalar(inputs.matmul(u, u_inv, m), ring)
        return lam is not None and rings.is_unit(lam) is not None

    def report(self, cls):
        _, cmds = self._next("report", cls)
        total = 0.0
        ok = True
        r_before = self._ref_before()
        for argv, want in cmds:
            rc, seconds, out = self.call(argv, "report", cls)
            total += seconds
            if rc != 0:
                self._fail(f"report {argv[1:3]} exit {rc}")
                ok = False
            elif not _report_matches(json.loads(out), want):
                self._fail(f"report {argv[1:3]} verdict mismatch")
                self.wrong.append(f"report {argv[1:3]} verdict differs from "
                                  "the known value")
                ok = False
        r_after = self._ref()
        if ok:
            self.timed_sample("report_s", total, r_before, r_after)


def _report_matches(rep, want):
    if "thresholds" in want:
        got = [v["threshold"] if v["outcome"] == "THRESHOLD" else None
               for v in rep["verdicts"]]
        return got == want["thresholds"]
    if "outcome" in want:
        return [v["outcome"] for v in rep["verdicts"]] == [want["outcome"]]
    if "certified_from" in want:
        return all(lv["certified_nonzero"] for lv in rep["levels"]
                   if lv["level"] >= want["certified_from"])
    key, value = next(iter(want.items()))
    return rep.get(key) == value


def run_loop(runner, workload, seconds):
    """Closed loop over the workload's cycle until `seconds` have passed and
    at least one whole cycle has run; returns the number of whole cycles.
    A traced run leaves the companions out, so that its per-layer metrics
    describe the workload's own family only."""
    steps = cycle_for(workload, companions=runner.rec is None)
    deadline = time.perf_counter() + seconds
    cycles = 0
    while True:
        for kind, cls, reps in steps:
            if cycles and time.perf_counter() >= deadline:
                return cycles
            for _ in range(reps):
                getattr(runner, kind)(cls)
        cycles += 1
        if time.perf_counter() >= deadline:
            return cycles


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(runner, setup_s):
    s = runner.samples
    metrics = {"setup_s": (setup_s, "s")}
    for name, unit in END_TO_END:
        if name in s:
            metrics[name] = (statistics.median(s[name]), unit)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def per_layer(runner):
    rec = runner.rec
    by_kind = {}
    for op in runner.ops:
        by_kind.setdefault(op["kind"], []).append(op["id"])
    lifts = by_kind.get("lift", [])
    verifies = by_kind.get("verify", [])
    recovers = by_kind.get("recover", [])
    reports = by_kind.get("report", [])
    n_sets = max(1, len(reports) // len(report_commands()))

    def mean(ops, key):
        return rec.total(ops, key) / len(ops) if ops else 0.0

    def case(key):     # per lifted input: its lift plus its verify
        return rec.total(lifts + verifies, key) / max(1, len(lifts))

    def share(num, den):
        den = case(den)
        return case(num) / den if den else 0.0

    words = [w for k, v in runner.samples.items() if k.startswith("word_length.")
             for w in v]
    m = {
        "cli.self_s.lift": (rec.self_seconds(lifts, "cli.main"), "s"),
        "lifting.verify_certificate.calls_per_lift":
            (mean(lifts, "lifting.verify_certificate.calls"), "count"),
        "lifting.verify_certificate.s":
            (mean(lifts, "lifting.verify_certificate.s"), "s"),
        "lifting.gl_lift.s": (mean(lifts, "lifting.gl_lift.s"), "s"),
        "lifting.swindle_factorization.s":
            (mean(lifts, "lifting.swindle_factorization.s"), "s"),
        "lifting.word_length": (statistics.mean(words) if words else 0.0, "count"),
        "lifting.certificate_to_json.s":
            (mean(lifts, "lifting.certificate_to_json.s"), "s"),
        "lifting.certificate_from_json.s":
            (mean(verifies, "lifting.certificate_from_json.s"), "s"),
    }
    for check in ("image_matches_input", "two_sided_inverse", "factor_classes"):
        m[f"lifting.check.{check}.s"] = (
            mean(verifies, f"lifting.check.{check}.s"), "s")
    for key, unit in (("matrices.Elementary.init.calls", "count"),
                      ("matrices.Elementary.init.s", "s"),
                      ("matrices.column.Elementary.calls", "count"),
                      ("matrices.column.Elementary.s", "s"),
                      ("matrices.column.ProductMatrix.calls", "count"),
                      ("matrices.column.ProductMatrix.s", "s"),
                      ("matrices.map_hom.s", "s"),
                      ("matrices.multiply.calls", "count"),
                      ("homs.hom_apply.calls", "count"),
                      ("homs.hom_apply.s", "s"),
                      ("homs.hom_section.calls", "count"),
                      ("homs.hom_section.s", "s"),
                      ("dense.adjugate_inverse.calls", "count"),
                      ("dense.adjugate_inverse.s", "s")):
        m[key] = (case(key), unit)
    m["homs.hom_apply.zero_share"] = (
        share("homs.hom_apply.zero_calls", "homs.hom_apply.calls"), "ratio")
    m["dense.adjugate_inverse.max_n"] = (rec.max_block, "count")
    m["dense.adjugate_inverse.repeat_share"] = (
        share("dense.adjugate_inverse.repeat_calls",
              "dense.adjugate_inverse.calls"), "ratio")
    for key, name in (("rings.element_new.calls", "rings.element_new.count"),
                      ("rings.mul_op.calls", "rings.mul.calls"),
                      ("rings.add_op.calls", "rings.add.calls")):
        m[name] = (case(key), "count")
    m["skolem.validate_auto_spec.calls_per_recover"] = (
        mean(recovers, "skolem.validate_auto_spec.calls"), "count")
    for key in ("skolem.validate_auto_spec.s", "skolem.recover_conjugator.s",
                "skolem.matrix_inverse.s"):
        m[key] = (mean(recovers, key), "s")
    for key, unit in (("cohomology.check_condition.s", "s"),
                      ("cohomology.nonfree_pullback_report.s", "s"),
                      ("cohomology.coh_dim.calls", "count")):
        m[key] = (rec.total(reports, key) / n_sets, unit)
    m["trace.overhead_ratio"] = (
        runner.traced_s / runner.untraced_s - 1 if runner.untraced_s else 0.0,
        "ratio")
    return m
