#!/usr/bin/env python3
"""End-to-end benchmark of acdol, with checked outputs and a traced mode.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog-analyze --seed 1 \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --short      # oracle self-test + one checked
                                          # pass of each workload

One pass processes every input of the workload once; one operation is one
input in one pass.  While an operation runs, a timer runs a small fixed
reference computation (``oracle.Reference``) every 0.25 s, and the headline
metric ``pass_ref`` is the pass time over the mean reference time during
that pass (median over the run's passes), so the host's slow and fast
phases cancel.  Passes repeat until the next one would end after
``--seconds``; at least one runs.  ``--seed`` orders the inputs of a pass;
the inputs themselves are pinned (README.md says why), and
``--input-seeds`` replaces the construction seeds of a random workload.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are
``pass_ref``, ``setup_s`` and ``peak_rss_mb``; with ``--trace 1`` they are
the per-layer metrics of ``tracing.py``, from passes run with every public
acdol function wrapped, plus the untraced pass and reference times.
"""

import argparse
import contextlib
import functools
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from math import comb

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, "runs")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

MODULES = ("catalog", "cli", "cohomology", "docio", "forms", "harmonic",
           "kernel", "liealg", "linalg", "pipeline", "spectral")

# Construction seeds of the random workloads (see README.md for why they
# are pinned and for the alternates).
M4_SEEDS = (11,)
M3_SEEDS = (1, 2, 3)
# Share of the previous operation's time spent on throwaway set-ups before
# the next operation.
GAP_SHARE = 0.2
# The reference run's time on a quiet host like the one the figures in
# README.md come from; set-up times are scaled to it.
REF_NOMINAL_S = 0.004


class BenchError(RuntimeError):
    pass


def loaded_acdol():
    """The acdol modules in ``sys.modules``, by full name."""
    return {name: mod for name, mod in sys.modules.items()
            if name == "acdol" or name.startswith("acdol.")}


def use_acdol(loaded):
    """Make ``loaded`` (from ``loaded_acdol``) the acdol that imports see."""
    for name in loaded_acdol():
        del sys.modules[name]
    sys.modules.update(loaded)


def import_acdol():
    """Import acdol afresh from this checkout's src/ and return its modules."""
    if not os.path.isfile(os.path.join(SRC, "acdol", "__init__.py")):
        raise BenchError("acdol sources not found under %s" % SRC)
    use_acdol({})
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    mods = {name: importlib.import_module("acdol." + name) for name in MODULES}
    if not os.path.abspath(mods["kernel"].__file__).startswith(SRC + os.sep):
        raise BenchError("acdol was imported from outside this checkout")
    return mods


def dims_table(obj, m):
    """A result-document table {"p,q": n} as a full {(p, q): n} grid."""
    return {(p, q): obj.get("%d,%d" % (p, q), 0)
            for p in range(m + 1) for q in range(m + 1)}


# -- output checks --------------------------------------------------------


def check_tables(m, betti, h_dol, h_mub, want_betti):
    """Properties every workload's tables must have; failed check labels."""
    bad = []
    if tuple(betti) != want_betti:
        bad.append("betti %s != oracle %s" % (tuple(betti), want_betti))
    for n in range(2 * m + 1):
        if sum(h_dol[(p, n - p)] for p in range(max(0, n - m), min(n, m) + 1)) \
                < want_betti[n]:
            bad.append("frolicher inequality in degree %d" % n)
    chi = sum((-1) ** n * b for n, b in enumerate(want_betti))
    if sum((-1) ** (p + q) * v for (p, q), v in h_dol.items()) != chi:
        bad.append("euler characteristic of h_dol")
    if want_betti[2 * m] == 1:
        for label, table in (("h_dol", h_dol), ("h_mub", h_mub)):
            if any(v != table[(m - p, m - q)] for (p, q), v in table.items()):
                bad.append("serre symmetry of " + label)
    return bad


def check_pages(m, doc, want_betti):
    """Frolicher-page properties of a result document."""
    bad = []
    pages = {int(r): dims_table(t, m) for r, t in doc["pages"].items()}
    if pages[1] != dims_table(doc["h_dol"], m):
        bad.append("E_1 != h_dol")
    last = pages[max(pages)]
    for n in range(2 * m + 1):
        if sum(v for (p, q), v in last.items() if p + q == n) != want_betti[n]:
            bad.append("E_inf row sum in degree %d != oracle b_%d" % (n, n))
    for r in sorted(pages)[1:]:
        if any(v > pages[r - 1][k] for k, v in pages[r].items()):
            bad.append("page %d larger than page %d" % (r, r - 1))
    return bad


def check_document(doc, expect):
    """Checks on a result document (analyze or pages output)."""
    m = doc["m"]
    h_dol = dims_table(doc["h_dol"], m)
    h_mub = dims_table(doc["h_mub"], m)
    bad = check_tables(m, doc["betti"], h_dol, h_mub, expect["betti"])
    bad += check_pages(m, doc, expect["betti"])
    if (doc["classification"] == "integrable") != expect["integrable"]:
        bad.append("classification %s but the oracle's Nijenhuis tensor %s"
                   % (doc["classification"],
                      "vanishes" if expect["integrable"] else "does not vanish"))
    return bad


# -- workloads ------------------------------------------------------------


class Workload:
    """Inputs plus the timed operation and the checks for one workload.

    ``prepare(mods)`` is the timed part of set-up and sets ``docs`` (the
    input documents) and ``labels``; ``run(i)`` is operation i, and
    ``check(i, out, expect)`` lists what is wrong with its output, given the
    oracle's values from ``oracle_values``, which are computed untimed.
    """

    name = None

    def prepare(self, mods):
        raise NotImplementedError

    def oracle_values(self):
        """Per input: Betti numbers and Nijenhuis verdict, from the oracle."""
        out = []
        for doc in self.docs:
            n = doc["dim"]
            br = oracle.brackets_of_document(doc)
            out.append({
                "betti": oracle.betti_numbers(n, br),
                "integrable": oracle.nijenhuis_vanishes(
                    n, br, [[Fraction(v) for v in row] for row in doc["J"]]),
            })
        return out

    def close(self):
        pass


class CatalogAnalyze(Workload):
    """What ``acdol analyze --format json`` does, per builtin and NK doc."""

    name = "catalog-analyze"

    def prepare(self, mods):
        self.mods = mods
        self.docs = [mods["catalog"].builtin(name)
                     for name in inputs.CATALOG_BUILTINS]
        self.docs.append(mods["docio"].parse_document(inputs.nk_document_text()))
        self.labels = list(inputs.CATALOG_BUILTINS) + ["s3s3-nk"]

    def run(self, i):
        docio, pipeline = self.mods["docio"], self.mods["pipeline"]
        an = pipeline.analyze(docio.to_spec(self.docs[i]))
        checks = pipeline.verification_checks(an)
        return docio.render(pipeline.result_document(an, checks), "json")

    def check(self, i, out, expect):
        doc = json.loads(out)
        bad = check_document(doc, expect)
        hard = [c["name"] for c in doc["checks"]
                if not c["passed"] and not c["skipped"] and not c["informational"]]
        if hard:
            bad.append("battery hard failures: %s" % hard)
        m = doc["m"]
        if self.labels[i].startswith("abelian"):
            binom = {(p, q): comb(m, p) * comb(m, q)
                     for p in range(m + 1) for q in range(m + 1)}
            if dims_table(doc["h_dol"], m) != binom \
                    or dims_table(doc["h_mub"], m) != binom:
                bad.append("abelian tables are not C(m,p)C(m,q)")
            if doc["degeneration_page"] != 1:
                bad.append("abelian sequence does not degenerate at page 1")
        if self.labels[i] == "s3s3-nk":
            nk = [c for c in doc["checks"] if c["name"].startswith("nk_")]
            if len(nk) != 14 or not all(c["passed"] for c in nk):
                bad.append("nk checks on the NK S3xS3: %d of %d pass"
                           % (sum(c["passed"] for c in nk), len(nk)))
        return bad


class RandomM4Tables(Workload):
    """Metric-free tables of pinned random m = 4 algebras, via the library."""

    name = "random-m4-tables"

    def __init__(self, seeds=M4_SEEDS):
        self.seeds = seeds

    def prepare(self, mods):
        self.mods = mods
        self.docs = [inputs.random_nilpotent_document(s, 4) for s in self.seeds]
        self.specs = [mods["docio"].to_spec(d) for d in self.docs]
        self.labels = [d["name"] for d in self.docs]

    def run(self, i):
        liealg, forms = self.mods["liealg"], self.mods["forms"]
        cohomology = self.mods["cohomology"]
        spec = liealg.validate_spec(self.specs[i])
        frame = liealg.adapted_frame(spec)
        csc = liealg.complexify(spec, frame)
        cm = forms.build_differential(csc, forms.build_basis(spec.m))
        h_mub = cohomology.mub_cohomology(cm)
        h_dol = cohomology.dolbeault(cm)
        betti = cohomology.de_rham(cm)
        grid = [(p, q) for p in range(spec.m + 1) for q in range(spec.m + 1)]
        return (spec.m, tuple(betti), {k: h_dol.dim(*k) for k in grid},
                {k: h_mub.dim(*k) for k in grid})

    def check(self, i, out, expect):
        return check_tables(*out, expect["betti"])


class RandomM3Pages(Workload):
    """``acdol pages FILE --format json`` on pinned random m = 3 algebras."""

    name = "random-m3-pages"

    def __init__(self, seeds=M3_SEEDS):
        self.seeds = seeds
        self.tmp = None

    def prepare(self, mods):
        self.mods = mods
        self.docs = [inputs.random_nilpotent_document(s, 3) for s in self.seeds]
        self.labels = [d["name"] for d in self.docs]
        os.makedirs(RUNS, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="inputs-", dir=RUNS)
        self.paths = []
        for doc in self.docs:
            path = os.path.join(self.tmp, doc["name"] + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(inputs.document_text(doc))
            self.paths.append(path)

    def run(self, i):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cli"].main(
                ["pages", self.paths[i], "--format", "json"])
        return code, out.getvalue(), err.getvalue()

    def check(self, i, out, expect):
        code, text, err = out
        if code != 0:
            return ["exit code %d: %s" % (code, err.strip()[:200])]
        return check_document(json.loads(text), expect)

    def close(self):
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)
            self.tmp = None


WORKLOADS = {w.name: w for w in (CatalogAnalyze, RandomM4Tables, RandomM3Pages)}


# -- the run --------------------------------------------------------------


class SampledClock:
    """The reference computation run from a timer every ``INTERVAL`` seconds
    of operation time, as a clock for the host's speed during operations.

    The host's speed changes in phases of seconds; a clock read only between
    operations of several seconds misses them, one read inside them does
    not.  The handler runs between bytecodes of the operation and touches
    none of its state; its own time is subtracted from the operation's.
    """

    INTERVAL = 0.25

    def __init__(self, reference):
        self.reference = reference
        self.samples = []
        self.spent = 0.0
        self.remaining = self.INTERVAL
        self.broken = False

    def sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        ok = self.reference.run()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.broken = self.broken or not ok
        self.spent += time.perf_counter() - t0

    def read(self, runs=2):
        """Mean time of ``runs`` reference runs made now."""
        times = []
        for _ in range(runs):
            t0 = time.perf_counter()
            self.broken = self.broken or not self.reference.run()
            times.append(time.perf_counter() - t0)
        return statistics.mean(times)

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.remaining, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        self.remaining = signal.setitimer(signal.ITIMER_REAL, 0)[0] \
            or self.INTERVAL
        signal.signal(signal.SIGALRM, self.previous)


class Run:
    """One process's measurement of one workload."""

    def __init__(self, make_workload, seed):
        self.make_workload = make_workload
        self.workload = make_workload()
        self.rng = random.Random(seed)
        self.clock = SampledClock(oracle.Reference())
        self.setup_s = []
        self.pass_s = []
        self.pass_ref = []
        self.ref_s = []
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.first_outputs = None
        self.last_op_s = 0.0

    def _timed_setup(self, workload):
        """One set-up, in seconds of a host whose reference run takes
        ``REF_NOMINAL_S``: the host's speed is read from reference runs
        just before and after it (see README.md, "Set-up time")."""
        before = self.clock.read()
        t0 = time.perf_counter()
        mods = import_acdol()
        workload.prepare(mods)
        raw = time.perf_counter() - t0
        ref = (before + self.clock.read()) / 2
        self.setup_s.append(raw * REF_NOMINAL_S / ref)
        return mods

    def set_up(self):
        """Import acdol and prepare the inputs; then the oracle's values."""
        self.mods = self._timed_setup(self.workload)
        self.loaded = loaded_acdol()
        self.expect = self.workload.oracle_values()
        self.order = list(range(len(self.expect)))
        self.rng.shuffle(self.order)

    def gap(self, budget):
        """Between two operations: throwaway set-ups until ``budget``
        seconds have passed (one at least), so that the set-up time is a
        median over the whole run.  The measured modules stay the ones
        acdol's own run-time imports resolve to.
        """
        end = time.perf_counter() + budget
        while True:
            spare = self.make_workload()
            try:
                self._timed_setup(spare)
            finally:
                spare.close()
                use_acdol(self.loaded)
            if time.perf_counter() >= end:
                break
        gc.collect()

    def one_pass(self, sampled=True):
        """Time one pass and check its outputs.  With ``sampled`` the
        reference clock runs during the operations."""
        w = self.workload
        clock = self.clock
        first_sample = len(clock.samples)
        outputs = {}
        total = 0.0
        for i in self.order:
            self.gap(GAP_SHARE * self.last_op_s)
            self.attempted += 1
            spent = clock.spent
            t0 = time.perf_counter()
            with clock if sampled else contextlib.nullcontext():
                try:
                    outputs[i] = w.run(i)
                except Exception as exc:  # a crash fails the operation only
                    outputs[i] = None
                    self.failed += 1
                    print("operation %s raised %r" % (w.labels[i], exc),
                          file=sys.stderr)
            self.last_op_s = time.perf_counter() - t0 - (clock.spent - spent)
            total += self.last_op_s
        self.pass_s.append(total)
        if sampled:
            if len(clock.samples) == first_sample:
                clock.sample()
            ref = statistics.mean(clock.samples[first_sample:])
            self.ref_s.append(ref)
            self.pass_ref.append(total / ref)
        if clock.broken:
            raise BenchError("the reference computation changed its value")
        if self.first_outputs is None:
            self.first_outputs = outputs
        for i, out in outputs.items():
            if out is None:
                continue
            bad = w.check(i, out, self.expect[i])
            if out != self.first_outputs[i]:
                bad.append("output differs from the first pass")
            if bad:
                self.failed += 1
                self.wrong.append((w.labels[i], bad))
                print("operation %s: %s" % (w.labels[i], "; ".join(bad)),
                      file=sys.stderr)

    def passes(self, seconds, sampled=True, before=None, after=None):
        """Passes until the next would end after ``seconds``."""
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            if before is not None:
                before()
            self.one_pass(sampled)
            if after is not None:
                after()
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - t0) > seconds:
                return


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workload_factory(name, input_seeds):
    """The workload class, bound to ``input_seeds`` ("7,8") when given."""
    cls = WORKLOADS[name]
    if input_seeds is None:
        return cls
    if cls is CatalogAnalyze:
        raise BenchError("catalog-analyze has no construction seeds")
    try:
        seeds = tuple(int(s) for s in input_seeds.split(","))
    except ValueError:
        raise BenchError("--input-seeds takes integers separated by commas")
    return functools.partial(cls, seeds)


def measure(make_workload, seed, seconds, traced):
    run = Run(make_workload, seed)
    try:
        run.set_up()
        if not traced:
            run.passes(seconds)
            metrics = {
                "pass_ref": (statistics.median(run.pass_ref), "ref"),
                "setup_s": (statistics.median(run.setup_s), "s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }
            print("pass_wall_s %.6f ref_s %.7f passes %d refs %d setups %d"
                  % (statistics.median(run.pass_s), statistics.median(run.ref_s),
                     len(run.pass_s), len(run.clock.samples),
                     len(run.setup_s)), file=sys.stderr)
        else:
            metrics = measure_traced(run, seed, seconds)
    finally:
        run.workload.close()
    return {
        "correct": not run.wrong,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def measure_traced(run, seed, seconds):
    """One untraced pass, then traced passes for the rest of the time; the
    reference clock is off in traced passes, so spans hold no clock time."""
    start = time.perf_counter()
    run.one_pass()
    untraced_pass = run.pass_s[0]
    tracer = tracing.Tracer()
    tracer.install(run.mods)
    per_pass = []
    try:
        run.passes(max(0.0, seconds - (time.perf_counter() - start)),
                   sampled=False, before=tracer.reset,
                   after=lambda: per_pass.append(tracer.metrics()))
    finally:
        tracer.uninstall()
    os.makedirs(RUNS, exist_ok=True)
    tracer.write_spans(os.path.join(
        RUNS, "spans-%s-seed%d.tsv.gz" % (run.workload.name, seed)))
    traced_pass = statistics.median(run.pass_s[1:])
    out = {}
    for name, unit in tracing.metric_units():
        out[name] = (statistics.median(v[name] for v in per_pass), unit)
    out["bench.pass_wall_s"] = (untraced_pass, "s")
    out["bench.ref_s"] = (run.ref_s[0], "s")
    out["bench.trace_overhead_s"] = (traced_pass - untraced_pass, "s")
    return out


def short():
    """Oracle self-test plus one checked pass of each workload."""
    failed = oracle.self_test()
    print("oracle self-test: %s" % ("ok" if not failed else failed))
    ok = not failed
    for name, cls in WORKLOADS.items():
        run = Run(cls, 0)
        try:
            run.set_up()
            run.one_pass()
        finally:
            run.workload.close()
        print("%s: %d operations, %d failed, pass %.2f s"
              % (name, run.attempted, run.failed, run.pass_s[0]))
        ok = ok and run.failed == 0 and not run.wrong
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--input-seeds", default=None,
                        help="comma-separated construction seeds replacing "
                             "the pinned ones of a random workload")
    parser.add_argument("--short", action="store_true",
                        help="oracle self-test and one checked pass of "
                             "each workload")
    args = parser.parse_args(argv)
    try:
        if args.short:
            return short()
        if args.workload is None:
            parser.error("--workload is required")
        failed = oracle.self_test()
        if failed:
            raise BenchError("oracle self-test failed: %s" % failed)
        result = measure(workload_factory(args.workload, args.input_seeds),
                         args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
