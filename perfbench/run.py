"""End-to-end and per-layer benchmark of ctxlib.

Run from the root of a checkout:

    python3 perfbench/run.py --workload bell-lp --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The line before it is the
run record (commit, Python version, nproc, seed, CPU steal seconds, per-op
medians); the same record is written under perfbench/out/.

Each run makes whole passes over a fixed, seeded list of operations.  Every
operation starts from its serialized JSON input, so no object built in one
pass is reused by the next.  Outputs are checked outside the timed region:
in full on the first pass, and against the first pass's output afterwards.

`--trace 1` runs one pass untraced, then passes in which alternate
operations run with the layers' public functions wrapped
(perfbench/tracer.py); it reports per-layer self times and counts per
pass, and the tracing overhead: each operation's traced time against its
untraced time.  `--smoke` runs every workload at tiny sizes, checks its
outputs, and feeds tampered outputs to the checkers, which must reject each
one.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

from common import child_env, peak_rss_kb

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = {
    "bell-lp": "wl_bell",
    "mapping-scenario": "wl_mapping",
    "nerve-decompose": "wl_nerve",
    "cli-verbs": "wl_cli",
}
SETUP_SAMPLES = 7      # this process plus six fresh interpreters
IMPORT_SAMPLES = 5     # fresh interpreters timing `import ctxlib.cli`


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, bad arguments)."""


def source_root():
    """The checkout's src directory; the benchmark never falls back to an
    installed ctxlib."""
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ctxlib", "__init__.py")):
        raise BenchError("no src/ctxlib under %s; run from the root of a "
                         "checkout" % root)
    return src


def load_workload(name, src):
    sys.path.insert(0, src)
    import importlib
    mod = importlib.import_module(WORKLOADS[name])
    import ctxlib
    if not os.path.abspath(ctxlib.__file__).startswith(src + os.sep):
        raise BenchError("ctxlib imported from %s, not %s"
                         % (ctxlib.__file__, src))
    return mod


# ---------------------------------------------------------------------------
# Host facts for the run record


def cpu_steal_seconds():
    """Cumulative steal time of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as handle:
            for line in handle:
                if line.startswith("cpu "):
                    fields = line.split()
                    if len(fields) > 8:
                        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError):
        pass
    return None


def git_commit(root):
    """HEAD of the checkout read from .git, or None outside a repository."""
    gitdir = os.path.join(root, ".git")
    try:
        with open(os.path.join(gitdir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(gitdir, ref)
        if os.path.isfile(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(gitdir, "packed-refs")) as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_digest(src):
    """sha256 over src/ctxlib/*.py, naming the code when there is no git."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "ctxlib")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as handle:
                h.update(handle.read())
    return h.hexdigest()


# The probe's median on the host the reference figures were taken on.
PROBE_REF_S = 0.0013


def probe_s():
    """Median of 3 runs of a fixed exact-arithmetic loop (a 400-term
    Fraction sum, no ctxlib code), in seconds: how fast the host runs the
    library's kind of work at this moment."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


# ---------------------------------------------------------------------------
# Set-up


def setup(name, seed, smoke, src, rundir):
    """Import the library and build the seeded inputs; returns the workload
    object, the seconds it took, and the factor that converts them to
    seconds on the reference host, from probes taken just before (see
    Pass.scaled)."""
    scale = PROBE_REF_S / statistics.median(probe_s() for _ in range(5))
    start = time.perf_counter()
    mod = load_workload(name, src)
    wl = mod.build(seed, smoke=smoke, rundir=rundir, src=src)
    return wl, time.perf_counter() - start, scale


def setup_sample_in_child(name, seed, src, rundir, rss_pass=False):
    """One more set-up in a fresh interpreter; returns its report (see
    main_setup_only)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-only",
           "--workload", name, "--seed", str(seed), "--rundir", rundir]
    if rss_pass:
        cmd.append("--rss-pass")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(src), timeout=120,
                          check=False)
    if proc.returncode != 0:
        raise BenchError("set-up child failed: %s" % proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds_in_child(src):
    code = ("import time; t = time.perf_counter(); import ctxlib.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=child_env(src), timeout=60,
                          check=False)
    if proc.returncode != 0:
        raise BenchError("import child failed: %s" % proc.stderr[-2000:])
    return float(proc.stdout.strip())


# ---------------------------------------------------------------------------
# Passes


class Pass:
    """Results of one pass: per-op seconds, the probes taken before each op
    and after the last, outputs, failures."""

    def __init__(self):
        self.seconds = []
        self.probes = []
        self.outputs = []
        self.failures = []      # (op index, description)

    @property
    def total(self):
        return sum(self.seconds)

    def scaled(self, k):
        """Op k's time in seconds on the reference host, scaled by the mean
        of the probes taken just before and just after it: the shared host
        ran the same code up to twice as slow for seconds at a time, and
        the probe slows with it."""
        probe = (self.probes[k] + self.probes[k + 1]) / 2
        return self.seconds[k] * PROBE_REF_S / probe


def run_pass(ops, traced=(), switch=None, keep=True):
    """One pass over ops.  The ops whose indices are in traced run traced,
    with switch(True) before and switch(False) after, outside the timed
    region.  keep=False drops each output once it is seen."""
    out = Pass()
    for k, op in enumerate(ops):
        on = k in traced
        out.probes.append(probe_s())
        if on and switch is not None:
            switch(True)
        start = time.perf_counter()
        try:
            result = op.run(on)
            failure = None
        except Exception as err:        # noqa: BLE001 -- counted, reported
            result = None
            failure = "%s: %s" % (type(err).__name__, str(err)[:300])
        finally:
            spent = time.perf_counter() - start
            if on and switch is not None:
                switch(False)
        out.seconds.append(spent)
        if failure is None and result is not None:
            failure = op.failure(result)
        out.outputs.append(result if keep else None)
        del result
        if failure is not None:
            out.failures.append((k, failure))
    out.probes.append(probe_s())
    return out


def digest(result):
    return hashlib.sha256(result.text.encode()).hexdigest()


def check_pass(ops, p, reference):
    """Errors found in one pass.  With no reference every output goes to its
    checker; otherwise outputs must equal the reference pass's."""
    errors = []
    failed = {k for k, _ in p.failures}
    for k, desc in p.failures:
        if not ops[k].fault:
            errors.append("%s failed: %s" % (ops[k].name, desc))
    for k, op in enumerate(ops):
        if k in failed:
            continue
        result = p.outputs[k]
        if reference is None:
            try:
                found = op.check(result)
            except Exception as err:    # noqa: BLE001 -- a failed check
                found = ["checker raised %s: %s" % (type(err).__name__, err)]
            errors.extend("%s: %s" % (op.name, e) for e in found)
        elif reference[k] is not None and digest(result) != reference[k]:
            errors.append("%s: output differs from the first pass" % op.name)
    return errors


def traced_ops(npass, nops):
    """With tracing, the ops traced in pass npass: none in the first pass;
    after it, alternate ops, shifting by one each pass, so that each op
    runs traced and untraced in turn and its neighbours in time run the
    other way."""
    if npass == 0:
        return set()
    return {k for k in range(nops) if (npass + k) % 2 == 1}


def measure(wl, seconds, trace, between=lambda: None):
    """Whole passes until the next one would overrun the time budget;
    between() runs after each pass, outside the timed region.

    With trace, the run ends after an even number of passes beyond the
    first, so that every op ran traced and untraced equally often.
    Returns the passes, the check errors and the tracer."""
    ops = wl.ops
    passes = []
    errors = []
    reference = None
    tracer = switch = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()

        def switch(on):
            (tracing.install if on else tracing.uninstall)(tracer)
    spent = 0.0
    while True:
        traced = traced_ops(len(passes), len(ops)) if trace else ()
        p = run_pass(ops, traced, switch)
        passes.append(p)
        errors.extend(check_pass(ops, p, reference))
        if reference is None:
            failed = {k for k, _ in p.failures}
            reference = [None if k in failed else digest(r)
                         for k, r in enumerate(p.outputs)]
        p.outputs = None        # checked; keep no output alive
        spent += p.total
        between()
        if trace and (len(passes) < 3 or len(passes) % 2 == 0):
            continue
        if spent + spent / len(passes) > seconds:
            break
    return passes, errors, tracer


# ---------------------------------------------------------------------------
# Metrics


def typical(passes, scaled=True):
    """Each op's median time over the run's passes, in seconds on the
    reference host unless scaled is false."""
    return [statistics.median(p.scaled(k) if scaled else p.seconds[k]
                              for p in passes)
            for k in range(len(passes[0].seconds))]


def counted(passes):
    """Operations attempted and failed over the run."""
    return (sum(len(p.seconds) for p in passes),
            sum(len(p.failures) for p in passes))


def end_to_end(passes, setup_samples, rss_kb, scaled=True):
    attempted, failed = counted(passes)
    per_op = typical(passes, scaled)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": ((attempted - failed) / len(passes) / sum(per_op),
                      "1/s"),
        "op_p50_s": (statistics.median(per_op), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def split_times(passes):
    """Each op's median time over the passes after the first, traced and
    untraced (see traced_ops)."""
    nops = len(passes[0].seconds)
    on = [[] for _ in range(nops)]
    off = [[] for _ in range(nops)]
    for i, p in enumerate(passes[1:], 1):
        traced = traced_ops(i, nops)
        for k in range(nops):
            (on if k in traced else off)[k].append(p.scaled(k))
    return ([statistics.median(ts) for ts in on],
            [statistics.median(ts) for ts in off])


def per_layer(wl, passes, tracer, src):
    """Per pass, where each op ran traced in half the passes after the
    first.  The overhead compares each op's median traced time with its
    median untraced time over the same passes."""
    import tracer as tracing
    npass = (len(passes) - 1) / 2
    snaps = [tracer.snapshot()] + wl.child_traces()
    total = tracing.merge(snaps)
    imports = wl.child_import_seconds()
    if not imports:
        imports = [import_seconds_in_child(src)
                   for _ in range(IMPORT_SAMPLES)]
    metrics = {"cli.import_s": (statistics.median(imports), "s")}
    for name, unit in tracing.metric_names().items():
        if name in tracing.COUNTS:
            value = total["counts"].get(name, 0) / npass
        elif name in tracing.MAXIMA:
            value = total["maxima"].get(name, 0)
        else:
            value = total["self_s"].get(name, 0.0) / npass
        metrics[name] = (value, unit)
    on, off = split_times(passes)
    metrics["trace.overhead_pct"] = (100.0 * (sum(on) / sum(off) - 1), "%")
    return metrics


def run_record(args, wl, passes, errors, setup_samples, steal, root, src):
    names = [op.name for op in wl.ops]
    per_op = {name: {"fastest": min(p.seconds[k] for p in passes),
                     "median": statistics.median(p.seconds[k]
                                                 for p in passes)}
              for k, name in enumerate(names)}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(root),
        "source_sha256": source_digest(src),
        "python": platform.python_version(),
        "nproc": nproc(),
        "cpu_steal_s": steal,
        "passes": len(passes),
        "ops_per_pass": len(names),
        "pass_seconds": [p.total for p in passes],
        "probe_ms": [1000 * statistics.median(p.probes) for p in passes],
        "setup_samples_s": setup_samples,
        "op_seconds": per_op,
        "failures": sorted({"%s: %s" % (names[k], d)
                            for p in passes for k, d in p.failures}),
        "errors": errors[:50],
    }


def main_run(args):
    root = os.getcwd()
    src = source_root()
    steal0 = cpu_steal_seconds()
    outdir = os.path.join(HERE, "out")
    rundir = os.path.join(outdir, "run-%d" % os.getpid())
    try:
        os.makedirs(rundir)
        wl, first, scale = setup(args.workload, args.seed, False, src,
                                 rundir)
        samples, raw_samples = [first * scale], [first]
        rss = {}
        # Untraced, an in-process workload's peak RSS comes from the first
        # set-up child, which also runs one unchecked pass.
        rss_pass = wl.rss_in_child and not args.trace

        def setup_sample():
            if len(samples) < SETUP_SAMPLES:
                report = setup_sample_in_child(
                    args.workload, args.seed, src,
                    "%s-setup%d" % (rundir, len(samples)),
                    rss_pass and not rss)
                samples.append(report["setup_s"] * report["scale"])
                raw_samples.append(report["setup_s"])
                if "peak_rss_kb" in report:
                    rss.update(report)

        passes, errors, tracer = measure(wl, args.seconds, bool(args.trace),
                                         setup_sample)
        while len(samples) < SETUP_SAMPLES:
            setup_sample()
        attempted, failed = counted(passes)
        if args.trace:
            metrics = per_layer(wl, passes, tracer, src)
        else:
            rss_kb = rss["peak_rss_kb"] if rss_pass else wl.peak_rss_kb()
            metrics = end_to_end(passes, samples, rss_kb)
            unscaled = end_to_end(passes, raw_samples, rss_kb, scaled=False)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    steal1 = cpu_steal_seconds()
    steal = (None if steal0 is None or steal1 is None
             else round(steal1 - steal0, 2))
    record = run_record(args, wl, passes, errors, samples, steal, root, src)
    if not args.trace:
        record["unscaled"] = {k: v for k, (v, _) in unscaled.items()}
    if rss:
        record["rss_child"] = {k: rss[k] for k in ("setup_peak_rss_kb",
                                                   "peak_rss_kb")}
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    path = os.path.join(outdir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
    for err in errors[:20]:
        print("check: %s" % err, file=sys.stderr)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


def main_setup_only(args):
    """Set up in this fresh interpreter and print {"setup_s": ..., "scale":
    ...}.  With
    --rss-pass, then run one pass without checks, dropping every output at
    once, and add this process's peak RSS after set-up and after the pass."""
    src = source_root()
    try:
        os.makedirs(args.rundir)
        wl, seconds, scale = setup(args.workload, args.seed, False, src,
                                   args.rundir)
        report = {"setup_s": seconds, "scale": scale}
        if args.rss_pass:
            report["setup_peak_rss_kb"] = peak_rss_kb()
            run_pass(wl.ops, keep=False)
            report["peak_rss_kb"] = peak_rss_kb()
    finally:
        shutil.rmtree(args.rundir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def main_smoke(args):
    """Every workload at tiny sizes: outputs must pass their checks, and
    every tampered output must be rejected."""
    src = source_root()
    rundir = os.path.join(HERE, "out", "smoke-%d" % os.getpid())
    problems = []
    try:
        for name in WORKLOADS:
            os.makedirs(rundir)
            wl, _, _ = setup(name, args.seed, True, src, rundir)
            p = run_pass(wl.ops)
            errors = check_pass(wl.ops, p, None)
            problems.extend("%s: %s" % (name, e) for e in errors)
            known = sorted(wl.ops[k].name for k, _ in p.failures
                           if wl.ops[k].fault)
            tampers = wl.tampered(p.outputs)
            problems.extend("%s: tampered output (%s) was not rejected"
                            % (name, label)
                            for label, rejected in tampers if not rejected)
            print(json.dumps({"workload": name, "ops": len(wl.ops),
                              "known_faults_failed": known,
                              "tampered_rejected": dict(tampers),
                              "errors": errors}))
            shutil.rmtree(rundir)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    for problem in problems:
        print("smoke: %s" % problem, file=sys.stderr)
    return 1 if problems else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--rss-pass", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--rundir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.smoke:
            return main_smoke(args)
        if args.setup_only:
            return main_setup_only(args)
        return main_run(args)
    except BenchError as err:
        print("perfbench: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
