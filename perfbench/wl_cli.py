"""cli-verbs: `ctx` subprocesses run one after another on small payloads.

Each child is cli_child.py, which runs ctxlib.cli.main as the `ctx` command
does and reports its own peak RSS (and, traced, the per-layer figures).

Verbs: validate (scenario and model), sections, convert, check (contextual
and noncontextual), verify-certificate on each check output, map --kind
event and decompose.  Three malformed `check` payloads are included: a
weight of "abc", a weight of "1/0", and `distributions` given as a list.
They must give exit 1 with one JSON error line on stderr; at the time the
benchmark was written they raise through ctxlib.cli.main and exit 1 with a
traceback, so they count as failed (FAULT below).

Interpreter start, import and JSON input/output dominate here.  Exit codes
are those the README documents: 0 success, 1 invalid input or failed
validation, 2 contextual, 3 resource cap.
"""

import json
import os
import subprocess
import sys

from common import Op, Result, Workload, child_env, expect, frac, rng

import wl_bell
import wl_mapping
import wl_nerve

HERE = os.path.dirname(os.path.abspath(__file__))
FAULT = ("ctxlib.cli.main lets ValueError, ZeroDivisionError and "
         "AttributeError from rat / EmpiricalModel.from_json escape as a "
         "traceback")


def error_line(stderr):
    """The one JSON error object the CLI prints on stderr, or None."""
    lines = stderr.strip().splitlines()
    if len(lines) != 1:
        return None
    try:
        obj = json.loads(lines[0])
    except ValueError:
        return None
    return obj if isinstance(obj, dict) and "error" in obj else None


def contract_failure(result):
    """A `ctx` run fails when it does not end in a documented way: a
    traceback, an undocumented exit code, or an error exit without its one
    JSON error line."""
    out = json.loads(result.text)
    if "Traceback" in out["stderr"]:
        last = out["stderr"].strip().splitlines()[-1]
        return "traceback (%s), exit %d" % (last, out["code"])
    if out["code"] not in (0, 1, 2, 3):
        return "exit code %d" % out["code"]
    if out["code"] in (1, 3) and not out["stdout"].strip() and \
            error_line(out["stderr"]) is None:
        return "exit %d without a JSON error line" % out["code"]
    return None


class CliWorkload(Workload):
    """Runs each op as a child process and keeps per-child resource use."""

    rss_in_child = False    # peak_rss_kb() is the largest `ctx` child

    def __init__(self, rundir, src):
        super().__init__([])
        self.rundir = rundir
        self.env = child_env(src)
        self.max_child_rss_kb = 0
        self.trace_files = []

    def path(self, name):
        return os.path.join(self.rundir, name)

    def write(self, name, obj):
        with open(self.path(name), "w") as handle:
            json.dump(obj, handle)
        return self.path(name)

    def ctx(self, name, argv, traced):
        """Run one `ctx` verb; stdout goes to NAME.out, which later verbs
        may read."""
        if traced:
            report = self.path("trace-%d.json" % len(self.trace_files))
            self.trace_files.append(report)
        else:
            report = self.path(name + ".rss.json")
        cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), report,
               "1" if traced else "0"] + argv
        out_path, err_path = self.path(name + ".out"), self.path(name + ".err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env,
                                    cwd=self.rundir)
            try:
                proc.wait()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        with open(report) as handle:
            self.max_child_rss_kb = max(self.max_child_rss_kb,
                                        json.load(handle)["peak_rss_kb"])
        with open(out_path) as handle:
            stdout = handle.read()
        with open(err_path) as handle:
            stderr = handle.read()
        return Result(json.dumps({"code": proc.returncode, "stdout": stdout,
                                  "stderr": stderr}))

    def add(self, name, argv, check, fault=None):
        def run(traced):
            return self.ctx(name, argv, traced)

        def checked(result):
            out = json.loads(result.text)
            return check(out["code"], out["stdout"], out["stderr"])

        self.ops.append(Op(name, run, checked, contract_failure, fault))

    def peak_rss_kb(self):
        return self.max_child_rss_kb

    def child_traces(self):
        snaps = []
        for path in self.trace_files:
            with open(path) as handle:
                snaps.append(json.load(handle))
        return snaps

    def child_import_seconds(self):
        return [snap["import_s"] for snap in self.child_traces()]

    def tampered(self, outputs):
        traceback = ("Traceback (most recent call last):\n"
                     "  File \"cli.py\", line 1, in main\n"
                     "ValueError: Invalid literal for Fraction: 'abc'\n")
        fake = Result(json.dumps({"code": 1, "stdout": "",
                                  "stderr": traceback}))
        rejected = all(op.failure(fake) is not None for op in self.ops)
        return [("traceback instead of a JSON error", rejected)]


# ---------------------------------------------------------------------------
# Checks


def expect_code(errors, code, want):
    return expect(errors, code == want, "exit %d, expected %d" % (code, want))


def parse(errors, stdout):
    try:
        return json.loads(stdout)
    except ValueError:
        errors.append("stdout is not JSON")
        return None


def check_ok_report(code, stdout, stderr):
    errors = []
    if expect_code(errors, code, 0):
        out = parse(errors, stdout)
        expect(errors, out is not None and out.get("ok") is True,
               "report is not ok")
    return errors


def check_sections(std):
    want = 1
    for outs in std["outcomes"].values():
        want *= len(outs)

    def check(code, stdout, stderr):
        errors = []
        if expect_code(errors, code, 0):
            out = parse(errors, stdout)
            if out is not None:
                expect(errors, out["count"] == want == len(set(
                    out["sections"])), "%s sections, expected %d"
                    % (out["count"], want))
        return errors
    return check


def check_convert(std):
    nverts = sum(len(v) for v in std["outcomes"].values())

    def check(code, stdout, stderr):
        errors = []
        if expect_code(errors, code, 0):
            out = parse(errors, stdout)
            if out is not None:
                expect(errors, out.get("kind") == "bundle", "not a bundle")
                expect(errors, len(out["total"]["vertices"]) == nverts,
                       "%d total vertices, expected %d"
                       % (len(out["total"]["vertices"]), nverts))
        return errors
    return check


def check_verdict(lp, contextual):
    def check(code, stdout, stderr):
        errors = []
        if expect_code(errors, code, 2 if contextual else 0):
            errors.extend(wl_bell.check_verdict(lp, stdout, contextual))
        return errors
    return check


def check_verified(code, stdout, stderr):
    errors = []
    if expect_code(errors, code, 0):
        out = parse(errors, stdout)
        expect(errors, out == {"verified": True}, "certificate not verified")
    return errors


def check_map(f_std, g_std):
    def check(code, stdout, stderr):
        errors = []
        if expect_code(errors, code, 0):
            errors.extend(wl_mapping.check_event_output(f_std, g_std, stdout,
                                                        []))
        return errors
    return check


def check_decompose(code, stdout, stderr):
    errors = []
    if expect_code(errors, code, 0):
        out = parse(errors, stdout)
        if out is not None:
            ws = [frac(p["weight"]) for p in out["decomposition"]]
            expect(errors, out["verdict"] == "noncontextual" and
                   all(w > 0 for w in ws) and sum(ws) == 1,
                   "decomposition weights are not a distribution")
    return errors


def check_invalid_input(code, stdout, stderr):
    errors = []
    expect_code(errors, code, 1)
    err = error_line(stderr)
    expect(errors, err is not None and err["error"] == "invalid-input",
           "no invalid-input JSON error line")
    return errors


# ---------------------------------------------------------------------------


def build(seed, smoke=False, rundir=None, src=None):
    r = rng(seed, "cli-verbs")
    wl = CliWorkload(rundir, src)
    os.makedirs(rundir, exist_ok=True)

    cycle = wl_mapping.standard_json(r, "v", wl_mapping.CYCLE4, 2)
    labels = next(iter(cycle["outcomes"].values()))
    extra = next(str(x) for x in range(10) if str(x) not in labels)
    for v in sorted(cycle["outcomes"])[:2]:
        cycle["outcomes"][v] = labels + [extra]
    scn = wl.write("cycle.json", cycle)
    names = wl_bell.Names(r, 2, 2)
    chsh_std = wl_bell.scenario_json(names)
    chsh = wl.write("chsh.json", chsh_std)

    pr_table = wl_bell.pr_type(2, 2, (r.randrange(2), r.randrange(2)))
    pr_model = wl_bell.model_json(pr_table, names)
    pr = wl.write("pr.json", pr_model)
    mix_model = wl_bell.model_json(wl_bell.mixture(2, 2, r, 3, 0), names)
    mix = wl.write("mix.json", mix_model)

    f_std = wl_mapping.standard_json(r, "x", wl_mapping.EDGE, 2)
    g_std = wl_mapping.standard_json(r, "y", wl_mapping.EDGE, 2)
    f_scn, g_scn = wl.write("f.json", f_std), wl.write("g.json", g_std)

    bf = wl_nerve.point_bundle(wl_nerve.fibers(r, "a", 2), "u")
    bg = wl_nerve.point_bundle(wl_nerve.fibers(r, "b", 2), "s")
    spec = wl.write("mapfg.json", {"kind": "mapping-bundles",
                                   "f": bf.to_json(), "g": bg.to_json(),
                                   "d": 1})
    sd = wl.write("sd.json", wl_nerve.distribution_json(
        wl_nerve.noncontextual_input(r, bf, bg, 1)))

    wl.add("validate-scenario", ["validate", scn], check_ok_report)
    wl.add("validate-model", ["validate", pr, "--scenario", chsh],
           check_ok_report)
    wl.add("sections", ["sections", scn], check_sections(cycle))
    wl.add("convert", ["convert", scn, "--to", "bundle"],
           check_convert(cycle))
    wl.add("check-pr", ["check", "--scenario", chsh, "--model", pr],
           check_verdict(wl_bell.ExactLP(chsh_std, pr_model), True))
    wl.add("verify-pr", ["verify-certificate", wl.path("check-pr.out"),
                         "--scenario", chsh, "--model", pr], check_verified)
    wl.add("check-mix", ["check", "--scenario", chsh, "--model", mix],
           check_verdict(wl_bell.ExactLP(chsh_std, mix_model), False))
    wl.add("verify-mix", ["verify-certificate", wl.path("check-mix.out"),
                          "--scenario", chsh, "--model", mix],
           check_verified)
    if not smoke:
        wl.add("map-event", ["map", "--kind", "event", f_scn, g_scn],
               check_map(f_std, g_std))
    wl.add("decompose", ["decompose", "--scenario", spec, "--model", sd],
           check_decompose)

    key = sorted(pr_model["distributions"])[0]
    for label, mutate in [
            ("abc", lambda m: m["distributions"][key].update(
                {next(iter(m["distributions"][key])): "abc"})),
            ("1/0", lambda m: m["distributions"][key].update(
                {next(iter(m["distributions"][key])): "1/0"})),
            ("list", lambda m: m.update(
                {"distributions": sorted(m["distributions"].items())}))]:
        bad = json.loads(json.dumps(pr_model))
        mutate(bad)
        name = "check-malformed-%s" % label.replace("/", "-")
        path = wl.write(name + ".json", bad)
        wl.add(name, ["check", "--scenario", chsh, "--model", path],
               check_invalid_input, fault=FAULT)
    return wl
