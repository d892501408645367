"""Shared pieces of the workloads: operations, results and exact helpers
that do not go through the library."""

import json
import os
import random
from fractions import Fraction


class Result:
    """What one operation produced: the serialized output, plus objects the
    checker may use (never timed again, never reused by a later pass)."""

    __slots__ = ("text", "aux")

    def __init__(self, text, aux=None):
        self.text = text
        self.aux = aux


class Op:
    """One timed operation.

    run(traced) -> Result does the work from serialized input.
    check(result) -> list of error strings, run outside the timed region.
    failure(result) -> None, or why the program failed to produce a result.
    fault names a known program fault that makes this op fail every time.
    """

    def __init__(self, name, run, check, failure=None, fault=None):
        self.name = name
        self.run = run
        self.check = check
        self.failure = failure or (lambda result: None)
        self.fault = fault


class Workload:
    """An in-process workload: ops plus its run-wide measurements.

    Its peak RSS is measured in a fresh interpreter that sets up and runs
    one pass without checks, dropping each output at once, so that the
    benchmark's own checks and retained outputs do not count."""

    rss_in_child = True

    def __init__(self, ops):
        self.ops = ops

    def child_traces(self):
        return []

    def child_import_seconds(self):
        return []

    def tampered(self, outputs):
        """(label, rejected) for each tampered output the checkers saw."""
        return []


def peak_rss_kb():
    """This process's peak resident memory in KiB: VmHWM from
    /proc/self/status, which counts only this process's own address space
    (a child's ru_maxrss also holds its parent's peak, inherited when the
    child is started)."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def child_env(src):
    """Environment for a child interpreter that imports ctxlib from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def rng(seed, salt):
    """A workload's own stream, so workloads do not share random draws."""
    return random.Random("%s:%d" % (salt, seed))


def dumps(obj):
    """The CLI's output format (ctxlib.cli._emit)."""
    return json.dumps(obj, indent=2, sort_keys=True)


def frac(text):
    """Exact rational from a JSON weight string, without the library."""
    if not isinstance(text, (str, int)) or isinstance(text, bool):
        raise ValueError("weight %r is not an int or a string" % (text,))
    return Fraction(text)


def expect(errors, cond, message):
    if not cond:
        errors.append(message)
    return cond


def farkas_errors(y, b, columns):
    """Re-check a Farkas certificate of infeasibility for A x = b, x >= 0,
    with A a 0/1 matrix: y.b > 0 and y.column <= 0 for every column.
    columns yields (label, rows), rows being the row indices where that
    column holds a 1."""
    errors = []
    if not expect(errors, len(y) == len(b),
                  "certificate has %d entries, system has %d rows"
                  % (len(y), len(b))):
        return errors
    expect(errors, sum(yi * bi for yi, bi in zip(y, b)) > 0,
           "certificate: y.b is not positive")
    for label, rows in columns:
        if sum(y[i] for i in rows) > 0:
            errors.append("certificate: y.column > 0 at %s" % (label,))
            break
    return errors
