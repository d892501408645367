"""The benchmark's own test: python3 -m pytest perfbench/test_smoke.py

Runs every workload at tiny sizes through `run.py --smoke`, which checks
the outputs and feeds tampered outputs to the checkers, and makes sure the
benchmark refuses to run where there is no source tree.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench",
                                                        "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170, check=False)


def test_smoke_checks_pass_and_tampering_is_rejected():
    proc = run(["--smoke"], ROOT)
    assert proc.returncode == 0, proc.stderr
    reports = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [r["workload"] for r in reports] == [
        "bell-lp", "mapping-scenario", "nerve-decompose", "cli-verbs"]
    tampers = {label for r in reports for label in r["tampered_rejected"]}
    assert {"flipped certificate entry", "dropped mapping element",
            "perturbed decomposition weight",
            "traceback instead of a JSON error"} <= tampers
    for r in reports:
        assert r["errors"] == []
        assert all(r["tampered_rejected"].values())


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = run(["--workload", "bell-lp", "--seed", "1", "--seconds", "1",
                "--trace", "0"], str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
