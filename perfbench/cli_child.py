"""`ctx` child process: python3 cli_child.py REPORT TRACE VERB ARGS...

Runs the verb through ctxlib.cli.main, as the `ctx` command does, and writes
REPORT as JSON, also when the verb raises: this process's own peak RSS and,
with TRACE = 1, the time to import ctxlib.cli and the layers' self times
and counts (tracer.py).  The exit code and output are those of `ctx`.
"""

import json
import sys
import time

from common import peak_rss_kb


def main():
    out, traced, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    start = time.perf_counter()
    import ctxlib.cli as cli
    report = {"import_s": time.perf_counter() - start} if traced else {}
    if traced:
        import tracer
        tr = tracer.install(tracer.Tracer())
    try:
        code = cli.main(argv)
    finally:
        if traced:
            report.update(tr.snapshot())
        report["peak_rss_kb"] = peak_rss_kb()
        with open(out, "w") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
