"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 child.py '<json job>'``.  The job names the package source
directory, the config to parse, the CLI arguments, whether to trace, and the
file to write the result to.  Set-up ends once ``hjreg.cli`` is imported and
the config is parsed; the result records that moment on the system-wide
monotonic clock so the parent can subtract its launch time.  A job without
``argv`` stops after set-up.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def main() -> None:
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    import hjreg.cli
    from hjreg.experiment import parse_config

    parse_config(job["config"])
    result: dict = {"setup_end": time.monotonic()}
    if job.get("argv") is not None:
        tracer = None
        if job.get("trace"):
            import spans

            tracer = spans.Tracer()
            spans.install(tracer)
        begin = time.perf_counter()
        try:
            code = hjreg.cli.main(job["argv"])
        except SystemExit as err:
            code = err.code if isinstance(err.code, int) else 2
        result["wall_s"] = time.perf_counter() - begin
        result["exit_code"] = code
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        if tracer is not None:
            result["layers"] = spans.summarize(tracer)
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
