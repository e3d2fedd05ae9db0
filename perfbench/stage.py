"""Run one pipeline stage in a fresh interpreter, the way a user runs it.

    python3 perfbench/stage.py JOB.json

The job file names the checkout's `src` directory, the argument lists for
`sumforge.cli.main` (one call, or one per document for `summarize`), where
to write the result, and whether to trace. Start-up is timed from the
parent's spawn time (CLOCK_MONOTONIC, shared by all processes) to the point
where `sumforge.cli` is imported. Each call is timed on its own; its exit
code and standard output are kept, and so are the token ids every beam
search returned, for the abstractive forced-length check.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path.insert(0, job["src"])
    from sumforge import cli, infer

    ready = time.monotonic()
    beams: list[list[int]] = []
    beam_search = infer.beam_search

    def recording(*args, **kwargs):
        ids = beam_search(*args, **kwargs)
        beams.append(list(ids))
        return ids

    infer.beam_search = recording
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer, inference=job["stage"] == "summarize")

    calls = []
    for argv in job["calls"]:
        out = io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        calls.append({"rc": rc, "s": time.monotonic() - start, "stdout": out.getvalue()})
    result = {"start_s": ready - job["spawned"], "calls": calls, "beams": beams}
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(job["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0 if all(c["rc"] == 0 for c in calls) else 1


if __name__ == "__main__":
    sys.exit(main())
