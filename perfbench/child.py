"""One fresh flocklab process: import flocklab.cli, then call cli.main per argv.

    python perfbench/child.py '{"ops": [[...argv...], ...], "spans": PATH or null}'

Prints one JSON line holding, per call, the exit code, the time spent in
cli.main and what it printed.  With a ``spans`` path the layer trace is
installed after the import (which becomes the root span ``cli.import``) and
its spans are written there when the last call returns.
"""

from time import perf_counter

_t0 = perf_counter()
import flocklab.cli as cli  # noqa: E402  (timed: this is the import a CLI call pays)

_t1 = perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    request = json.loads(sys.argv[1])
    tracer = None
    if request["spans"]:
        from layertrace import Tracer, install

        tracer = Tracer()
        tracer.record("cli.import", _t0, _t1)
        install(tracer)

    ops = []
    for argv in request["ops"]:
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        ops.append({"rc": rc, "main_s": perf_counter() - start, "stdout": out.getvalue()})

    if tracer is not None:
        with open(request["spans"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, separators=(",", ":"))
    print(json.dumps({"ops": ops}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
