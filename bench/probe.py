"""Child-process probes: each starts in a fresh interpreter, so caches are cold.

    python3 bench/probe.py warm '[sizes, seed, share, seconds, min_solves]'
        build the five solver instances, then solve one share of the
        warm-library stream; print what ``workloads.warm_share`` returns
    python3 bench/probe.py verify <max-n or "default">
        run every verify suite in turn; print {"suites": {name: [start, end]},
        "failures": count}

Run with the repository's ``src`` on PYTHONPATH.
"""

import contextlib
import io
import json
import sys
from time import perf_counter


def probe_warm(sizes, seed, share, seconds, min_solves):
    import random

    from layers import Tracer
    from workloads import warm_share

    sizes["board"] = tuple(sizes["board"])
    rng = random.Random(f"warm-library:{seed}:{share}")
    return warm_share(sizes, rng, seconds, min_solves, Tracer(enabled=False))


def probe_verify(max_n):
    from colorlattice import cli

    from layers import VERIFY_SUITES

    suites, failures = {}, 0
    extra = [] if max_n == "default" else ["--max-n", max_n]
    for suite in VERIFY_SUITES:
        out = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", suite, "--json"] + extra)
        suites[suite] = [start, perf_counter()]
        failures += json.loads(out.getvalue())["failures"] + (code != 0)
    return {"suites": suites, "failures": failures}


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "warm":
        result = probe_warm(*json.loads(arg))
    elif mode == "verify":
        result = probe_verify(arg)
    else:
        sys.exit(f"unknown probe {mode!r}")
    print(json.dumps(result))
