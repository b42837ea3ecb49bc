"""Benchmark of colorlattice: cold CLI solves, warm library solves, verify sweeps.

    python3 bench/run.py --workload cold-solve --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the package is loaded from ``src/``.  With
``--trace 0`` the last line of standard output is one JSON object holding the
end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics instead, and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.json``.  The lines before it list the
environment and the workload's own metrics, one per line.  See
bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "colorlattice").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold-solve", "warm-library", "verify-sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "colorlattice" / "__init__.py").is_file():
        sys.exit(f"error: no colorlattice package under {SRC}; "
                 "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from layers import FULL
    from workloads import run_workload

    sizes = dict(FULL, verify_max_n="default")
    result, report, tracer, problems = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes)

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "nproc": os.cpu_count(),
           "commit": commit(), "src_sha256": source_digest()}
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, samples, note in report:
        print(f"metric {name} {value:.6g} {unit} n={samples} ({note})")
    for problem in problems[:10]:
        print(f"failed: {problem}", file=sys.stderr)
    if args.trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps(dict(tracer.as_json(), env=env)))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
