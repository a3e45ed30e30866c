"""mra-sync benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload desk --seed 1 --seconds 25 --trace 0

Workloads: desk, wide, high_snr (see bench/README.md). With --trace 0 the
last line of standard output holds every end-to-end metric; with --trace 1
it holds the per-layer metrics of a traced run. The run happens in a child
process (bench/harness.py) so that its peak resident set size can be read
from the kernel's accounting of that one process; BLAS threads are fixed
before the child imports numpy. A result file with the environment block,
sample counts and check results is written to bench/out/.

Exit codes: 0 correct, 1 a correctness check failed, 2 the run could not
be made (no mra_sync sources here, the child crashed or timed out).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# One BLAS thread: a single caller in a closed loop, at or below nproc on
# any machine, and less exposed to other load than one thread per core.
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def main(argv=None):
    parser = argparse.ArgumentParser(description="mra-sync benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mra_sync" / "__init__.py").is_file():
        print(f"error: no mra_sync sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    command = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 2
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        print(f"error: harness exited with code {child.returncode}", file=sys.stderr)
        return 2
    result = json.loads(lines[-1])
    details = result.pop("details")

    # The only child has been reaped, so this is its own peak.
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    details["peak_rss_mb"] = peak_kib / 1024.0
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}

    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({**result, "details": details}, fh, indent=1)

    print("environment " + json.dumps(details["environment"]))
    print(f"failed_frac {details['failed_frac']:.6g} ({result['failed']} of "
          f"{result['attempted']} run_grid calls)")
    for name, probe in details["probe_ms"].items():
        print(f"{name} probe: median {probe['median']:.4g} ms over {probe['count']} probes; "
              f"times are scaled to a {probe['reference']:g} ms probe")
    for method, info in details["latency"].items():
        print(f"{method}_ms: tail is p{info['tail_pct']:g} of {info['samples']} calls, "
              f"{info['beyond_tail']} beyond it; raw p50 {info.get('raw_p50', float('nan')):.6g} ms, "
              f"raw tail {info.get('raw_tail', float('nan')):.6g} ms")
    for name, value in details["raw"].items():
        print(f"raw {name} {value:.6g}")
    for name, value in details["quality_details"]["db"].items():
        print(f"{name}_db {value:.6g} dB")
    for metric, entry in result["metrics"].items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
