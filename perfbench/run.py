"""flowsr benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a source checkout; flowsr is imported from its src/.
With --trace 0 the result holds the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is the
result as one JSON object; `--workload all` runs every workload in turn,
each in its own process. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("train_denoise", "restore_long", "restore_mixed")


def limit_blas_threads() -> None:
    """At most one BLAS thread per usable core; must run before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var, "")
        if not (value.isdigit() and 0 < int(value) <= cores):
            os.environ[var] = str(cores)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_all(args) -> int:
    """Each workload in a fresh process, relaying its output."""
    status = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = subprocess.run(cmd, check=False).returncode or status
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowsr" / "__init__.py").is_file():
        print(f"error: no flowsr sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import flowsr
    if Path(flowsr.__file__).resolve().parent != SRC / "flowsr":
        print(f"error: flowsr was imported from {flowsr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    try:
        result = bench.run(args.workload, WORKLOADS[args.workload], args.seed,
                           args.seconds, bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is still using it
    bench.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
