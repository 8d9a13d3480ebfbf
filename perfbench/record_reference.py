"""Record the check pass's output fingerprints into perfbench/reference.json.

    python3 perfbench/record_reference.py [workload ...]

Run it only at a commit whose outputs are known to be right: every later
benchmark run compares its check pass against what this writes.
"""

import json
import sys
import tempfile

import run

if __name__ == "__main__":
    run.limit_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import bench
    from workloads import WORKLOADS

    names = sys.argv[1:] or list(WORKLOADS)
    recorded = json.loads(bench.REFERENCE_PATH.read_text()) \
        if bench.REFERENCE_PATH.exists() else {}
    run.WORK_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK_ROOT) as work_dir:
        for name in names:
            observed, problems, _ = bench.run_canary(WORKLOADS[name], work_dir)
            if any(problems):
                sys.exit(f"{name}: check pass broke an invariant: {problems}")
            recorded[name] = observed
            print(f"recorded {name}: {len(observed['ops'])} operations")
    run.WORK_ROOT.rmdir()
    bench.REFERENCE_PATH.write_text(json.dumps(recorded, indent=1) + "\n")
