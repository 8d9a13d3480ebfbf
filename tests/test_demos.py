"""The fast demos run to completion against the current API.

`toy_training_run.py` is left out: it trains for about a minute, and the
`test_06` acceptance gate runs the same pipeline at a larger scale.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
FAST_DEMOS = ["feature_round_trip.py", "flow_path_and_sampling.py",
              "span_masking.py", "speaker_prompt_plumbing.py"]


@pytest.mark.parametrize("demo", FAST_DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    result = subprocess.run([sys.executable, str(REPO / "demos" / demo)], cwd=REPO,
                            env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
