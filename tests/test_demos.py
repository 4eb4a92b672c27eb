"""The demo scripts are documented entry points: each must run to completion.

``demos/03_similarity_gate.py`` is left out because it trains for about ten
seconds; the stages it calls (``train_sae``, ``gate``, ``train_bindann``) are
held equal to ``autobindann`` in ``test_similarity.py``, and
``synthetic_domain_pairs`` and ``Confusion`` are exercised by the acceptance
suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import binadapt as ba

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_autodiff_and_gradients.py", "02_train_binarizer.py",
                                    "04_histogram_metrics.py"])
def test_demo_runs(script, tmp_path):
    src = str(Path(ba.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
