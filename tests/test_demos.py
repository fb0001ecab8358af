"""Each walkthrough in demos/ runs to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from mtcforge import graded_product, s_det_modulus, su2_level

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    run(script)


def test_graded_products_prints_determinant():
    D = graded_product(su2_level(2), su2_level(4))
    last = run(ROOT / "demos" / "graded_products.py").splitlines()[-1]
    assert last.endswith(f"|det(S/D)| = {s_det_modulus(D):.3e}"), last
