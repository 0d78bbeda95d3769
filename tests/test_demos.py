"""Every demo runs and prints what it printed when it was last checked.

Each demo runs in its own interpreter with ``src`` on ``PYTHONPATH``, as
README shows.  The expected output pins, among other things, the rational
path of the free-Lie triangular solve: demo 01 validates a model with the
differential ``d(w) = 1/2*[v,v]``.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

EXPECTED = {
    "01_free_lie_basics": (
        "degree 1 basis: ['x']\n"
        "degree 2 basis: ['[x,x]']\n"
        "degree 3 basis: []\n"
        "degree 4 basis: []\n"
        "[b,[a,b]] -> <LieElement deg 6: -1*[[a,b],b]>\n"
        "validates: True\n"
        "betti 1..5: {1: 1, 2: 0, 3: 0, 4: 1, 5: 0}\n"
    ),
    "02_derivation_complexes": (
        "Der(L rel omega) dims 0..4: [3, 0, 0, 0, 1]\n"
        "Der_u dims 0..4: [0, 0, 0, 0, 1]\n"
        "H_*(Der_u) 0..3: {0: 0, 1: 0, 2: 0, 3: 0}\n"
    ),
    "03_block_model": (
        "omega = <LieElement deg 4: [a,b]>\n"
        "H(Der_u rel omega): {0: 0, 1: 0, 2: 0, 3: 0}\n"
        "H(Der_u rel beta):  {0: 0, 1: 0, 2: 0, 3: 0}\n"
        "block g dims 0..3: [2, 0, 0, 0]\n"
        "twisted block g dims: [1, 3, 3, 2] chi nonzero at [(1, 1)]\n"
    ),
    "04_ce_and_exponentials": (
        "H^*(sl2): {0: 1, 1: 0, 2: 0, 3: 1}\n"
        "BCH(x, y) = [Fraction(1, 1), Fraction(1, 1), Fraction(1, 2)]\n"
        "e(theta): a -> <LieElement deg 2: a> , b -> <LieElement deg 2: a+b>\n"
        "mc_check(-2a): True\n"
    ),
    "05_gluing": (
        'generators of the sum: [\'a\', \'b\', "a\'", "b\'"]\n'
        "omega of the sum: <LieElement deg 4: [a,b]+[a',b']>\n"
        "degree-0 dims add: 2 + 2 = 4\n"
        "gluing map verified as a dg Lie map: True\n"
        "{'degree': 0, 'left': 0, 'pullback': 0, 'right': 0, 'left_agrees': True, 'right_agrees': True}\n"
        "{'degree': 1, 'left': 0, 'pullback': 0, 'right': 0, 'left_agrees': True, 'right_agrees': True}\n"
        "{'degree': 2, 'left': 0, 'pullback': 0, 'right': 0, 'left_agrees': True, 'right_agrees': True}\n"
        "{'degree': 3, 'left': 0, 'pullback': 0, 'right': 0, 'left_agrees': True, 'right_agrees': True}\n"
    ),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs_and_prints_its_pinned_output(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name + ".py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == EXPECTED[name]


def test_every_demo_is_pinned():
    names = {f[:-3] for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py")}
    assert names == set(EXPECTED)
