"""Byte-for-byte golden outputs of the CLI.

Each case is an argv whose stdout-equivalent ``--out`` file must match the
committed file in ``tests/golden/`` exactly.  The Monte Carlo cases pin the
current stream layout (one Philox stream per seed, kind and trial), so a
change to that layout shows up here first.  Monte Carlo and sweep cases also
run at several ``--workers`` values, none of which may change a byte.

Regenerate deliberately, and record why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from supportlab.cli import main, save_instance
from supportlab.model import (
    DesignMatrix,
    ProblemInstance,
    flat_signal,
    gaussian_design,
    make_pattern,
    synthesize_observation,
)

GOLDEN = Path(__file__).resolve().parent / "golden"
DUPLICATE_INSTANCE = GOLDEN / "instance_duplicate_column.json"

# (name, argv, worker counts to run at; () for commands without --workers)
CASES = [
    # Acceptance C06: fixed design, T = {1,2}, deficits d = 1 and d = 2.
    ("mc_pairwise_c06_d1",
     ["mc", "pairwise", "--n", "8", "--p", "12", "--k", "2", "--seed", "90210",
      "--wrong", "2,3", "--trials", "100000", "--level", "0.99"], ("4",)),
    ("mc_pairwise_c06_d2",
     ["mc", "pairwise", "--n", "8", "--p", "12", "--k", "2", "--seed", "90210",
      "--wrong", "3,4", "--trials", "100000", "--level", "0.99"], ("4",)),
    # Acceptance C07: fresh design per trial.
    ("mc_pairwise_c07",
     ["mc", "pairwise", "--n", "12", "--p", "6", "--k", "1", "--seed", "90210",
      "--wrong", "2", "--design-mode", "fresh", "--trials", "3000", "--level", "0.99"],
     ("1", "3")),
    # Acceptance C08 at a few hundred trials.
    ("mc_recover_c08",
     ["mc", "recover", "--n", "40", "--p", "12", "--k", "2", "--seed", "90210",
      "--trials", "300", "--level", "0.99"], ("1", "3")),
    # Low SNR with a fresh true support per trial, so errors are counted.
    ("mc_recover_random_support",
     ["mc", "recover", "--n", "12", "--p", "7", "--k", "2", "--seed", "9",
      "--beta-min", "0.8", "--trials", "300", "--random-support"], ("1", "3")),
    # Acceptance C13's sweep, with an invalid grid point reported in place.
    ("sweep_c13",
     ["sweep", "--target", "pairwise", "--p", "10", "--k", "2", "--seed", "41",
      "--wrong", "2,3", "--trials", "4000", "--vary", "n", "--values", "6,0,9,12"],
     ("1", "3")),
    ("decode_n40",
     ["decode", "--n", "40", "--p", "12", "--k", "2", "--seed", "11"], ()),
    ("decode_duplicate_column",
     ["decode", "--instance", str(DUPLICATE_INSTANCE)], ()),
    ("bound_pairwise",
     ["bound", "pairwise", "--n", "40", "--p", "12", "--k", "2", "--seed", "11",
      "--wrong", "2,5"], ()),
    ("bound_mgf",
     ["bound", "mgf", "--n", "40", "--p", "12", "--k", "2", "--seed", "11",
      "--wrong", "2,5", "--t", "0.2"], ()),
    ("bound_union_sum",
     ["bound", "union-sum", "--n", "40", "--p", "12", "--k", "2",
      "--beta-min-sq", "1.0"], ()),
]


def _suffix(argv: list[str]) -> str:
    return ".csv" if argv[0] in ("mc", "sweep") else ".json"


def _golden_path(name: str, argv: list[str]) -> Path:
    return GOLDEN / (name + _suffix(argv))


def _runs():
    for name, argv, workers in CASES:
        for w in workers or (None,):
            extra = ["--workers", w] if w is not None else []
            yield pytest.param(name, argv + extra, id=name if w is None else f"{name}-w{w}")


@pytest.mark.parametrize("name, argv", list(_runs()))
def test_golden_bytes(name, argv, tmp_path):
    out = tmp_path / ("out" + _suffix(argv))
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_bytes() == _golden_path(name, argv).read_bytes()


def _write_duplicate_instance() -> None:
    """n=10, p=6 design with column 5 a copy of column 1 and column 6 twice
    column 2 (1-based), true support {1, 3}."""
    entries = np.array(gaussian_design(10, 6, seed=5).entries)
    entries[:, 4] = entries[:, 0]
    entries[:, 5] = 2.0 * entries[:, 1]
    design = DesignMatrix(entries=entries)
    signal = flat_signal(make_pattern([0, 2], 6), 1.5)
    y = synthesize_observation(design, signal, noise_seed=5)
    save_instance(str(DUPLICATE_INSTANCE),
                  ProblemInstance(design=design, signal=signal, observation=y))


def regenerate() -> None:
    GOLDEN.mkdir(exist_ok=True)
    _write_duplicate_instance()
    for name, argv, _ in CASES:
        code = main(argv + ["--out", str(_golden_path(name, argv))])
        if code != 0:
            raise SystemExit(f"{name}: exit {code}")


if __name__ == "__main__":
    regenerate()
