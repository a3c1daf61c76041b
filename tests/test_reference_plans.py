"""The records of the eight reference plans against their stored rows.

The rows were written by ``records_to_csv(run_ensemble(plan))``.  Index,
key, failed flag and error must match exactly and each value to a relative
1e-6, a floor that leaves room for other CPUs, BLAS and Krylov builds; a
byte-identical ``records.csv`` on one machine is a stronger check, made by
hand with sha256.
"""

import csv
import io
from pathlib import Path

import numpy as np
import pytest

from homlab.ensemble import (KINDS, ExperimentPlan, records_to_csv,
                             run_ensemble)

STORED = Path(__file__).resolve().parent / "reference_plans"

# stored file stem -> plan, every other field at its default
PLANS = {
    "scaling": dict(kind="scaling", d=2, n=32, m=3, master_seed=1),
    "growth-2d": dict(kind="growth", d=2, n=64, m=3, master_seed=2),
    "growth-3d": dict(kind="growth", d=3, n=32, m=2, gamma=3.5,
                      master_seed=3),
    "tail": dict(kind="tail", d=2, n=32, m=3, master_seed=4),
    "twoscale": dict(kind="twoscale", d=2, n=32, m=2, grids=(16, 32),
                     master_seed=5),
    "excess": dict(kind="excess", d=2, n=64, m=3, master_seed=6),
    "excess-nu": dict(kind="excess", d=2, n=64, m=3, nu=0.1, master_seed=7),
    "excess-3d": dict(kind="excess", d=3, n=32, m=2, gamma=3.5, nu=0.1,
                      master_seed=10),
}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def test_plans_cover_every_kind_and_stored_file():
    assert {plan["kind"] for plan in PLANS.values()} == set(KINDS)
    assert sorted(p.stem for p in STORED.glob("*.csv")) == sorted(PLANS)


@pytest.mark.parametrize("name", PLANS)
def test_records_match_the_stored_rows(name):
    got = _rows(records_to_csv(run_ensemble(ExperimentPlan(**PLANS[name]))))
    want = _rows((STORED / f"{name}.csv").read_text())
    assert got[0] == want[0] == ["index", "key", "value", "failed", "error"]
    assert len(got) == len(want) > 1
    exact = [0, 1, 3, 4]
    assert [[r[c] for c in exact] for r in got[1:]] == \
        [[r[c] for c in exact] for r in want[1:]]
    np.testing.assert_allclose([float(r[2]) for r in got[1:]],
                               [float(r[2]) for r in want[1:]],
                               rtol=1e-6, atol=0.0)
