"""Golden records of the benchmark workloads, and of an L-shape run.

tests/data/records/<workload>.csv holds the record.csv that
`fluxweight run bench/workloads/<workload>.json` writes.  Each workload
is rerun here and every column but `seconds` must agree within 1e-12
relative, with empty cells equal.  tests/data/lshape/ holds a small
manifest off the unit square (lshape-singular, Nitsche k=1: an AMR
study of 8 steps at M = 12 and a graded study) and the record.csv of
each of its studies, checked the same way.  A change that moves a
record on purpose regenerates the files (run the manifest, copy its
record.csv) and lists every moved value in CHANGES.md.
"""

import csv
import json
import math
from pathlib import Path

import pytest

from fluxweight.experiments import run_experiment

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "records"
WORKLOADS = sorted(p.stem for p in GOLDEN.glob("*.csv"))
LSHAPE = ROOT / "tests" / "data" / "lshape"


def _read(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_every_workload_has_a_golden_record():
    manifests = sorted(p.stem for p in (ROOT / "bench" / "workloads")
                       .glob("*.json"))
    assert WORKLOADS == manifests


def _assert_matches(got_path, want_path):
    got, want = _read(got_path), _read(want_path)
    assert len(got) == len(want)
    assert list(got[0]) == list(want[0])
    for step, (g, w) in enumerate(zip(got, want)):
        for col in w:
            if col == "seconds":
                continue
            if w[col] == "" or g[col] == "":
                assert g[col] == w[col], (step, col)
                continue
            a, b = float(g[col]), float(w[col])
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0), (
                step, col, a, b)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_record_matches_golden(workload, tmp_path):
    manifest = json.loads(
        (ROOT / "bench" / "workloads" / f"{workload}.json").read_text())
    _, _, results = run_experiment(manifest, tmp_path)
    (study,) = results
    _assert_matches(tmp_path / study / "record.csv",
                    GOLDEN / f"{workload}.csv")


def test_lshape_records_match_golden(tmp_path):
    manifest = json.loads((LSHAPE / "manifest.json").read_text())
    _, _, results = run_experiment(manifest, tmp_path)
    assert sorted(results) == sorted(p.stem for p in LSHAPE.glob("*.csv"))
    for study in results:
        _assert_matches(tmp_path / study / "record.csv",
                        LSHAPE / f"{study}.csv")
