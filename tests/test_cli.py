import json
import math
import os
import re
from collections import Counter
from pathlib import Path

import pytest

from fluxweight.cli import main
from fluxweight.experiments import check_manifest, run_experiment

ROOT = Path(__file__).resolve().parent.parent


def small_manifest(**overrides):
    manifest = {
        "problem": "franke", "method": "nitsche", "k": 1, "gamma": 10.0,
        "C1": 1.0, "C2": 1.0, "theta": 0.5, "budget": 300, "M": 10,
        "studies": [
            {"name": "uni", "type": "uniform", "levels": 2, "initial_n": 4},
            {"name": "amr", "type": "amr"},
        ],
        "assertions": [
            {"check": "rows", "study": "uni", "count": 2},
        ],
    }
    manifest.update(overrides)
    return manifest


def test_list_problems(capsys):
    assert main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in ("franke", "varcoef-peak", "lshape-singular"):
        assert name in out


def test_weights_manifest_dumps_every_step(tmp_path):
    rc = main(["run", str(ROOT / "manifests" / "weights.json"),
               "--out", str(tmp_path / "w"), "--dump-mesh"])
    assert rc == 0
    out = tmp_path / "w" / "weights"
    assert (out / "summary.csv").read_text().splitlines() == [
        "step,elements,depth_near_boundary,depth_center",
        "0,32,0,0", "1,64,1,1", "2,128,2,2", "3,256,3,3",
        "4,488,4,4", "5,872,5,4", "6,1456,6,4", "7,2352,7,4"]
    for i in range(8):
        assert (out / f"mesh_step{i}.txt").exists()
    assert not (out / "mesh_step8.txt").exists()
    assert ((out / "mesh_step7.txt").read_text()
            == (out / "final_mesh.txt").read_text())


def test_readme_commands_are_subcommands(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    commands = set(re.findall(r"(?:^|`)fluxweight ([a-z][a-z-]*)", readme,
                              re.MULTILINE))
    assert {"run", "list-problems"} <= commands
    for command in sorted(commands):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0, command


def test_run_manifest_outputs(tmp_path):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(small_manifest()))
    rc = main(["run", str(mpath), "--out", str(tmp_path / "out"),
               "--dump-mesh", "--dump-indicators", "--dump-pyramid"])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "report.json").exists()
    assert (out / "uni" / "record.csv").exists()
    assert (out / "uni" / "table.csv").exists()
    assert (out / "uni" / "convergence.svg").exists()
    assert (out / "uni" / "final_mesh.txt").exists()
    assert (out / "uni" / "indicators.csv").exists()
    assert (out / "uni" / "pyramid.csv").exists()
    table = (out / "uni" / "table.csv").read_text().splitlines()
    assert table[0].split(",")[-1] == "ratio_E2_E1"
    assert len(table) == 3
    svg = (out / "uni" / "convergence.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_empty_manifest_exits_zero(tmp_path):
    mpath = tmp_path / "empty.json"
    mpath.write_text(json.dumps({"studies": []}))
    assert main(["run", str(mpath), "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["ok"] is True


def test_failed_assertion_nonzero_exit(tmp_path):
    manifest = small_manifest(assertions=[
        {"check": "rows", "study": "uni", "count": 99}])
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(manifest))
    assert main(["run", str(mpath), "--out", str(tmp_path / "out")]) == 1


def test_manifest_determinism(tmp_path):
    report1, ok1, _ = run_experiment(small_manifest(), tmp_path / "a")
    report2, ok2, _ = run_experiment(small_manifest(), tmp_path / "b")
    assert ok1 and ok2
    csv_a = (tmp_path / "a" / "amr" / "record.csv").read_text().splitlines()
    csv_b = (tmp_path / "b" / "amr" / "record.csv").read_text().splitlines()
    # identical except wall-clock columns
    for la, lb in zip(csv_a, csv_b):
        assert la.split(",")[:-1] == lb.split(",")[:-1]


def test_studies_together_match_each_alone(tmp_path):
    # two studies take one thread each where two CPUs are available; the
    # tables must not see it (a record's last column is its seconds)
    def rows(path):
        lines = path.read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    manifest = small_manifest()
    run_experiment(manifest, tmp_path / "both")
    for study in manifest["studies"]:
        name = study["name"]
        run_experiment(small_manifest(studies=[study], assertions=[]),
                       tmp_path / name)
        both, alone = tmp_path / "both" / name, tmp_path / name / name
        assert rows(both / "record.csv") == rows(alone / "record.csv")
        if name == "uni":
            assert ((both / "table.csv").read_text()
                    == (alone / "table.csv").read_text())


def test_assertion_vocabulary(tmp_path):
    manifest = small_manifest(assertions=[
        {"check": "rows", "study": "uni", "count": 2},
        {"check": "rate_last", "study": "uni", "metric": "E2",
         "min": -5.0, "max": 5.0},
        {"check": "ratio_band", "study": "uni", "num": "E2", "den": "E1",
         "min": 0.0, "max": 10.0},
        {"check": "slope_max", "study": "amr", "metric": "E2", "max": 0.0},
        {"check": "final_factor", "study_a": "amr", "study_b": "uni",
         "metric": "E2", "factor": 1000.0},
    ])
    report, ok, _ = run_experiment(manifest, tmp_path / "out")
    assert ok
    assert len(report["assertions"]) == 5


@pytest.mark.parametrize("path", sorted(
    (ROOT / "manifests").glob("*.json")) + sorted(
    (ROOT / "bench" / "workloads").glob("*.json")), ids=lambda p: p.stem)
def test_shipped_manifests_pass_the_check(path):
    check_manifest(json.loads(path.read_text()))


@pytest.mark.parametrize("overrides, match", [
    (dict(budjet=300), "unknown manifest key 'budjet'"),
    (dict(studies=[{"name": "amr", "type": "amr", "level": 3}]),
     "unknown key 'level' in study 'amr'"),
    (dict(studies=[{"type": "amr"}, {"type": "uniform"}, {"type": "amr"}]),
     "two studies named 'amr'"),
    (dict(assertions=[{"check": "rows", "study": "amrr", "count": 2}]),
     "assertion 'rows' names no study 'amrr'"),
    (dict(assertions=[{"check": "rows_max", "study": "amr", "count": 2}]),
     "unknown assertion 'rows_max'"),
    # a value is refused at its study, also when another study comes first
    (dict(studies=[{"name": "uni", "type": "uniform", "levels": 1},
                   {"name": "amr", "type": "amr", "theta": 1.5}],
          assertions=[]), "marking fraction"),
    (dict(theta=0.0), "marking fraction"),
    (dict(C1=0.0), "weight constants must be positive"),
    (dict(studies=[{"name": "amr", "type": "amr", "C2": -1.0}],
          assertions=[]), "weight constants must be positive"),
    (dict(estimator="eta_classic"), "unknown estimator 'eta_classic'"),
    (dict(method="nitsch"), "unknown method 'nitsch'"),
    (dict(studies=[{"name": "uni", "type": "uniform", "levels": 1},
                   {"name": "amr", "type": "amrr"}],
          assertions=[]), "unknown study type 'amrr'"),
    (dict(studies=[{"name": "uni", "type": "uniform", "levels": 1},
                   {"name": "amr", "type": "amr", "problem": "frank"}],
          assertions=[]), "unknown problem 'frank'"),
    (dict(sign=2), "sign must be"),
    # a study that would make no row, or counts below zero
    (dict(studies=[{"name": "uni", "type": "uniform", "levels": 0}],
          assertions=[]), "'uni': levels must be at least 1, got 0"),
    (dict(studies=[{"name": "gr", "type": "graded", "h_list": []}],
          assertions=[]), "'gr': a graded study needs a non-empty h_list"),
    (dict(studies=[{"name": "w", "type": "weight_demo", "steps": -1}],
          assertions=[]), "'w': steps must be at least 0, got -1"),
    (dict(studies=[{"name": "uni", "type": "uniform", "levels": 2,
                    "e1_levels": 3}],
          assertions=[]), r"'uni': e1_levels must lie in \[0, 2\], got 3"),
    (dict(studies=[{"name": "uni", "type": "uniform", "levels": 2,
                    "e1_levels": -1}],
          assertions=[]), r"'uni': e1_levels must lie in \[0, 2\], got -1"),
])
def test_malformed_manifest_is_refused_before_any_study(tmp_path, overrides,
                                                        match):
    with pytest.raises(ValueError, match=match):
        run_experiment(small_manifest(**overrides), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_study_threads_name_their_log_records(tmp_path, monkeypatch, caplog):
    # two CPUs give each of the two studies a thread named after it, so
    # every solve line says which study it belongs to: each study logs
    # as many solves under its name as it does alone
    def solve_threads(manifest, out):
        caplog.clear()
        with caplog.at_level("INFO"):
            run_experiment(manifest, out)
        return Counter(r.threadName for r in caplog.records
                       if r.name == "fluxweight.fem")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    both = solve_threads(small_manifest(), tmp_path / "both")
    manifest = small_manifest()
    for study in manifest["studies"]:
        alone = solve_threads(small_manifest(studies=[study], assertions=[]),
                              tmp_path / study["name"])
        assert both[study["name"]] == alone["MainThread"] > 0
    assert sum(both.values()) == both["uni"] + both["amr"]


@pytest.mark.slow
def test_every_table2_solve_logs_a_finite_rcond(tmp_path, caplog):
    # the manifest's largest factor, the E1 reference with 67 073
    # unknowns and 10.06M LU nonzeros, is checked like every other one
    with caplog.at_level("INFO", logger="fluxweight.fem"):
        _, ok, _ = run_experiment(ROOT / "manifests" / "table2.json",
                                  tmp_path)
    assert ok
    stats = [r.args for r in caplog.records if r.name == "fluxweight.fem"]
    assert max(s["lu_nnz"] for s in stats) > 10_000_000
    for s in stats:
        assert math.isfinite(s["rcond"]) and 1e-12 <= s["rcond"] <= 1.0, s
