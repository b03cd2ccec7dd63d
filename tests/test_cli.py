import json

from fluxweight.cli import main
from fluxweight.experiments import run_experiment


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


def test_demo_weights_cli(tmp_path, capsys):
    rc = main(["demo-weights", "--k", "2", "--c2", "1.0", "--steps", "2",
               "--out", str(tmp_path / "w")])
    assert rc == 0
    summary = (tmp_path / "w" / "summary.csv").read_text().splitlines()
    assert summary[0] == "step,elements,depth_near_boundary,depth_center"
    assert len(summary) == 4
    assert (tmp_path / "w" / "mesh_step0.txt").exists()


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


def test_parallel_jobs_match_serial(tmp_path):
    report_s, _, _ = run_experiment(small_manifest(), tmp_path / "ser",
                                    jobs=1)
    report_p, _, _ = run_experiment(small_manifest(), tmp_path / "par",
                                    jobs=2)
    a = (tmp_path / "ser" / "uni" / "table.csv").read_text()
    b = (tmp_path / "par" / "uni" / "table.csv").read_text()
    assert a == b


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
