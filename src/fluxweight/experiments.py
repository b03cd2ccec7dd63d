"""Manifest-driven experiment runner.

A manifest is a JSON object with method/estimator parameters and a list
of studies; each study may override any parameter.  A key that neither
the manifest nor its study knows, two studies of one name, a value
that a study's AmrConfig refuses, or a study that would make no row
stop the run before any study starts and before the output directory
is made.  The runner writes
per-study directories with the convergence record CSV, derived rate
tables, self-contained SVG log-log plots, and optional mesh (a weight
demo's at every step), indicator and pyramid dumps, then evaluates the
manifest's assertions.  The process exit code is zero exactly when
every assertion passes.
"""

import json
import logging
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import driver, norms
from .driver import AmrConfig
from .estimator import dump_indicators
from .mesh import dump_mesh
from .svgplot import LogLogPlot

log = logging.getLogger(__name__)

_CONFIG_KEYS = {
    "problem": "problem", "method": "method", "k": "k", "kprime": "kprime",
    "continuous": "continuous", "gamma": "gamma", "alpha": "alpha",
    "sign": "sign", "estimator": "estimator", "C1": "c1", "C2": "c2",
    "theta": "theta", "budget": "budget", "M": "wavelet_level",
    "initial_n": "initial_n",
}
_STUDY_KEYS = {"name", "type", "levels", "e1_levels", "h_list", "steps"}
_STUDY_TYPES = {"uniform", "amr", "graded", "amr_comparison", "weight_demo"}
_ASSERTION_KINDS = {"rows", "rate_last", "ratio_band", "slope_max",
                    "final_factor"}
# the levels of a uniform study and the steps of a weight demo that
# name none
_LEVELS = 4
_STEPS = 7


def config_from(manifest, overrides=None):
    kw = {}
    for src, dst in _CONFIG_KEYS.items():
        if src in manifest:
            kw[dst] = manifest[src]
        if overrides and src in overrides:
            kw[dst] = overrides[src]
    return AmrConfig(**kw)


class StudyResult:
    def __init__(self, name, records, state=None):
        self.name = name
        self.records = records          # dict label -> ConvergenceRecord
        self.state = state              # final (mesh, sol, ind, rho)

    @property
    def primary(self):
        return next(iter(self.records.values()))


def _write_uniform_table(record, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("level,h,N,E1,rate_E1,E2,rate_E2,ratio_E2_E1\n")
        r1 = record.rates("E1")
        r2 = record.rates("E2")
        for i in range(len(record)):
            e1, e2 = record.E1[i], record.E2[i]
            ratio = e2 / e1 if np.isfinite(e1) and e1 > 0 else np.nan
            row = [str(i), f"{record.h[i]:.6g}", str(int(record.N[i]))]
            for v in (e1, None if i == 0 else r1[i - 1],
                      e2, None if i == 0 else r2[i - 1], ratio):
                row.append("" if v is None or not np.isfinite(v)
                           else f"{v:.6g}")
            fh.write(",".join(row) + "\n")


def write_weight_summary(meshes, path):
    """The summary.csv of a weight demo: element count and refinement
    depths per step."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("step,elements,depth_near_boundary,depth_center\n")
        for i, msh in enumerate(meshes):
            nb, ct = driver.refinement_depth_stats(msh)
            fh.write(f"{i},{msh.num_triangles},{nb},{ct}\n")


def _study_name(study):
    return study.get("name") or study["type"]


def check_manifest(manifest):
    """Raise ValueError at a key that neither the manifest nor a study
    knows, at a study type that run_study does not know, at two studies
    of one name, at a value that a study's AmrConfig refuses
    (config_from), at a study that would make no row (a uniform study
    of no levels, a graded one of no h) or counts below zero (steps,
    or e1_levels outside [0, levels]), or at an assertion of an unknown
    kind or one that refers to no study of the manifest."""
    unknown = sorted(set(manifest) - set(_CONFIG_KEYS)
                     - {"studies", "assertions"})
    if unknown:
        raise ValueError(f"unknown manifest key {unknown[0]!r}")
    names = set()
    for study in manifest.get("studies", []):
        if study.get("type") not in _STUDY_TYPES:
            raise ValueError(f"unknown study type {study.get('type')!r}")
        name = _study_name(study)
        unknown = sorted(set(study) - set(_CONFIG_KEYS) - _STUDY_KEYS)
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in study {name!r}")
        if name in names:
            raise ValueError(f"two studies named {name!r}")
        names.add(name)
        config_from(manifest, study)
        _check_counts(study, name)
    for spec in manifest.get("assertions", []):
        if spec.get("check") not in _ASSERTION_KINDS:
            raise ValueError(f"unknown assertion {spec.get('check')!r}")
        for key in ("study", "study_a", "study_b"):
            if key in spec and str(spec[key]).split(":")[0] not in names:
                raise ValueError(f"assertion {spec['check']!r} names no "
                                 f"study {spec[key]!r}")


def _check_counts(study, name):
    """Raise ValueError at a study of check_manifest's refused counts."""
    kind = study["type"]
    if kind == "uniform":
        levels = study.get("levels", _LEVELS)
        if levels < 1:
            raise ValueError(f"study {name!r}: levels must be at least 1, "
                             f"got {levels}")
        e1 = study.get("e1_levels")
        if e1 is not None and not 0 <= e1 <= levels:
            raise ValueError(f"study {name!r}: e1_levels must lie in "
                             f"[0, {levels}], got {e1}")
    if kind == "graded" and not study.get("h_list"):
        raise ValueError(f"study {name!r}: a graded study needs a "
                         "non-empty h_list")
    if kind == "weight_demo" and study.get("steps", _STEPS) < 0:
        raise ValueError(f"study {name!r}: steps must be at least 0, got "
                         f"{study['steps']}")


def run_study(study, manifest, out_dir, dumps):
    """Execute one study dict of a checked manifest (check_manifest);
    returns a StudyResult."""
    name = _study_name(study)
    kind = study["type"]
    cfg = config_from(manifest, study)
    sdir = Path(out_dir) / name
    sdir.mkdir(parents=True, exist_ok=True)
    records = {}

    if kind == "uniform":
        rec, state = driver.uniform_study(
            cfg, study.get("levels", _LEVELS),
            e1_levels=study.get("e1_levels"))
        records["uniform"] = rec
        _write_uniform_table(rec, sdir / "table.csv")
    elif kind == "amr":
        records[f"amr-{cfg.estimator}"], state = driver.amr_loop(cfg)
    elif kind == "graded":
        records["graded"], state = driver.graded_study(cfg, study["h_list"])
    elif kind == "amr_comparison":
        records["amr-eta"], state = driver.amr_loop(
            replace(cfg, estimator="eta"))
        records["amr-classical"], _ = driver.amr_loop(
            replace(cfg, estimator="eta_classical"))
        if study.get("h_list"):
            records["graded"], _ = driver.graded_study(cfg, study["h_list"])
    elif kind == "weight_demo":
        meshes = driver.weight_demo(cfg, study.get("steps", _STEPS))
        write_weight_summary(meshes, sdir / "summary.csv")
        if dumps.get("mesh"):
            for i, msh in enumerate(meshes):
                dump_mesh(msh, sdir / f"mesh_step{i}.txt")
            dump_mesh(meshes[-1], sdir / "final_mesh.txt")
        return StudyResult(name, records)

    for label, rec in records.items():
        rec.to_csv(sdir / (f"record.csv" if len(records) == 1
                           else f"record-{label}.csv"))
    plot = LogLogPlot(title=name, xlabel="degrees of freedom",
                      ylabel="flux error / estimator")
    curve_labels = {"graded": "E2_graded"}
    for label, rec in records.items():
        metric = np.asarray(rec.E, dtype=float)
        plot.add_curve(curve_labels.get(label, f"E ({label})"),
                       rec.N, metric)
        plot.add_curve(f"eta ({label})", rec.N, rec.eta)
    first = next(iter(records.values()))
    if len(first) and np.isfinite(first.E[0]):
        plot.add_reference_slope("slope -1", -1.0, (first.N[0], first.E[0]))
    plot.add_regression(0)
    plot.write(sdir / "convergence.svg")

    mesh, solution, indicators, rho = state
    if dumps.get("mesh"):
        dump_mesh(mesh, sdir / "final_mesh.txt")
    if dumps.get("indicators"):
        dump_indicators(indicators, mesh, rho, sdir / "indicators.csv")
    if dumps.get("pyramid"):
        delta = norms.flux_error_function(solution)
        vM = norms.sample_to_dyadic(delta, min(cfg.wavelet_level, 12))
        norms.WaveletPyramid.analyze(vM).dump(sdir / "pyramid.csv")
    return StudyResult(name, records, state=state)


def _resolve_record(results, ref):
    """Find a record by 'study' or 'study:label' reference."""
    if ":" in str(ref):
        sname, label = str(ref).split(":", 1)
        return results[sname].records[label]
    return results[str(ref)].primary


def check_assertion(spec, results):
    kind = spec["check"]
    if kind == "rows":
        rec = _resolve_record(results, spec["study"])
        ok = len(rec) == spec["count"]
        return ok, f"rows({spec['study']}) = {len(rec)} expected {spec['count']}"
    if kind == "rate_last":
        rec = _resolve_record(results, spec["study"])
        rates = rec.rates(spec.get("metric", "E2"))
        rates = rates[np.isfinite(rates)]
        n = spec.get("n_last", 1)
        sel = rates[-n:]
        ok = len(sel) >= 1 and bool(
            ((sel >= spec["min"]) & (sel <= spec["max"])).all())
        return ok, (f"last {n} {spec.get('metric', 'E2')} rates "
                    f"{np.round(sel, 3).tolist()} in "
                    f"[{spec['min']}, {spec['max']}]")
    if kind == "ratio_band":
        rec = _resolve_record(results, spec["study"])
        num = np.asarray(getattr(rec, spec.get("num", "E2")), dtype=float)
        den = np.asarray(getattr(rec, spec.get("den", "E1")), dtype=float)
        good = np.isfinite(num) & np.isfinite(den) & (den > 0)
        ratio = num[good] / den[good]
        in_band = bool(((ratio >= spec["min"]) & (ratio <= spec["max"])).all())
        drift_ok = True
        if "max_drift" in spec and len(ratio) > 1:
            drift_ok = bool(ratio.max() / ratio.min() - 1.0
                            <= spec["max_drift"])
        return in_band and drift_ok, (
            f"ratios {np.round(ratio, 3).tolist()} in "
            f"[{spec['min']}, {spec['max']}], drift ok: {drift_ok}")
    if kind == "slope_max":
        rec = _resolve_record(results, spec["study"])
        slope = rec.regression_slope(spec.get("metric", "E"))
        ok = np.isfinite(slope) and slope <= spec["max"]
        return ok, f"slope {slope:.3f} <= {spec['max']}"
    if kind == "final_factor":
        ra = _resolve_record(results, spec["study_a"])
        rb = _resolve_record(results, spec["study_b"])
        metric = spec.get("metric", "E")
        va = getattr(ra, metric)[-1]
        vb = getattr(rb, metric)[-1]
        ok = va <= spec["factor"] * vb
        return ok, (f"final {metric}: {va:.4g} <= "
                    f"{spec['factor']} * {vb:.4g}")
    raise ValueError(f"unknown assertion {kind!r}")


def run_experiment(manifest, out_dir, dump_mesh_flag=False,
                   dump_indicators_flag=False, dump_pyramid_flag=False):
    """Run all studies of the manifest; returns (report dict, ok flag,
    results by study name).

    The manifest is checked first (check_manifest).  The studies run on
    min(studies, CPUs available to the process) threads, each named
    after the study it runs; a lone study runs in the calling thread.
    """
    if isinstance(manifest, (str, Path)):
        with open(manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    check_manifest(manifest)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dumps = {"mesh": dump_mesh_flag, "indicators": dump_indicators_flag,
             "pyramid": dump_pyramid_flag}
    studies = manifest.get("studies", [])

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    threads = min(len(studies), cpus)
    if threads > 1:
        def run_named(study):
            threading.current_thread().name = _study_name(study)
            return run_study(study, manifest, out, dumps)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run_named, studies))
    else:
        done = [run_study(s, manifest, out, dumps) for s in studies]
    results = {res.name: res for res in done}

    report = {"studies": sorted(results), "assertions": []}
    ok_all = True
    for spec in manifest.get("assertions", []):
        ok, msg = check_assertion(spec, results)
        ok_all &= ok
        report["assertions"].append(
            {"check": spec["check"], "ok": bool(ok), "detail": msg})
        log.info("assertion %s: %s (%s)", spec["check"],
                 "pass" if ok else "FAIL", msg)
    report["ok"] = bool(ok_all)
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
    return report, ok_all, results
