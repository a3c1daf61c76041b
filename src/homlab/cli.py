"""Command-line entry point: flat key=value configs in, CSV/JSON artifacts
out.  Every command is idempotent given (config, seed) and always writes a
run manifest, even on failure."""

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .corrector import build_corrector_set, save_corrector_set
from .diagnostics import growth_profile, minimal_radius
from .ensemble import (KINDS, ExperimentPlan, records_to_csv, run_ensemble,
                       sample_coefficients, summarize)
from .lattice import Ball, ball_mask, save_field
from .partition import build_partition, check_refinement, interaction_sum
from .randomfield import (CovarianceSpec, SeedSpec, beta_effective,
                          empirical_covariance, sample_gaussian)
from .sensitivity import FunctionalSpec, fd_check, malliavin_derivative

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    pass


_SCHEMA = {
    "dimension": int,
    "grid": int,
    "grids": "int_list",
    "lambda": float,
    "gamma": float,
    "skew": float,
    "delta": float,
    "deltas": "float_list",
    "radii": "float_list",
    "realizations": int,
    "master_seed": int,
    "tol": float,
    "max_iter": int,
    "constant": int,
    "beta": float,
    "region": float,
    "fd_step": float,
}

_DEFAULTS = {
    "dimension": 2,
    "grid": 64,
    "grids": (),
    "lambda": 0.25,
    "gamma": 2.5,
    "skew": 0.0,
    "delta": 1.0 / 16.0,
    "deltas": (),
    "radii": (),
    "realizations": 8,
    "master_seed": 0,
    "tol": 1e-9,
    "max_iter": 100000,
    "constant": 0,
    "beta": None,  # derived from gamma unless set
    "region": 40.5,
    "fd_step": 1e-5,
}


def parse_config(path):
    """Flat key=value lines, '#' comments; unknown keys are errors."""
    cfg = dict(_DEFAULTS)
    if path is None:
        return cfg
    try:
        fh = open(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, val = (s.strip() for s in line.split("=", 1))
            if key not in _SCHEMA:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            kind = _SCHEMA[key]
            try:
                if kind == "int_list":
                    cfg[key] = tuple(int(v) for v in val.split(",") if v)
                elif kind == "float_list":
                    cfg[key] = tuple(float(v) for v in val.split(",") if v)
                else:
                    cfg[key] = kind(val)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: "
                                  f"{exc}") from exc
    return cfg


def _configured(make, *args, **kwargs):
    """``make(*args, **kwargs)``, with a ValueError it raises reported as the
    configuration error it is."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _plan_from_config(cfg, kind):
    return _configured(
        ExperimentPlan,
        kind=kind,
        d=cfg["dimension"],
        n=cfg["grid"],
        lam=cfg["lambda"],
        gamma=cfg["gamma"],
        nu=cfg["skew"],
        m=cfg["realizations"],
        master_seed=cfg["master_seed"],
        delta=cfg["delta"],
        deltas=cfg["deltas"],
        radii=cfg["radii"],
        grids=cfg["grids"],
        tol=cfg["tol"],
        max_iter=cfg["max_iter"],
        constant_model=bool(cfg["constant"]),
    )


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)


def cmd_sample(cfg, outdir):
    plan = _plan_from_config(cfg, "scaling")
    grid = plan.grid()
    fields = []
    for index in range(plan.m):
        a = sample_coefficients(plan, index)
        path = os.path.join(outdir, f"coefficients_{index:04d}.bin")
        save_field(path, a.a, grid.d)
        fields.append({"index": index, "path": os.path.basename(path),
                       "lambda_eff": a.lam_eff})
    if not plan.constant_model:
        spec = CovarianceSpec(plan.gamma, plan.beta_eff)
        samples = [sample_gaussian(spec, grid,
                                   SeedSpec(plan.master_seed, i, salt=3))
                   for i in range(max(plan.m, 8))]
        lags, cov = empirical_covariance(samples)
        lines = ["r,covariance"]
        lines += [f"{int(r)},{c!r}" for r, c in zip(lags, cov)]
        _write_text(os.path.join(outdir, "covariance_profile.csv"),
                    "\n".join(lines) + "\n")
    _write_json(os.path.join(outdir, "fields.json"),
                {"schema": 1, "fields": fields})
    return {"fields": len(fields)}


def cmd_corrector(cfg, outdir):
    plan = _plan_from_config(cfg, "scaling")
    a = sample_coefficients(plan, 0)
    corr = build_corrector_set(a, plan.opts())
    summary = save_corrector_set(corr, outdir)
    return {"a_hom": summary["a_hom"]}


def cmd_diagnose(cfg, outdir):
    plan = _plan_from_config(cfg, "growth")
    a = sample_coefficients(plan, 0)
    corr = build_corrector_set(a, plan.opts())
    radii = plan.effective_radii()
    prof = growth_profile(corr, radii, plan.beta_eff)
    rep = minimal_radius(corr, plan.delta)
    lines = ["radius,V,reference"]
    for r, v, g in zip(prof.radii, prof.values, prof.reference):
        lines.append(f"{r!r},{v!r},{g!r}")
    _write_text(os.path.join(outdir, "growth.csv"), "\n".join(lines) + "\n")
    payload = {
        "schema": 1,
        "r_star": rep.r_star if np.isfinite(rep.r_star) else "inf",
        "delta": rep.delta,
        "regime": prof.regime,
        "a_hom": corr.a_hom.tolist(),
    }
    _write_json(os.path.join(outdir, "diagnostics.json"), payload)
    return payload


def cmd_experiment(cfg, outdir, kind):
    plan = _plan_from_config(cfg, kind)
    records = run_ensemble(plan)
    _write_text(os.path.join(outdir, "records.csv"), records_to_csv(records))
    summary = summarize(plan, records)
    _write_json(os.path.join(outdir, "fits.json"), summary)
    return summary


def cmd_partition_check(cfg, outdir):
    d = cfg["dimension"]
    beta = cfg["beta"]
    if beta is None:
        beta = beta_effective(cfg["gamma"], d)
    part = _configured(build_partition, cfg["region"], beta, d)
    c_meas = check_refinement(part)
    gamma = cfg["gamma"]
    inter = _configured(interaction_sum, part, gamma)
    lines = [",".join([f"corner{j}" for j in range(d)]
                      + ["side", "diam", "dist", "n_sub"])]
    diam, dist = part.diam, part.dist
    for i in range(part.corners.shape[0]):
        row = [repr(c) for c in part.corners[i]]
        row += [repr(part.sides[i]), repr(diam[i]), repr(dist[i]),
                str(int(part.n_sub[i]))]
        lines.append(",".join(row))
    _write_text(os.path.join(outdir, "cells.csv"), "\n".join(lines) + "\n")
    payload = {"schema": 1, "beta": beta, "cells": part.corners.shape[0],
               "C_meas": c_meas, "interaction_sum": inter, "gamma": gamma}
    _write_json(os.path.join(outdir, "partition.json"), payload)
    return payload


def cmd_sensitivity_check(cfg, outdir):
    t = cfg["fd_step"]
    if not t > 0:
        raise ConfigError(f"fd_step must be positive, got {t}")
    plan = _plan_from_config(cfg, "scaling")
    a = sample_coefficients(plan, 0)
    grid = plan.grid()
    opts = plan.opts()
    rng = SeedSpec(plan.master_seed, 0, salt=4).rng()
    mask = ball_mask(grid, Ball((0.0,) * grid.d, min(8.0, grid.n / 8)))
    g = np.zeros((grid.d,) + grid.shape)
    g[0][mask] = 1.0
    g /= np.sqrt(np.mean(np.sum(g**2, axis=0)))
    cell = tuple(int(v) for v in rng.integers(0, grid.n, grid.d))
    results = {}
    for kind in ("phi", "sigma"):
        spec = FunctionalSpec(kind, g)
        deriv = malliavin_derivative(a, spec, opts)
        for name, da in (("sym", np.eye(grid.d)),
                         ("skew", _skew_dir(grid.d))):
            err, fd, adj = fd_check(a, spec, cell, da, t, opts, deriv)
            results[f"{kind}_{name}"] = {"relative_error": err,
                                         "fd": fd, "adjoint": adj}
    payload = {"schema": 1, "cell": list(cell), "step": t, "checks": results}
    _write_json(os.path.join(outdir, "sensitivity.json"), payload)
    return payload


def _skew_dir(d):
    da = np.zeros((d, d))
    da[0, 1], da[1, 0] = 1.0, -1.0
    return da / np.sqrt(2.0)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="homlab",
        description="numerical laboratory for elliptic homogenization "
                    "with correlated random coefficients")
    parser.add_argument("--config", default=None, help="key=value file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed override")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("sample")
    sub.add_parser("corrector")
    sub.add_parser("diagnose")
    exp = sub.add_parser("experiment")
    exp.add_argument("kind", choices=KINDS)
    sub.add_parser("partition-check")
    sub.add_parser("sensitivity-check")
    args = parser.parse_args(argv)

    os.makedirs(args.out, exist_ok=True)
    manifest = {
        "schema": 1,
        "command": args.command,
        "config": args.config,
        "version": __version__,
        "numpy": np.__version__,
        "status": "failed",
        "error": None,
    }
    t0 = time.perf_counter()
    code = EXIT_OK
    try:
        cfg = parse_config(args.config)
        if args.seed is not None:
            cfg["master_seed"] = args.seed
        manifest["effective_config"] = {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in sorted(cfg.items())}
        if args.command == "sample":
            result = cmd_sample(cfg, args.out)
        elif args.command == "corrector":
            result = cmd_corrector(cfg, args.out)
        elif args.command == "diagnose":
            result = cmd_diagnose(cfg, args.out)
        elif args.command == "experiment":
            result = cmd_experiment(cfg, args.out, args.kind)
        elif args.command == "partition-check":
            result = cmd_partition_check(cfg, args.out)
        else:
            result = cmd_sensitivity_check(cfg, args.out)
        manifest["status"] = "ok"
        manifest["result_keys"] = sorted(result)
    except ConfigError as exc:
        manifest["error"] = str(exc)
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (RuntimeError, ValueError, ArithmeticError) as exc:
        manifest["error"] = str(exc)
        print(f"runtime error: {exc}", file=sys.stderr)
        code = EXIT_SOLVER
    finally:
        manifest["wall_time_s"] = time.perf_counter() - t0
        _write_json(os.path.join(args.out, "manifest.json"), manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
