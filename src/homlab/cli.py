"""Command-line entry point: flat key=value configs in, CSV/JSON artifacts
out.  Every command is idempotent given (config, seed) and always writes a
run manifest, even on failure."""

import argparse
import dataclasses
import json
import math
import os
import platform
import sys
import time

import numpy as np
import scipy

from . import __version__
from .corrector import build_corrector_set, save_corrector_set
from .diagnostics import growth_profile, minimal_radius, regime_reference
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

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class ConfigError(ValueError):
    pass


def _list_of(kind):
    return lambda val: tuple(kind(v) for v in val.split(",") if v)


def _checked(kind, ok, what):
    """A parser to ``kind`` that takes only the values ``ok`` accepts."""
    def parse(val):
        x = kind(val)
        if not ok(x):
            raise ValueError(f"must be {what}, got {x}")
        return x
    return parse


_finite = _checked(float, math.isfinite, "finite")
_flag = _checked(int, (0, 1).__contains__, "0 or 1")


# config key -> (parser, the ExperimentPlan field it sets); each key's
# default is its field's
_PLAN_KEYS = {
    "dimension": (int, "d"),
    "grid": (int, "n"),
    "grids": (_list_of(int), "grids"),
    "lambda": (_finite, "lam"),
    "gamma": (_finite, "gamma"),
    "skew": (_finite, "nu"),
    "delta": (_finite, "delta"),
    "deltas": (_list_of(_finite), "deltas"),
    "radii": (_list_of(_finite), "radii"),
    "realizations": (int, "m"),
    "master_seed": (int, "master_seed"),
    "tol": (_finite, "tol"),
    "max_iter": (int, "max_iter"),
    "constant": (_flag, "constant_model"),
}

# config keys outside the plan -> (parser, default)
_OTHER_KEYS = {
    "beta": (_finite, None),  # derived from gamma unless set
    "region": (_finite, 40.5),
    "fd_step": (_finite, 1e-5),
}

_PARSERS = {key: parse
            for key, (parse, _) in {**_PLAN_KEYS, **_OTHER_KEYS}.items()}
_PLAN_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentPlan)}


def _defaults():
    cfg = {}
    for key, (parse, name) in _PLAN_KEYS.items():
        value = _PLAN_FIELDS[name].default
        # a scalar in the type its key parses to: constant_model False is 0
        cfg[key] = value if isinstance(value, tuple) else parse(value)
    return cfg | {key: default for key, (_, default) in _OTHER_KEYS.items()}


def parse_config(path):
    """Flat key=value lines, '#' comments; unknown keys are errors."""
    cfg = _defaults()
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
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                cfg[key] = _PARSERS[key](val)
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
    return _configured(ExperimentPlan, kind=kind, **{
        name: _PLAN_FIELDS[name].type(cfg[key])
        for key, (_, name) in _PLAN_KEYS.items()})


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
    values = growth_profile(corr, radii)
    reference, regime = regime_reference(plan.d, plan.beta_eff, radii)
    r_star = minimal_radius(corr).r_star(plan.delta)
    lines = ["radius,V,reference"]
    for r, v, g in zip(radii, values, reference):
        lines.append(",".join(repr(float(x)) for x in (r, v, g)))
    _write_text(os.path.join(outdir, "growth.csv"), "\n".join(lines) + "\n")
    payload = {
        "schema": 1,
        "r_star": r_star if np.isfinite(r_star) else "inf",
        "delta": plan.delta,
        "regime": regime,
        "a_hom": corr.a_hom.tolist(),
    }
    _write_json(os.path.join(outdir, "diagnostics.json"), payload)
    return payload


def cmd_experiment(cfg, outdir, kind):
    plan = _plan_from_config(cfg, kind)
    records = _configured(run_ensemble, plan)  # its ValueError is the plan's
    _write_text(os.path.join(outdir, "records.csv"), records_to_csv(records))
    summary = summarize(plan, records)
    _write_json(os.path.join(outdir, "fits.json"), summary)
    return summary


def cmd_partition_check(cfg, outdir):
    d = cfg["dimension"]
    if d not in (2, 3):  # before beta_effective divides by it
        raise ConfigError(f"dimension must be 2 or 3, got {d}")
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
        "env": {"python": platform.python_version(),
                "scipy": scipy.__version__,
                "blas_threads": {v: os.environ.get(v) for v in _THREAD_VARS},
                "cpu_count": os.cpu_count(),
                "affinity_cores": len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None},
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
        if args.command == "experiment":
            result = cmd_experiment(cfg, args.out, args.kind)
        else:
            result = {"sample": cmd_sample, "corrector": cmd_corrector,
                      "diagnose": cmd_diagnose,
                      "partition-check": cmd_partition_check,
                      "sensitivity-check": cmd_sensitivity_check,
                      }[args.command](cfg, args.out)
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
