"""Command-line front end.

Subcommands: ``eval`` (probability estimate), ``grad`` (gradient estimate),
``solve-energy`` (the dispatch case study), ``verify`` (self checks).
Configuration comes from an optional JSON file plus flag overrides; flags
win.  Exit codes: 0 success, 2 configuration error, 3 numerical error,
4 solver error, 5 verification failure.

All persisted artifacts are deterministic byte-for-byte for a fixed
configuration: they carry seeds and the tool version, never timestamps.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .energy import EnergyParams, make_energy_problem
from .errors import ConfigError, NumericalError, SolverError
from .estimates import evaluate, fd_gradient
from .gaussian import DEFAULT_SEED, SphereMethod, build_model, sample_sphere
from .oracles import (ConvexSetOracle, make_ball, make_constant,
                      make_halfspace, make_hyperbolic_set,
                      make_hyperbolic_system, make_slab)
from .solver import SolveOptions, solve, validate
from .verify import run_all

_SOLVER_KEYS = {"max_iters", "step_tol", "prob_band", "infeas_tol", "delta0",
                "delta_max", "feas_steps", "feas_margin", "tie_policy"}


@dataclass
class RunConfig:
    """Validated run configuration; unknown keys are rejected."""

    fixture: str = "halfspace"
    x: list = field(default_factory=lambda: [1.0])
    eps: float = None
    n: int = 10000
    seed: int = DEFAULT_SEED
    method: str = "qmc"
    tie_policy: str = "average"
    check_fd: bool = False
    out: str = None
    quick: bool = False
    dim: int = 2
    directions_csv: str = None
    validate_n: int = 200000
    validate_seed: int = None
    energy: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("mc", "qmc"):
            raise ConfigError(f"method must be 'mc' or 'qmc', got {self.method!r}")
        if self.tie_policy not in ("average", "min_index"):
            raise ConfigError(f"unknown tie policy {self.tie_policy!r}")
        if self.n < 1:
            raise ConfigError("n must be a positive direction count")
        if self.eps is not None and self.eps < 0:
            raise ConfigError("eps must be nonnegative")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        self.x = [float(v) for v in self.x]
        bad = set(self.energy) - {f.name for f in dataclasses.fields(EnergyParams)}
        if bad:
            raise ConfigError(f"unknown energy parameter keys: {sorted(bad)}")
        bad = set(self.solver) - _SOLVER_KEYS
        if bad:
            raise ConfigError(f"unknown solver option keys: {sorted(bad)}")

    @classmethod
    def from_sources(cls, config_path=None, overrides=None) -> "RunConfig":
        data = {}
        if config_path is not None:
            try:
                raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
            known = {f.name for f in dataclasses.fields(cls)}
            unknown = set(raw) - known
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            data.update(raw)
        for key, value in (overrides or {}).items():
            if value is not None:
                data[key] = value
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _parse_x(text):
    if text is None:
        return None
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --x {text!r}: {exc}") from exc


def _build_fixture(cfg: RunConfig):
    """Return (target, model, eps) for the requested fixture."""
    m = cfg.dim
    if cfg.fixture == "halfspace":
        a = np.zeros(m)
        a[0] = 1.0
        return make_halfspace(a), build_model(np.zeros(m), np.eye(m)), None
    if cfg.fixture == "slab":
        c = np.zeros(m)
        c[0] = 1.0
        sys_ = make_slab(c, lambda x: x[0], lambda x: np.array([1.0]))
        return sys_, build_model(np.zeros(m), np.eye(m)), None
    if cfg.fixture == "hyperbolic":
        model = build_model(np.zeros(2), np.eye(2))
        if cfg.eps is None:
            return make_hyperbolic_system(), model, None
        return make_hyperbolic_set(), model, cfg.eps
    if cfg.fixture == "ball":
        model = build_model(np.zeros(m), np.eye(m))
        return make_ball(np.zeros(m), z_dim=m), model, (cfg.eps or 0.0)
    if cfg.fixture == "constant":
        return make_constant(z_dim=m), build_model(np.zeros(m), np.eye(m)), None
    raise ConfigError(f"unknown fixture {cfg.fixture!r} "
                      "(choose halfspace, slab, hyperbolic, ball, constant)")


def _dump_json(payload: dict, out):
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="\n")
    sys.stdout.write(text)


def _dump_directions_csv(path, ev):
    hits = ev.hits
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "rho", "e", "finite", "active"])
        for idx, (rho, e, finite, act) in enumerate(zip(
                hits.rho.tolist(), ev.e.tolist(), hits.finite.tolist(),
                hits.act.T.tolist())):
            writer.writerow([idx, repr(rho), repr(e), int(finite),
                             "|".join(str(i) for i, a in enumerate(act) if a)])


def _common_payload(cfg: RunConfig) -> dict:
    return {
        "version": __version__,
        "fixture": cfg.fixture,
        "x": cfg.x,
        "eps": cfg.eps,
        "n": cfg.n,
        "seed": cfg.seed,
        "method": cfg.method,
    }


def cmd_eval(cfg: RunConfig) -> int:
    target, model, eps = _build_fixture(cfg)
    dirs = sample_sphere(model.dim, cfg.n, seed=cfg.seed, method=SphereMethod(cfg.method))
    ev = evaluate(target, cfg.x, model, dirs, eps=eps)
    payload = {"command": "eval", **_common_payload(cfg),
               "value": ev.value, "std_error": ev.std_error,
               "n_infinite": ev.n_infinite}
    if cfg.directions_csv:
        _dump_directions_csv(cfg.directions_csv, ev)
        payload["directions_csv"] = cfg.directions_csv
    _dump_json(payload, cfg.out)
    return 0


def cmd_grad(cfg: RunConfig) -> int:
    target, model, eps = _build_fixture(cfg)
    dirs = sample_sphere(model.dim, cfg.n, seed=cfg.seed, method=SphereMethod(cfg.method))
    if isinstance(target, ConvexSetOracle) and (not eps or eps <= 0):
        raise ConfigError("gradient of a set oracle needs --eps > 0")
    est = evaluate(target, cfg.x, model, dirs, eps=eps).gradient(cfg.tie_policy)
    payload = {"command": "grad", **_common_payload(cfg),
               "tie_policy": cfg.tie_policy,
               "gradient": [float(v) for v in est.gradient],
               "tie_fraction": est.tie_fraction}
    if cfg.check_fd:
        fd = fd_gradient(target, cfg.x, model, dirs, h0=5e-5, eps=eps)
        rel = float(np.linalg.norm(fd - est.gradient)
                    / max(np.linalg.norm(est.gradient), 1e-12))
        payload["fd_check"] = {"fd_gradient": [float(v) for v in fd], "rel_err": rel}
    _dump_json(payload, cfg.out)
    return 0


def cmd_solve_energy(cfg: RunConfig) -> int:
    try:
        params = EnergyParams(**cfg.energy)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad energy parameters: {exc}") from exc
    problem = make_energy_problem(params, n_dirs=cfg.n,
                                  method=SphereMethod(cfg.method), seed=cfg.seed,
                                  validate_n=cfg.validate_n,
                                  validate_seed=cfg.validate_seed)
    opts = SolveOptions(**cfg.solver)
    x, trace = solve(problem, opts)
    val = validate(x, problem)

    out_dir = Path(cfg.out or "energy_out")
    out_dir.mkdir(parents=True, exist_ok=True)
    meta = {"version": __version__, "n": cfg.n, "seed": cfg.seed,
            "method": cfg.method, "validate_n": cfg.validate_n,
            "validate_seed": problem.validate_dirs.seed,
            "params": dataclasses.asdict(params)}
    final = trace.records[-1]
    solution = {"command": "solve-energy", **meta, "status": trace.status,
                "iterations": len(trace.records) - 1,
                "x": [float(v) for v in x],
                "cost": float(problem.cost @ x),
                "phat": final.phat,
                "validation": {"value": val.value, "std_error": val.std_error}}
    (out_dir / "solution.json").write_text(json.dumps(solution, indent=2) + "\n",
                                           encoding="utf-8", newline="\n")
    with open(out_dir / "trace.jsonl", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for row in trace.to_jsonl_rows():
            fh.write(json.dumps(row) + "\n")
    with open(out_dir / "iterations.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "cost", "phat"])
        for rec in trace.records:
            writer.writerow([rec.k, repr(rec.cost), repr(rec.phat)])
    sys.stdout.write(json.dumps(solution, indent=2) + "\n")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    results = run_all(quick=cfg.quick)
    width = max(len(name) for name, _, _ in results)
    all_ok = True
    for name, ok, detail in results:
        all_ok &= ok
        sys.stdout.write(f"[{'PASS' if ok else 'FAIL'}] {name.ljust(width)}  {detail}\n")
    sys.stdout.write(f"{'all checks passed' if all_ok else 'FAILURES detected'}\n")
    return 0 if all_ok else 5


def _add_common(p):
    p.add_argument("--config", help="JSON configuration file; flags override it")
    p.add_argument("--fixture", help="halfspace | slab | hyperbolic | ball | constant")
    p.add_argument("--x", help="comma separated decision vector")
    p.add_argument("--eps", type=float, help="enlargement radius for set oracles")
    p.add_argument("--n", type=int, help="number of sphere directions")
    p.add_argument("--seed", type=int, help="direction seed")
    p.add_argument("--method", choices=["mc", "qmc"], help="sphere sampling method")
    p.add_argument("--tie-policy", dest="tie_policy", choices=["average", "min_index"])
    p.add_argument("--dim", type=int, help="ambient dimension for synthetic fixtures")
    p.add_argument("--out", help="output path")
    p.add_argument("--quick", action="store_true", default=None)
    p.add_argument("--directions-csv", dest="directions_csv",
                   help="write per-direction records to this CSV")


def _build_parser():
    parser = argparse.ArgumentParser(prog="sphrad",
                                     description="spherical-radial probability toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("eval", "grad"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "grad":
            p.add_argument("--check-fd", dest="check_fd", action="store_true",
                           default=None, help="emit a finite-difference cross check")
    p = sub.add_parser("solve-energy")
    _add_common(p)
    p.add_argument("--validate-n", dest="validate_n", type=int)
    p.add_argument("--validate-seed", dest="validate_seed", type=int)
    p = sub.add_parser("verify")
    _add_common(p)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    if "x" in overrides:
        overrides["x"] = _parse_x(overrides["x"])
    try:
        cfg = RunConfig.from_sources(args.config, overrides)
        if args.command == "eval":
            return cmd_eval(cfg)
        if args.command == "grad":
            return cmd_grad(cfg)
        if args.command == "solve-energy":
            return cmd_solve_energy(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except SolverError as exc:
        sys.stderr.write(f"solver error: {type(exc).__name__}: {exc}\n")
        return 4
    except NumericalError as exc:
        sys.stderr.write(f"numerical error: {type(exc).__name__}: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
