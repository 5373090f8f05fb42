"""Command-line front end.

Subcommands: ``eval`` (probability estimate), ``grad`` (gradient estimate),
``solve-energy`` (the dispatch case study), ``verify`` (self checks).
Configuration comes from an optional JSON file plus flag overrides; flags
win.  Each subcommand takes only the settings it reads (``COMMAND_FIELDS``),
as flags and as config-file keys.  Exit codes: 0 success, 2 configuration
error, 3 numerical error, 4 solver error, 5 verification failure.

All persisted artifacts are deterministic byte-for-byte for a fixed
configuration: they carry seeds and the tool version, never timestamps.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import functools
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
from .oracles import (build_energy_covariance, make_ball, make_constant, make_energy_system,
                      make_halfspace, make_hyperbolic_set, make_hyperbolic_system, make_slab)
from .solver import solve, validate
from .verify import run_all

#: The RunConfig fields each subcommand reads.  The subcommand's flags and
#: the keys its config file may hold both come from this list; ``energy``
#: is a config-file key only.
COMMAND_FIELDS = {
    "eval": ("fixture", "x", "eps", "n", "seed", "method", "dim", "out",
             "directions_csv"),
    "grad": ("fixture", "x", "eps", "n", "seed", "method", "tie_policy", "dim",
             "out", "check_fd"),
    "solve-energy": ("n", "seed", "method", "out", "validate_n", "validate_seed",
                     "energy"),
    "verify": ("quick",),
}

_FLAGS = {
    "fixture": dict(help="halfspace | slab | hyperbolic | ball | constant | energy"),
    "x": dict(help="comma separated decision vector"),
    "eps": dict(type=float, help="enlargement radius (hyperbolic and ball fixtures)"),
    "n": dict(type=int, help="number of sphere directions"),
    "seed": dict(type=int, help="direction seed"),
    "method": dict(choices=["mc", "qmc"], help="sphere sampling method"),
    "tie_policy": dict(choices=["average", "min_index"],
                       help="subdifferential element reported at ties"),
    "dim": dict(type=int, help="ambient dimension for synthetic fixtures"),
    "out": dict(help="output path (a directory for solve-energy)"),
    "directions_csv": dict(help="write per-direction records to this CSV"),
    "check_fd": dict(action="store_true", default=None,
                     help="emit a finite-difference cross check"),
    "validate_n": dict(type=int, help="number of validation directions"),
    "validate_seed": dict(type=int, help="validation direction seed"),
    "quick": dict(action="store_true", default=None, help="run the short checks"),
}


def _number(value, kind=(int, float)):
    """True for an instance of ``kind`` that is not a bool (JSON true/false)."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class RunConfig:
    """Validated run configuration."""

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
    dim: int = None
    directions_csv: str = None
    validate_n: int = 200000
    validate_seed: int = None
    energy: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in ("mc", "qmc"):
            raise ConfigError(f"method must be 'mc' or 'qmc', got {self.method!r}")
        if self.tie_policy not in ("average", "min_index"):
            raise ConfigError(f"unknown tie policy {self.tie_policy!r}")
        for name, low in (("n", 1), ("seed", 0), ("dim", 1), ("validate_n", 1),
                          ("validate_seed", 0)):
            value = getattr(self, name)
            if (not (_number(value, int) and value >= low)
                    and not (name in ("dim", "validate_seed") and value is None)):
                raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
        if self.eps is not None and not (_number(self.eps) and 0 <= self.eps < np.inf):
            raise ConfigError(f"eps must be a finite nonnegative number, got {self.eps!r}")
        if isinstance(self.x, str) or not all(_number(v) and np.isfinite(v) for v in self.x):
            raise ConfigError(f"x must be a list of finite numbers, got {self.x!r}")
        self.x = [float(v) for v in self.x]
        bad = set(self.energy) - {f.name for f in dataclasses.fields(EnergyParams)}
        if bad:
            raise ConfigError(f"unknown energy parameter keys: {sorted(bad)}")

    @classmethod
    def from_sources(cls, command, config_path=None, overrides=None) -> "RunConfig":
        """Merge a config file holding only keys ``command`` reads and flag overrides."""
        data = {}
        if config_path is not None:
            try:
                raw = json.loads(Path(config_path).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError("config file must hold a JSON object")
            unread = set(raw) - set(COMMAND_FIELDS[command])
            if unread:
                raise ConfigError(f"config keys not read by {command}: {sorted(unread)}")
            data.update(raw)
        data.update(overrides or {})
        try:
            return cls(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


def _parse_x(text):
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --x {text!r}: {exc}") from exc


def _build_fixture(cfg: RunConfig):
    """Return (target, model, dirs); settings the fixture ignores are rejected."""
    m = 2 if cfg.dim is None else cfg.dim
    if cfg.fixture in ("halfspace", "slab", "constant", "energy") and cfg.eps is not None:
        raise ConfigError(f"eps applies to hyperbolic and ball, not to {cfg.fixture}")
    if cfg.fixture == "energy" and cfg.dim is not None:
        raise ConfigError("dim does not apply to energy, whose dimension is fixed")
    if cfg.fixture == "hyperbolic" and m != 2:
        raise ConfigError(f"the hyperbolic fixture is two-dimensional, got dim {m}")
    e1 = np.eye(m)[0]
    model = build_model(np.zeros(m), np.eye(m))
    if cfg.fixture == "halfspace":
        target = make_halfspace(e1)
    elif cfg.fixture == "slab":
        target = make_slab(e1, lambda x: x[0], lambda x: np.array([1.0]))
    elif cfg.fixture == "hyperbolic":
        target = make_hyperbolic_system() if cfg.eps is None else make_hyperbolic_set()
    elif cfg.fixture == "ball":
        target = make_ball(np.zeros(m), z_dim=m)
    elif cfg.fixture == "constant":
        target = make_constant(z_dim=m)
    elif cfg.fixture == "energy":       # the dispatch case study's system and model
        params = EnergyParams()
        target, model = make_energy_system(params), build_energy_covariance(params)
    else:
        raise ConfigError(f"unknown fixture {cfg.fixture!r} "
                          "(choose halfspace, slab, hyperbolic, ball, constant, energy)")
    if len(cfg.x) != target.x_dim:
        raise ConfigError(f"x has {len(cfg.x)} entries, {cfg.fixture} takes {target.x_dim}")
    return target, model, sample_sphere(model.dim, cfg.n, seed=cfg.seed,
                                        method=SphereMethod(cfg.method))


@contextlib.contextmanager
def _output(path):
    """Open ``path`` for writing; an ``OSError`` becomes a configuration error."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _dump_json(payload: dict, out):
    text = json.dumps(payload, indent=2) + "\n"
    if out:
        with _output(out) as fh:
            fh.write(text)
    sys.stdout.write(text)


def _dump_directions_csv(path, ev):
    hits = ev.hits
    with _output(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["index", "rho", "e", "finite", "active"])
        for idx, (rho, e, finite, act) in enumerate(zip(
                hits.rho.tolist(), ev.e.tolist(), np.isfinite(hits.rho).tolist(),
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
    target, model, dirs = _build_fixture(cfg)
    ev = evaluate(target, cfg.x, model, dirs, eps=cfg.eps)
    payload = {"command": "eval", **_common_payload(cfg),
               "value": ev.value, "std_error": ev.std_error,
               "n_infinite": ev.n_infinite}
    if cfg.directions_csv:
        _dump_directions_csv(cfg.directions_csv, ev)
        payload["directions_csv"] = cfg.directions_csv
    _dump_json(payload, cfg.out)
    return 0


def cmd_grad(cfg: RunConfig) -> int:
    target, model, dirs = _build_fixture(cfg)
    est = evaluate(target, cfg.x, model, dirs, eps=cfg.eps).gradient(cfg.tie_policy)
    payload = {"command": "grad", **_common_payload(cfg),
               "tie_policy": cfg.tie_policy,
               "gradient": [float(v) for v in est.gradient],
               "max_ratio": est.max_ratio,
               "tie_fraction": est.tie_fraction}
    if cfg.check_fd:
        fd = fd_gradient(target, cfg.x, model, dirs, h0=5e-5, eps=cfg.eps)
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
    try:
        problem = make_energy_problem(params, n_dirs=cfg.n,
                                      method=SphereMethod(cfg.method), seed=cfg.seed,
                                      validate_n=cfg.validate_n,
                                      validate_seed=cfg.validate_seed)
    except ValueError as exc:       # e.g. both direction sets drawn alike from one seed
        raise ConfigError(f"{exc} (seed {cfg.seed}, validate_seed {cfg.validate_seed}, "
                          f"method {cfg.method})") from exc
    x, trace = solve(problem)
    val = validate(x, problem)

    out_dir = Path(cfg.out or "energy_out")
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create {out_dir}: {exc}") from exc
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
    with _output(out_dir / "trace.jsonl") as fh:
        fh.write(json.dumps({"meta": meta}) + "\n")
        for row in trace.to_jsonl_rows():
            fh.write(json.dumps(row) + "\n")
    with _output(out_dir / "iterations.csv") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iteration", "cost", "phat"])
        for rec in trace.records:
            writer.writerow([rec.k, repr(rec.cost), repr(rec.phat)])
    _dump_json(solution, out_dir / "solution.json")
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


_COMMANDS = {"eval": cmd_eval, "grad": cmd_grad, "solve-energy": cmd_solve_energy,
             "verify": cmd_verify}


@functools.cache                 # built once: main is also called in-process
def _build_parser():
    parser = argparse.ArgumentParser(prog="sphrad",
                                     description="spherical-radial probability toolbox")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fields in COMMAND_FIELDS.items():
        p = sub.add_parser(command)
        if command != "verify":          # verify's one switch needs no file
            p.add_argument("--config", help="JSON configuration file; flags override it")
        for name in fields:
            if name in _FLAGS:
                p.add_argument("--" + name.replace("_", "-"), dest=name, **_FLAGS[name])
    return parser


@functools.cache                 # once per process: main is also called in-process
def _one_blas_thread():
    """Pin numpy's bundled OpenBLAS to one thread where it exports the setter.

    A BLAS product's last bits, and so the radii and every artifact, may
    depend on the thread count; one thread keeps them the same on any core
    count.  A numpy built against another BLAS is left as it is.
    """
    root = Path(np.__file__).parent
    for path in sorted([*root.parent.glob("numpy.libs/libscipy_openblas*"),
                        *root.glob(".dylibs/libscipy_openblas*")]):
        setter = getattr(ctypes.CDLL(str(path)), "scipy_openblas_set_num_threads64_", None)
        if setter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def main(argv=None) -> int:
    _one_blas_thread()
    args = _build_parser().parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v is not None}
    try:
        if "x" in overrides:
            overrides["x"] = _parse_x(overrides["x"])
        cfg = RunConfig.from_sources(args.command, getattr(args, "config", None),
                                     overrides)
        return _COMMANDS[args.command](cfg)
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
