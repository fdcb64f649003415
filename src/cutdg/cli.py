"""Command line driver for the experiment studies.

Subcommands: ``convergence``, ``condition-sweep``, ``geometry-check`` and
``properties``. Flags can also be supplied through a key=value text file
(``--config-file``); explicit command line flags win over file entries.
CSV output goes to the directory given by ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys

from .exceptions import CutDGError
from .experiments import (SWEEP_CONFIGS, StudyReport, run_condition_sweep,
                          run_convergence, run_geometry_check,
                          run_property_suite)
from .forms import StabilizationParams

_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def read_config_file(path: str) -> dict:
    """key=value lines; blank lines and '#' comments are ignored."""
    entries = {}
    with open(path) as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, "
                                 f"got {raw.strip()!r}")
            key, value = line.split("=", 1)
            entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _coerce(value: str, like):
    if isinstance(like, bool):
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    return value


def _resolve(args: argparse.Namespace, defaults: dict) -> dict:
    """Merge priority: command line flag > config file entry > default."""
    entries = {}
    if args.config_file:
        entries = read_config_file(args.config_file)
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        if cli_value is not None:
            resolved[key] = cli_value
        elif key in entries:
            resolved[key] = _coerce(entries[key], default)
        else:
            resolved[key] = default
    unknown = set(entries) - set(defaults)
    if unknown:
        raise ValueError(f"unknown config file keys: {sorted(unknown)}")
    return resolved


# the six penalty weights of StabilizationParams and their defaults (the
# coupling constants have no flag)
_PARAM_DEFAULTS = {f.name: f.default
                   for f in dataclasses.fields(StabilizationParams)
                   if f.name not in ("c_bulk", "c_surf")}


def _defaults(study, *names) -> dict:
    """The defaults of the keyword arguments ``names`` of ``study``."""
    parameters = inspect.signature(study).parameters
    return {name: parameters[name].default for name in names}


# each subcommand's flags default to the keyword defaults of its study
_STUDY_DEFAULTS = {
    "convergence": {**_defaults(run_convergence, "levels", "n0",
                                "ablate_ghost"), **_PARAM_DEFAULTS},
    "condition-sweep": {**_defaults(run_condition_sweep, "level", "positions",
                                    "n0"), **_PARAM_DEFAULTS},
    "geometry-check": _defaults(run_geometry_check, "levels", "n0"),
    "properties": {**_defaults(run_property_suite, "level", "positions",
                               "n0"), **_PARAM_DEFAULTS},
}
_SWEEP_CONFIGS_DEFAULT = _defaults(run_condition_sweep, "configs")["configs"]


def _params_from(resolved: dict) -> StabilizationParams:
    return StabilizationParams(**{k: resolved[k] for k in _PARAM_DEFAULTS})


def _add_param_flags(parser):
    for name in _PARAM_DEFAULTS:
        parser.add_argument("--" + name.replace("_", "-"), type=float,
                            dest=name)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutdg",
        description="Stabilized cut DG studies for the coupled bulk-surface "
                    "diffusion-reaction problem on the unit circle.")
    parser.add_argument("--config-file", help="key=value defaults file")
    parser.add_argument("--out", help="directory for CSV output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convergence", help="refinement/EOC study")
    p.add_argument("--levels", type=int)
    p.add_argument("--n0", type=int)
    p.add_argument("--ablate-ghost", action="store_true", default=None,
                   dest="ablate_ghost")
    _add_param_flags(p)

    p = sub.add_parser("condition-sweep", help="condition number vs. "
                                               "surface position")
    p.add_argument("--level", type=int)
    p.add_argument("--positions", type=int)
    p.add_argument("--n0", type=int)
    p.add_argument("--config", action="append", choices=SWEEP_CONFIGS,
                   help="stabilization configuration (repeatable; "
                        "default: all four)")
    _add_param_flags(p)

    p = sub.add_parser("geometry-check", help="geometry approximation sup "
                                              "distances per level")
    p.add_argument("--levels", type=int)
    p.add_argument("--n0", type=int)

    p = sub.add_parser("properties", help="stability constants across the "
                                          "position sweep")
    p.add_argument("--level", type=int)
    p.add_argument("--positions", type=int)
    p.add_argument("--n0", type=int)
    _add_param_flags(p)
    return parser


def _print_convergence(report: StudyReport):
    print("level  h            " + "  ".join(
        f"{name:>12s} {'eoc':>6s}" for name in
        ("h1_bulk", "l2_bulk", "h1_surf", "l2_surf")))
    for row in report.convergence_rows:
        cells = [f"{row['level']:>5d}", f"{row['h']:.6e}"]
        for err, ec in zip(row["errors"], row["eocs"]):
            cells.append(f"{err:12.4e} {'---' if ec is None else f'{ec:+.2f}':>6s}")
        print("  ".join(cells))
    for level, message in report.solver_failures:
        print(f"level {level}: solver failure: {message}")


def _print_condition(report: StudyReport):
    by_config = {}
    for row in report.condition_rows:
        by_config.setdefault(row["config"], []).append(row["kappa"])
    for config, kappas in by_config.items():
        lo, hi = min(kappas), max(kappas)
        print(f"{config:>12s}: kappa in [{lo:.4e}, {hi:.4e}], "
              f"max/min = {hi / lo:.3e}")


def _print_geometry(report: StudyReport):
    for row, length in zip(report.geometry_rows, report.geometry_lengths):
        print(f"level {row['level']}: sup|rho| = {row['sup_dist']:.4e}, "
              f"sup|n - n_h| = {row['sup_normal_dev']:.4e}, "
              f"length = {length:.8f}")


def _print_properties(report: StudyReport):
    for (prop, config), info in sorted(report.property_summary.items()):
        verdict = "pass" if info["passed"] else "FAIL"
        print(f"{prop}[{config}]: across-sweep = {info['across']:.4e}, "
              f"vs stabilized = {info['contrast']:.4e} ({verdict})")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        resolved = _resolve(args, _STUDY_DEFAULTS[args.command])
        if args.command == "convergence":
            report = run_convergence(levels=resolved["levels"],
                                     n0=resolved["n0"],
                                     params=_params_from(resolved),
                                     ablate_ghost=resolved["ablate_ghost"])
            _print_convergence(report)
        elif args.command == "condition-sweep":
            configs = tuple(args.config) if args.config \
                else _SWEEP_CONFIGS_DEFAULT
            report = run_condition_sweep(level=resolved["level"],
                                         positions=resolved["positions"],
                                         n0=resolved["n0"],
                                         params=_params_from(resolved),
                                         configs=configs)
            _print_condition(report)
        elif args.command == "geometry-check":
            report = run_geometry_check(levels=resolved["levels"],
                                        n0=resolved["n0"])
            _print_geometry(report)
        else:  # properties; argparse enforces the choices
            report = run_property_suite(level=resolved["level"],
                                        positions=resolved["positions"],
                                        n0=resolved["n0"],
                                        params=_params_from(resolved))
            _print_properties(report)
    except (ValueError, OSError, CutDGError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        for path in report.write(args.out):
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
