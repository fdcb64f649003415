"""Command line driver for the experiment studies.

Subcommands: ``convergence``, ``condition-sweep``, ``geometry-check`` and
``properties``. Flags can also be supplied through a key=value text file
(``--config-file``); explicit command line flags win over file entries.
A flag set nowhere is not passed, so the study's keyword default (and
for the penalty weights the ``StabilizationParams`` default) applies.
CSV output goes to the directory given by ``--out``; a path that cannot
become a directory exits 2 before the study runs.
"""

from __future__ import annotations

import argparse
import os
import sys

from .exceptions import CutDGError
from .experiments import (SWEEP_CONFIGS, StudyReport, run_condition_sweep,
                          run_convergence, run_geometry_check,
                          run_property_suite)
from .forms import StabilizationParams

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


def _boolean(value: str) -> bool:
    """A config-file switch: 1/true/yes/on or 0/false/no/off."""
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


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
    for row in report.geometry_rows:
        print(f"level {row['level']}: sup|rho| = {row['sup_dist']:.4e}, "
              f"sup|n - n_h| = {row['sup_normal_dev']:.4e}, "
              f"length = {row['length']:.8f}")


def _print_properties(report: StudyReport):
    for (prop, config), info in sorted(report.property_summary.items()):
        verdict = "pass" if info["passed"] else "FAIL"
        print(f"{prop}[{config}]: across-sweep = {info['across']:.4e}, "
              f"vs stabilized = {info['contrast']:.4e} ({verdict})")


# the penalty weights of StabilizationParams (the coupling constants have
# no flag); they reach the study as its ``params``
_WEIGHTS = {name: float for name in ("gamma_bulk", "gamma_surf", "mu_bulk",
                                     "mu_surf", "tau_bulk", "tau_surf")}

# subcommand: (study, printer, help, flags). Each flag is the study keyword
# it sets, spelled --with-dashes, and its type, which also converts its
# config-file entry; a ``_boolean`` flag is a switch. A tuple of choices is
# a repeatable flag named by the singular of its keyword (--config), which
# the config file cannot set.
_COMMANDS = {
    "convergence": ("run_convergence", _print_convergence,
                    "refinement/EOC study",
                    {"levels": int, "n0": int, "ablate_ghost": _boolean,
                     **_WEIGHTS}),
    "condition-sweep": ("run_condition_sweep", _print_condition,
                        "condition number vs. surface position",
                        {"level": int, "positions": int, "n0": int,
                         "configs": SWEEP_CONFIGS, **_WEIGHTS}),
    "geometry-check": ("run_geometry_check", _print_geometry,
                       "geometry approximation sup distances per level",
                       {"levels": int, "n0": int}),
    "properties": ("run_property_suite", _print_properties,
                   "stability constants across the position sweep",
                   {"level": int, "positions": int, "n0": int, **_WEIGHTS}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cutdg",
        description="Stabilized cut DG studies for the coupled bulk-surface "
                    "diffusion-reaction problem on the unit circle.")
    parser.add_argument("--config-file", help="key=value defaults file")
    parser.add_argument("--out", help="directory for CSV output")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, _, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name, kind in flags.items():
            option = "--" + name.replace("_", "-")
            if kind is _boolean:
                p.add_argument(option, action="store_true", default=None)
            elif isinstance(kind, tuple):
                p.add_argument(option[:-1], action="append", choices=kind,
                               dest=name,
                               help="stabilization configuration "
                                    "(repeatable; default: all four)")
            else:
                p.add_argument(option, type=kind)
    return parser


def _study_kwargs(args: argparse.Namespace, flags: dict) -> dict:
    """The flags set on the command line or, failing that, in the config
    file, converted with their types; the weights folded into params."""
    entries = read_config_file(args.config_file) if args.config_file else {}
    kwargs = {}
    for name, kind in flags.items():
        value = getattr(args, name)
        entry = entries.pop(name, None) if callable(kind) else None
        if value is None and entry is not None:
            value = kind(entry)
        if value is not None:
            kwargs[name] = value
    if entries:
        raise ValueError(f"unknown config file keys: {sorted(entries)}")
    if "gamma_bulk" in flags:  # all but geometry-check take the weights
        kwargs["params"] = StabilizationParams(
            **{name: kwargs.pop(name) for name in _WEIGHTS if name in kwargs})
    return kwargs


def _check_out(path: str):
    """Fail before the study if ``path`` cannot become the output
    directory: its nearest existing ancestor must be a directory. Nothing
    is created, so a study that fails leaves no directory behind."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise NotADirectoryError(f"--out {path!r}: {head!r} is not a "
                                 "directory")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    study, printer, _, flags = _COMMANDS[args.command]
    try:
        kwargs = _study_kwargs(args, flags)
        if args.out:
            _check_out(args.out)
        # looked up at call time, so a replaced study is the one called
        report = globals()[study](**kwargs)
        printer(report)
        for path in report.write(args.out) if args.out else ():
            print(f"wrote {path}")
    except (ValueError, OSError, CutDGError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
