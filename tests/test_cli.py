import argparse
import dataclasses

import pytest

from cutdg import cli
from cutdg.cli import main, read_config_file
from cutdg.experiments import CONVERGENCE_HEADER, StudyReport
from cutdg.forms import PENALTY_WEIGHTS, StabilizationParams


def test_convergence_subcommand_writes_csv(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["--out", str(out), "convergence", "--levels", "3",
                 "--n0", "4"])
    assert code == 0
    text = (out / "convergence.csv").read_text()
    assert text.splitlines()[0] == CONVERGENCE_HEADER
    assert len(text.strip().splitlines()) == 4
    captured = capsys.readouterr().out
    assert "level" in captured and "wrote" in captured


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "study.cfg"
    cfg.write_text("levels = 3\nn0 = 2\ngamma-bulk = 25 # comment\n")
    out = tmp_path / "a"
    assert main(["--config-file", str(cfg), "--out", str(out),
                 "convergence"]) == 0
    rows_a = (out / "convergence.csv").read_text().strip().splitlines()
    assert len(rows_a) == 4  # levels taken from the config file
    out_b = tmp_path / "b"
    assert main(["--config-file", str(cfg), "--out", str(out_b),
                 "convergence", "--n0", "4"]) == 0
    rows_b = (out_b / "convergence.csv").read_text().strip().splitlines()
    # flag override wins: finer start mesh, different h column
    h_a = float(rows_a[1].split(",")[1])
    h_b = float(rows_b[1].split(",")[1])
    assert h_b == pytest.approx(h_a / 2.0, rel=1e-12)


def test_config_file_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("not_a_flag = 1\n")
    assert main(["--config-file", str(cfg), "convergence"]) == 2
    assert "unknown config file keys" in capsys.readouterr().err


def test_read_config_file_syntax(tmp_path):
    cfg = tmp_path / "kv.cfg"
    cfg.write_text("# full line comment\nalpha=1\nbeta = two\n\n")
    assert read_config_file(str(cfg)) == {"alpha": "1", "beta": "two"}
    bad = tmp_path / "broken.cfg"
    bad.write_text("no equals sign\n")
    with pytest.raises(ValueError):
        read_config_file(str(bad))


def test_condition_sweep_subcommand(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(["--out", str(out), "condition-sweep", "--level", "0",
                 "--positions", "3", "--config", "full"])
    assert code == 0
    lines = (out / "condition.csv").read_text().strip().splitlines()
    assert len(lines) == 4
    assert all(line.endswith(",full") for line in lines[1:])


def test_geometry_check_subcommand(tmp_path):
    out = tmp_path / "geo"
    assert main(["--out", str(out), "geometry-check", "--levels", "3",
                 "--n0", "4"]) == 0
    lines = (out / "geometry.csv").read_text().strip().splitlines()
    assert len(lines) == 4


def test_properties_subcommand(tmp_path, capsys):
    out = tmp_path / "props"
    assert main(["--out", str(out), "properties", "--level", "0",
                 "--positions", "2"]) == 0
    assert (out / "properties.csv").exists()
    assert "coercivity[full]" in capsys.readouterr().out


def test_invalid_arguments_exit_nonzero(capsys):
    with pytest.raises(SystemExit):
        main(["condition-sweep", "--config", "bogus"])
    assert main(["convergence", "--levels", "1"]) == 2
    capsys.readouterr()
    # a one-cell start mesh has no cut element: a typed CutDGError
    for argv in (["convergence", "--levels", "3"],
                 ["geometry-check", "--levels", "3"],
                 ["condition-sweep", "--level", "0", "--positions", "2"]):
        assert main(argv + ["--n0", "1"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: surface misses the background box")


@pytest.mark.parametrize("argv,message", [
    (["condition-sweep", "--level", "-1", "--positions", "2", "--config",
      "full"], "error: refinement level must be >= 0, got -1"),
    (["properties", "--level", "-1", "--positions", "2"],
     "error: refinement level must be >= 0, got -1"),
    (["condition-sweep", "--level", "0", "--positions", "2", "--config",
      "full", "--config", "full"], "error: sweep configuration repeated: full"),
    # refused before any mesh is built: the finest level is checked first
    (["geometry-check", "--levels", "40"],
     "error: mesh too large: level 39 of n0 = 8 has"),
    (["convergence", "--levels", "3", "--n0", "100000"],
     "error: mesh too large: level 2 of n0 = 100000 has"),
    (["condition-sweep", "--level", "30", "--positions", "2"],
     "error: mesh too large: level 30 of n0 = 8 has"),
    # an n0 below 1 is refused as such, at any level
    (["convergence", "--levels", "30", "--n0", "0"],
     "error: subdivision count must be >= 1, got 0"),
    # a position count past MAX_POSITIONS, before any delta or mesh
    (["condition-sweep", "--level", "0", "--positions", "1000000000000"],
     "error: sweep of 1000000000000 positions: at most 10000"),
    (["properties", "--level", "0", "--positions", "1000000000000"],
     "error: property sweep of 1000000000000 positions: at most 10000")])
def test_negative_level_and_repeated_config_exit_2(argv, message, tmp_path,
                                                   capsys):
    assert main(["--out", str(tmp_path / "out"), *argv]) == 2
    assert capsys.readouterr().err.startswith(message)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,study", [
    ("convergence", "run_convergence"),
    ("condition-sweep", "run_condition_sweep"),
    ("properties", "run_property_suite")])
def test_penalty_flags_default_to_the_stabilization_params(
        command, study, monkeypatch):
    seen = []

    def fake(**kwargs):
        seen.append(kwargs["params"])
        return StudyReport()

    monkeypatch.setattr(cli, study, fake)
    assert main([command]) == 0
    assert main([command, "--gamma-bulk", "1", "--gamma-surf", "2",
                 "--mu-bulk", "3", "--mu-surf", "4", "--tau-bulk", "5",
                 "--tau-surf", "6"]) == 0
    assert seen == [StabilizationParams(),
                    StabilizationParams(gamma_bulk=1.0, gamma_surf=2.0,
                                        mu_bulk=3.0, mu_surf=4.0,
                                        tau_bulk=5.0, tau_surf=6.0)]


@pytest.mark.parametrize("command,study", [
    ("convergence", "run_convergence"),
    ("condition-sweep", "run_condition_sweep"),
    ("geometry-check", "run_geometry_check"),
    ("properties", "run_property_suite")])
def test_subcommand_without_flags_uses_the_study_defaults(
        command, study, monkeypatch):
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return StudyReport()

    monkeypatch.setattr(cli, study, fake)
    assert main([command]) == 0
    # nothing is passed but the default penalty weights, so every other
    # keyword default of the study applies
    expected = {} if command == "geometry-check" \
        else {"params": StabilizationParams()}
    assert calls == [expected]


def _never_called(**kwargs):
    raise AssertionError("the study must not be called")


@pytest.mark.parametrize("spelling,expected", [
    ("yes", True), ("On", True), ("1", True),
    ("off", False), ("NO", False), ("0", False)])
def test_config_file_boolean_reaches_the_study(
        tmp_path, monkeypatch, spelling, expected):
    calls = []

    def fake(**kwargs):
        calls.append(kwargs)
        return StudyReport()

    monkeypatch.setattr(cli, "run_convergence", fake)
    cfg = tmp_path / "study.cfg"
    cfg.write_text(f"ablate-ghost = {spelling}\n")
    assert main(["--config-file", str(cfg), "convergence"]) == 0
    assert calls == [{"ablate_ghost": expected,
                      "params": StabilizationParams()}]


def test_config_file_bad_boolean_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_convergence", _never_called)
    cfg = tmp_path / "study.cfg"
    cfg.write_text("ablate_ghost = maybe\n")
    assert main(["--config-file", str(cfg), "convergence"]) == 2
    assert capsys.readouterr().err == \
        "error: expected a boolean, got 'maybe'\n"


@pytest.mark.parametrize("command,study", [
    ("convergence", "run_convergence"),
    ("condition-sweep", "run_condition_sweep"),
    ("properties", "run_property_suite")])
def test_non_finite_weight_exits_2_before_the_study(
        command, study, monkeypatch, capsys):
    monkeypatch.setattr(cli, study, _never_called)
    assert main([command, "--mu-bulk", "nan"]) == 2
    assert main([command, "--tau-surf", "inf"]) == 2
    err = capsys.readouterr().err
    assert "mu_bulk must be finite" in err and "tau_surf must be finite" in err


def test_unusable_out_exits_2_before_the_study(tmp_path, monkeypatch,
                                               capsys):
    """An --out below a file, or a file itself, fails with exit 2 before
    the study runs, and creates nothing."""
    monkeypatch.setattr(cli, "run_geometry_check", _never_called)
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker / "sub", blocker):
        assert main(["--out", str(out), "geometry-check", "--levels",
                     "3"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]


def test_properties_too_large_to_densify_exits_2(tmp_path, capsys):
    """At level 4 the first property pencil has 40,374 dofs: a typed
    error and exit 2 instead of a MemoryError, and no output directory."""
    out = tmp_path / "out"
    assert main(["--out", str(out), "properties", "--level", "4",
                 "--positions", "2"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the dense pencil of 40374 dofs")
    assert not out.exists()


def test_failed_write_exits_2(tmp_path, monkeypatch, capsys):
    """The CSV write after the study is inside the exit-2 path."""

    class Unwritable(StudyReport):
        def write(self, outdir):
            raise OSError("disk full")

    monkeypatch.setattr(cli, "run_geometry_check",
                        lambda **kwargs: Unwritable())
    assert main(["--out", str(tmp_path / "out"), "geometry-check"]) == 2
    assert capsys.readouterr().err == "error: disk full\n"


_WEIGHT_FLAGS = ["--gamma-bulk", "--gamma-surf", "--mu-bulk", "--mu-surf",
                 "--tau-bulk", "--tau-surf"]


def test_weight_flags_are_the_penalty_weights():
    """The flags that set a field of ``StabilizationParams`` are, on every
    subcommand that takes the weights, those of ``PENALTY_WEIGHTS``."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    params = {f.name for f in dataclasses.fields(StabilizationParams)}
    weights = ["--" + name.replace("_", "-") for name in PENALTY_WEIGHTS]
    assert weights == _WEIGHT_FLAGS
    for command in ("convergence", "condition-sweep", "properties"):
        options = [o for a in subparsers.choices[command]._actions
                   for o in a.option_strings]
        assert [o for o in options
                if o[2:].replace("-", "_") in params] == weights


def test_option_strings_of_every_subcommand():
    parser = cli.build_parser()
    assert [o for a in parser._actions for o in a.option_strings] == \
        ["-h", "--help", "--config-file", "--out"]
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    options = {command: [o for a in sub._actions for o in a.option_strings]
               for command, sub in subparsers.choices.items()}
    assert options == {
        "convergence": ["-h", "--help", "--levels", "--n0", "--ablate-ghost",
                        *_WEIGHT_FLAGS],
        "condition-sweep": ["-h", "--help", "--level", "--positions", "--n0",
                            "--config", *_WEIGHT_FLAGS],
        "geometry-check": ["-h", "--help", "--levels", "--n0"],
        "properties": ["-h", "--help", "--level", "--positions", "--n0",
                       *_WEIGHT_FLAGS]}
