import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import kinefold
from kinefold.cli import main, make_parser
from kinefold.kcm import Field, StepConfig


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_fold_single_iteration(tmp_path):
    out = tmp_path / "run"
    rc = main(["fold", "--seq", "AAAA", "--vacuum", "--max-iters", "1",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "log.csv")
    assert rows[1] == ["iteration", "g_elec", "g_vdw", "g_cav", "g_total", "tau_max"]
    assert len(rows) == 3  # version line, header, one iteration
    assert (out / "final.pdb").exists()
    assert (out / "manifest.json").exists()


def test_fold_emits_manifest_with_parameters(tmp_path):
    out = tmp_path / "run"
    main(["fold", "--seq", "GA", "--max-iters", "1", "--seed", "42",
          "--out", str(out)])
    data = json.loads((out / "manifest.json").read_text())
    assert data["seed"] == 42
    assert data["command"] == "fold"
    assert data["arguments"]["kappa"] == 0.5
    assert data["n_dof"] == 5
    # the one run's outcome, as log.csv shows it: one iteration, then max_iters
    assert data["runs"] == [{"run": 0, "iterations": 1, "converged": False,
                             "reason": "max_iters"}]
    assert len(read_csv(out / "log.csv")) == 2 + 1


def test_water_fold_manifest_records_environment(tmp_path):
    out = tmp_path / "run"
    assert main(["fold", "--seq", "GA", "--water", "--samples", "64", "--max-iters",
                 "1", "--out", str(out)]) == 0
    env = json.loads((out / "manifest.json").read_text())["environment"]
    assert {"python", "numpy", "platform", "cpu_count"} <= env.keys()
    assert env["cpu_count"] >= 1
    library = env["native"]
    assert len(library["source_sha256"]) == 64 and library["compiler"]
    vacuum = tmp_path / "vacuum"
    main(["fold", "--seq", "GA", "--max-iters", "1", "--out", str(vacuum)])
    assert json.loads((vacuum / "manifest.json").read_text())["environment"][
        "native"] == library


def test_fold_deterministic_logs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["fold", "--seq", "AAA", "--init", "random", "--seed", "11",
            "--max-iters", "5", "--out"]
    assert main(args + [str(a)]) == 0
    assert main(args + [str(b)]) == 0
    assert (a / "log.csv").read_bytes() == (b / "log.csv").read_bytes()
    assert (a / "dihedrals.csv").read_bytes() == (b / "dihedrals.csv").read_bytes()


def test_fold_seed_changes_random_init(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["fold", "--seq", "AAA", "--init", "random", "--seed", "1",
          "--max-iters", "1", "--out", str(a)])
    main(["fold", "--seq", "AAA", "--init", "random", "--seed", "2",
          "--max-iters", "1", "--out", str(b)])
    assert (a / "dihedrals.csv").read_bytes() != (b / "dihedrals.csv").read_bytes()


def test_fold_batch_summary(tmp_path):
    out = tmp_path / "batch"
    rc = main(["fold", "--seq", "AAA", "--init", "random", "--batch", "3",
               "--max-iters", "2", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 4
    assert (out / "run_0000" / "log.csv").exists()


def test_one_residue_batch_leaves_mean_dihedrals_empty(tmp_path):
    """A one-residue chain has no phi after its first residue and no psi
    before its last, so its summary rows leave both means empty instead of
    averaging an empty slice (a RuntimeWarning, an error under pytest)."""
    out = tmp_path / "one"
    rc = main(["fold", "--seq", "A", "--max-iters", "2", "--batch", "2",
               "--init", "random", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "summary.csv")
    assert len(rows) == 3
    assert all(row[-2:] == ["", ""] for row in rows[1:])


def test_fold_batch_survives_failed_run(tmp_path, monkeypatch, capsys):
    import kinefold.cli as cli
    from kinefold.errors import StericClashError

    real_fold, calls = cli.fold, []

    def flaky_fold(*args, **kwargs):
        calls.append(len(calls))
        if len(calls) == 2:
            raise StericClashError("aborted at iteration 0: atoms 3 and 7 overlap")
        return real_fold(*args, **kwargs)

    monkeypatch.setattr(cli, "fold", flaky_fold)
    out = tmp_path / "batch"
    rc = main(["fold", "--seq", "AAA", "--init", "random", "--batch", "3",
               "--max-iters", "2", "--out", str(out)])
    assert rc == 2
    assert len(calls) == 3
    rows = read_csv(out / "summary.csv")
    assert [r[0] for r in rows[1:]] == ["0", "1", "2"]
    assert rows[2][2] == "False"
    assert rows[2][3] == "error: aborted at iteration 0: atoms 3 and 7 overlap"
    assert rows[1][1] == rows[3][1] == "2"  # the other runs completed
    assert (out / "run_0000" / "log.csv").exists()
    assert not (out / "run_0001").exists()
    assert (out / "run_0002" / "log.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_runs"] == [1]
    assert manifest["runs"][1] == {
        "run": 1, "error": "aborted at iteration 0: atoms 3 and 7 overlap"}
    for run, row in ((0, rows[1]), (2, rows[3])):
        assert manifest["runs"][run] == {"run": run, "iterations": int(row[1]),
                                         "converged": row[2] == "True", "reason": row[3]}
    assert "run 1: aborted at iteration 0" in capsys.readouterr().err


def test_fold_freeze_flag(tmp_path):
    out = tmp_path / "fr"
    main(["fold", "--seq", "AAAA", "--init", "uniform:-30,-30", "--freeze",
          "0,1", "--max-iters", "3", "--out", str(out)])
    rows = read_csv(out / "dihedrals.csv")
    start = [float(x) for x in rows[2][1:3]]
    end = [float(x) for x in rows[-1][1:3]]
    assert start == end  # frozen joints never move


def test_sasa_matches_module(tmp_path):
    """``kinefold sasa`` takes the area-only pass; every atom's f_exp and
    a_exp is written exactly as the full-state pass gives it."""
    out = tmp_path / "s"
    rc = main(["sasa", "--seq", "GSA", "--samples", "1024", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "sasa.csv")[1:]

    from kinefold.chain import build_chain, forward_kinematics
    from kinefold.pdbio import load_params, read_sequence
    from kinefold.solvation import SolvationConfig, generate_samples, sasa_pass
    from kinefold.spatial import build_grid, build_neighbor_table

    from .oracles import cutoff_lists

    ch = build_chain(read_sequence("GSA"))
    params = load_params().resolve(ch)
    pos = forward_kinematics(ch, ch.conf_zp())
    lists = cutoff_lists(build_neighbor_table(build_grid(pos, 8.0)), pos, 8.0)
    res, states = sasa_pass(pos, params, lists, generate_samples(1024),
                            SolvationConfig(samples=1024))
    assert not states.area_only  # the full states
    assert [r[3] for r in rows] == [f"{f:.10g}" for f in res.f_exp]
    assert [r[4] for r in rows] == [f"{a:.10g}" for a in res.a_exp]


def test_sasa_large_probe_matches_all_pairs(tmp_path):
    """With a 3 A probe, 2 (R_max + probe) exceeds the 9 A elec cutoff; the
    table cutoff grows to the reach and the areas equal the all-pairs
    pass."""
    out = tmp_path / "s"
    rc = main(["sasa", "--seq", "GSAG", "--samples", "256", "--probe-radius", "3.0",
               "--out", str(out)])
    assert rc == 0
    areas = [r[4] for r in read_csv(out / "sasa.csv")[1:]]

    from kinefold.chain import build_chain, forward_kinematics
    from kinefold.pdbio import load_params, read_sequence
    from kinefold.solvation import SolvationConfig, generate_samples, sasa_pass

    from .conftest import neighbor_table

    ch = build_chain(read_sequence("GSAG"))
    params = load_params().resolve(ch)
    pos = forward_kinematics(ch, ch.conf_zp())
    n = ch.n_atoms
    rows = neighbor_table([[j for j in range(n) if j != i] for i in range(n)])
    res, _ = sasa_pass(pos, params, rows, generate_samples(256),
                       SolvationConfig(probe_radius=3.0, samples=256))
    assert areas == [f"{a:.10g}" for a in res.a_exp]


def test_scan_rama_outputs_grid(tmp_path, capsys):
    out = tmp_path / "r"
    rc = main(["scan-rama", "--seq", "AA", "--residue", "1", "--grid", "2",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "rama.csv")
    assert len(rows) == 5  # header + 2x2
    # only fold draws random numbers, so only fold takes and records a seed
    manifest = json.loads((out / "manifest.json").read_text())
    assert "seed" not in manifest and "seed" not in manifest["arguments"]
    for command in (["scan-rama"], ["scan-hinge", "--hinges", "2:phi"], ["sasa"]):
        with pytest.raises(SystemExit):
            main(command + ["--seq", "AA", "--seed", "1", "--out", str(tmp_path / "x")])
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_water_scan_rama_equals_full_state_passes(tmp_path, monkeypatch):
    """Scans take the area-only pass; ``rama.csv`` is byte for byte the one
    full-state evaluations (exposure counts 0/1/2) give."""
    argv = ["scan-rama", "--seq", "AAA", "--water", "--samples", "64", "--grid", "2"]
    assert main(argv + ["--out", str(tmp_path / "area")]) == 0
    full = Field.evaluate
    monkeypatch.setattr(Field, "evaluate",
                        lambda self, positions, *, energy_only=False: full(self, positions))
    assert main(argv + ["--out", str(tmp_path / "full")]) == 0
    rows = read_csv(tmp_path / "area" / "rama.csv")
    assert len(rows) == 5 and len({r[4] for r in rows[1:]}) > 1  # g_cav varies
    assert ((tmp_path / "area" / "rama.csv").read_bytes()
            == (tmp_path / "full" / "rama.csv").read_bytes())


def test_scan_hinge_runs(tmp_path):
    out = tmp_path / "h"
    rc = main(["scan-hinge", "--seq", "AAAA", "--hinges", "2:phi", "--range",
               "4", "--steps", "3", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out / "hinge.csv")
    assert len(rows) == 4


def test_error_exit_code(tmp_path, capsys):
    rc = main(["fold", "--seq", "AXE", "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_missing_input_rejected(tmp_path, capsys):
    rc = main(["fold", "--out", str(tmp_path / "x")])
    assert rc == 2


@pytest.mark.parametrize("argv, message", [
    (["fold", "--seq", "AA", "--cutoffs", "a,b,c"], "error: --cutoffs: "),
    (["fold", "--seq", "AA", "--cutoffs", "9,5,8"], "error: --cutoffs: expected two numbers"),
    (["fold", "--seq", "AA", "--dielectric", "x"], "error: --dielectric: "),
    (["fold", "--seq", "AA", "--init", "uniform:-60,-45,10"], "error: --init: "),
    (["fold", "--seq", "AAA", "--freeze", "x"], "error: --freeze: "),
    (["fold", "--seq", "AAA", "--freeze", "-1"], "error: cannot freeze dof -1"),
    (["fold", "--seq", "AAA", "--freeze", "99"], "error: cannot freeze dof 99"),
    (["scan-rama", "--seq", "AAA", "--residue", "-1", "--grid", "2"],
     "error: residue -1 out of range"),
    (["scan-rama", "--seq", "AA", "--residue", "5", "--grid", "2"],
     "error: residue 5 out of range"),
    (["scan-hinge", "--seq", "AAAA", "--hinges", "2:chi"], "error: --hinges: entry '2:chi'"),
    (["scan-hinge", "--seq", "AAAA", "--hinges", "2-phi"], "error: --hinges: entry '2-phi'"),
    (["scan-hinge", "--seq", "AAAA", "--hinges", "5:phi"], "error: --hinges: entry '5:phi'"),
    (["scan-hinge", "--seq", "AAAA", "--hinges", "\u00b2:phi"],
     "error: --hinges: entry '\u00b2:phi'"),
    (["scan-hinge", "--seq", "AAAA", "--hinges", "2:phi,2:phi"],
     "error: --hinges: entry '2:phi' names a hinge twice"),
    (["fold", "--seq", "AA", "--max-iters", "0"], "error: max_iters must be at least 1"),
    (["fold", "--seq", "AA", "--energy-window", "-1"],
     "error: energy_window must be non-negative"),
    (["fold", "--seq", "AA", "--snapshot-every", "-1"],
     "error: snapshot_every must be non-negative"),
    (["fold", "--seq", "AA", "--batch", "0"], "error: --batch: "),
    (["fold", "--seq", "AA", "--init", "random", "--angle-range", "-5"],
     "error: --angle-range: "),
    (["fold", "--seq", "AA", "--init", "random", "--angle-range", "1e308"],
     "error: --angle-range: expected a non-negative half-range whose span 2R is finite"),
    (["fold", "--seq", "AA", "--torque-tol", "nan"],
     "error: torque_tol must be non-negative and finite, got nan"),
    (["fold", "--seq", "AA", "--energy-tol", "nan"],
     "error: energy_tol must be non-negative and finite, got nan"),
    (["fold", "--seq", "AA", "--kappa", "nan"], "error: kappa must be positive and finite"),
    (["fold", "--seq", "AA", "--water", "--delta-r", "nan"],
     "error: probe radius and delta_r must be positive and finite"),
    (["fold", "--seq", "AA", "--water", "--probe-radius", "nan"],
     "error: probe radius and delta_r must be positive and finite"),
    (["scan-hinge", "--seq", "AAA", "--hinges", "2:phi", "--range", "nan"],
     "error: hinge half range must be finite, got nan"),
    (["scan-hinge", "--seq", "AAAA", "--hinges", "2:phi", "--range", "1e308", "--steps", "3"],
     "error: --range: expected a half range whose span 2R is finite, got 1e+308"),
    (["fold", "--seq", "AA", "--params", "/nonexistent.ff"],
     "error: /nonexistent.ff: cannot read: "),
    (["fold", "--pdb", "/nonexistent.pdb"], "error: /nonexistent.pdb: cannot read: "),
    (["sasa", "--pdb", "."], "error: .: cannot read: "),
    (["fold", "--seq", "AA", "--params", "{binary}"], "error: {binary}:2: not UTF-8 text: "),
    (["sasa", "--pdb", "{binary}"], "error: {binary}:2: not UTF-8 text: "),
], ids=["cutoffs", "cutoffs-three", "dielectric", "init-uniform", "freeze-text", "freeze-negative",
        "freeze-past-end", "rama-negative", "rama-past-end", "hinge-chi", "hinge-dash",
        "hinge-past-end", "hinge-superscript", "hinge-repeated", "max-iters-zero",
        "energy-window-negative", "snapshot-every-negative", "batch-zero",
        "angle-range-negative", "angle-range-overflow", "torque-tol-nan",
        "energy-tol-nan", "kappa-nan", "delta-r-nan", "probe-radius-nan", "range-nan",
        "range-overflow", "params-missing", "pdb-missing", "pdb-directory",
        "params-not-utf8", "pdb-not-utf8"])
def test_bad_arguments_exit_cleanly(tmp_path, capsys, argv, message):
    binary = tmp_path / "binary.bin"  # {binary}: a byte on line 2 is not UTF-8
    binary.write_bytes(b"# kinefold\n" + bytes(range(128, 256)))
    argv = [arg.replace("{binary}", str(binary)) for arg in argv]
    message = message.replace("{binary}", str(binary))
    assert main(argv + ["--out", str(tmp_path / "x")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv", [["sasa", "--seq", "AA"],
                                  ["fold", "--seq", "AA", "--water", "--max-iters", "2"]],
                         ids=["sasa", "fold"])
def test_overflowing_probe_radius_is_refused(tmp_path, argv):
    """A probe radius whose offset spheres have no finite area is refused
    when the field is built: the process exits 2 with one ``error:`` line
    naming the probe radius and the largest offset radius, no traceback
    and no output files."""
    out = tmp_path / "x"
    src = str(Path(kinefold.__file__).parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "kinefold.cli", *argv, "--probe-radius", "1e300",
         "--samples", "12", "--out", str(out)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))})
    assert done.returncode == 2, done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: probe radius 1e+300 A gives "
                                                   "offset spheres of radius up to 1e+300")
    assert not out.exists()


def test_pdb_import_fold(tmp_path):
    # export a canonical chain, re-import it, run one native-mode iteration
    from kinefold.chain import build_chain, forward_kinematics
    from kinefold.pdbio import write_pdb

    ch = build_chain(["ALA", "GLY", "ALA"])
    src = tmp_path / "in.pdb"
    write_pdb(ch, forward_kinematics(ch, ch.conf_zp()), src)
    out = tmp_path / "imp"
    rc = main(["fold", "--pdb", str(src), "--init", "native", "--max-iters", "2",
               "--out", str(out)])
    assert rc == 0
    assert (out / "log.csv").exists()


def test_fold_step_flags_are_the_step_config_fields(capsys):
    """One flag per ``StepConfig`` field, with that field's type and default."""
    with pytest.raises(SystemExit):
        main(["fold", "--help"])
    offered = re.findall(r"^  (--[a-z-]+)", capsys.readouterr().out, re.M)
    args = vars(make_parser().parse_args(["fold"]))
    for f in dataclasses.fields(StepConfig):
        assert offered.count(f"--{f.name.replace('_', '-')}") == 1
        assert args[f.name] == f.default and type(args[f.name]) is type(f.default)


def test_fold_run_directory_files(tmp_path):
    out = tmp_path / "batch"
    assert main(["fold", "--seq", "AAA", "--init", "random", "--batch", "2",
                 "--snapshot-every", "1", "--max-iters", "2", "--out", str(out)]) == 0
    per_run = ["dihedrals.csv", "final.pdb", "log.csv", "snap_000000.pdb",
               "snap_000001.pdb", "timings.csv"]
    want = {"manifest.json", "summary.csv"} | {f"run_{run:04d}/{name}" for run in (0, 1)
                                               for name in per_run}
    assert {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()} == want
    for run in ("run_0000", "run_0001"):
        for name in ("log.csv", "dihedrals.csv", "timings.csv"):
            assert read_csv(out / run / name)[0] == ["# kinefold run log v1"]


@pytest.fixture
def vendored(tmp_path):
    """A copy of the package inside another project's git work tree (a
    venv in a project), untracked there, and a function returning the git
    entries of the copy's manifest environment."""
    project = tmp_path / "project"
    copy = project / ".venv" / "kinefold"
    shutil.copytree(Path(kinefold.__file__).parent, copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    git = ["git", "-C", str(project), "-c", "user.name=kinefold", "-c",
           "user.email=kinefold@example.org", "-c", "commit.gpgsign=false"]
    subprocess.run(["git", "init", "-q", str(project)], check=True)
    (project / ".gitignore").write_text(".venv/\n")
    subprocess.run(git + ["add", ".gitignore"], check=True)
    subprocess.run(git + ["commit", "-q", "-m", "project"], check=True)

    def recorded() -> dict:
        code = ("import json, kinefold.cli as c; env = c._environment(); "
                "print(c.__file__); "
                "print(json.dumps({k: v for k, v in env.items() if 'git' in k}))")
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(copy.parent)})
        where, entries = done.stdout.splitlines()
        assert Path(where).parent == copy
        return json.loads(entries)

    def commit():
        subprocess.run(git + ["add", "-f", ".venv"], check=True)
        subprocess.run(git + ["commit", "-q", "-m", "vendor the package"], check=True)
        return subprocess.run(git + ["rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()

    return copy, recorded, commit


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_manifest_revision_comes_from_a_tree_tracking_the_source(vendored):
    """An untracked copy of the package inside another work tree records
    no git revision; committed there, it records that commit."""
    _, recorded, commit = vendored
    assert recorded() == {}
    head = commit()
    assert recorded()["git_revision"] == head


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_manifest_records_whether_the_package_tree_is_dirty(vendored):
    """``git_dirty`` is false for the committed package, true once one of
    its files is edited and false again once the edit is undone."""
    copy, recorded, commit = vendored
    head = commit()
    assert recorded() == {"git_revision": head, "git_dirty": False}
    module = copy / "geometry.py"
    source = module.read_text()
    module.write_text(source + "# edited\n")
    assert recorded() == {"git_revision": head, "git_dirty": True}
    module.write_text(source)
    assert recorded() == {"git_revision": head, "git_dirty": False}
