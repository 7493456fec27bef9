"""Golden run outputs: the README quick-start folds, rerun and compared with
the ``log.csv`` and ``final.pdb`` stored under ``tests/golden/``.

The iteration count, the stop reason and ``g_cav`` must match exactly; the
other ``log.csv`` columns within rel 1e-9, the bound the arithmetic policy
states for the pair terms; PDB coordinates within 0.001 A, one unit in the
last printed digit.  ``tests/golden/regenerate.py`` rewrites the files.
"""

import csv
import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from kinefold.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
RUNS = json.loads((GOLDEN / "runs.json").read_text())
EXACT = ("iteration", "g_cav")


def read_log(path):
    lines = Path(path).read_text().splitlines()
    return lines[0], list(csv.DictReader(lines[1:]))


def atom_lines(path):
    """``final.pdb`` split into each line's text outside the coordinate
    columns and the coordinates (nan for a line without them)."""
    text, xyz = [], []
    for line in Path(path).read_text().splitlines():
        atom = line.startswith(("ATOM", "HETATM"))
        text.append(line[:30] + line[54:] if atom else line)
        xyz.append([float(line[k:k + 8]) for k in (30, 38, 46)] if atom else [np.nan] * 3)
    return text, np.array(xyz)


@pytest.mark.parametrize("run", RUNS, ids=[run["name"] for run in RUNS])
def test_quickstart_fold_matches_its_golden_outputs(run, tmp_path):
    out = tmp_path / "out"
    assert main(shlex.split(run["command"])[1:] + ["--out", str(out)]) == 0
    want_dir = GOLDEN / run["name"]
    (outcome,) = json.loads((out / "manifest.json").read_text())["runs"]
    assert outcome == {"run": 0, **run["outcome"]}

    version, got = read_log(out / "log.csv")
    want_version, want = read_log(want_dir / "log.csv")
    assert version == want_version
    assert len(got) == len(want) == run["outcome"]["iterations"]
    assert list(got[0]) == list(want[0])
    for column in want[0]:
        g, w = [row[column] for row in got], [row[column] for row in want]
        if column in EXACT:
            assert g == w, column
        else:
            np.testing.assert_allclose(np.array(g, float), np.array(w, float),
                                       rtol=1e-9, atol=0, err_msg=column)

    text, xyz = atom_lines(out / "final.pdb")
    want_text, want_xyz = atom_lines(want_dir / "final.pdb")
    assert text == want_text
    np.testing.assert_allclose(xyz, want_xyz, rtol=0, atol=1e-3 + 1e-9)


def test_quickstart_with_default_step_options_stops_as_golden(tmp_path):
    """The README quick start without ``--torque-tol-rel 0``: the default
    steps on to the golden plateau, where a stop relative to the first
    torque ended it at iteration 111, at +69.8 kcal/mol."""
    run = RUNS[0]
    argv = shlex.split(run["command"])[1:]
    at = argv.index("--torque-tol-rel")
    del argv[at:at + 2]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    (outcome,) = json.loads((out / "manifest.json").read_text())["runs"]
    assert outcome == {"run": 0, **run["outcome"]}
