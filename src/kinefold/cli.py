"""Command-line driver: fold, Ramachandran/hinge scans, SASA.

Every run writes a manifest.json recording the effective configuration
(for ``fold``, the only command that draws random numbers, including the
seed, and each run's outcome: iterations, convergence and stop reason, or
the error that ended it), so any artifact can be reproduced bit for bit,
and the environment it ran in: Python and numpy versions, platform, CPU
count, the git revision of the source when a work tree tracks it, and the
native library's source hash and compiler.  Commands parse flags and call
the library; ``pdbio`` writes every file they leave.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

from . import __version__, native
from .chain import Chain, Conformation, build_chain, forward_kinematics
from .errors import KinefoldError
from .forcefield import DielectricModel
from .kcm import (
    Field,
    FieldConfig,
    StepConfig,
    fold,
    hinge_scan,
    ramachandran_scan,
)
from .pdbio import (SUMMARY_HEADER, _num, load_params, read_pdb, read_sequence,
                    summary_row, write_csv, write_manifest, write_run)
from .solvation import SolvationConfig
from .spatial import Cutoffs
from .topology import TreeWeights, build_tree


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seq", help="residue codes (one- or three-letter)")
    p.add_argument("--pdb", help="import structure, retaining geometry as read")
    p.add_argument("--out", default="run_out", help="output directory")
    p.add_argument("--params", help="force-field parameter file (default: shipped)")
    p.add_argument("--gamma-set", default="sharp", choices=("sharp", "kyte"))
    field = p.add_mutually_exclusive_group()
    field.add_argument("--vacuum", action="store_true", help="no solvation term (default)")
    field.add_argument("--water", action="store_true", help="include solvation term")
    p.add_argument("--dielectric", default="distance",
                   help="'distance' or a constant kappa value")
    p.add_argument("--cutoffs", default=f"{Cutoffs.elec},{Cutoffs.vdw}",
                   help="elec,vdw cut-off distances in Angstroms")
    p.add_argument("--samples", type=int, default=SolvationConfig.samples,
                   help="sphere sample count")
    p.add_argument("--delta-r", type=float, default=SolvationConfig.delta_r,
                   help="forward-difference step for solvation forces")
    p.add_argument("--probe-radius", type=float, default=SolvationConfig.probe_radius)
    p.add_argument("--omega", default="trans", choices=("trans", "cis"))


def _numbers(flag: str, text: str, counts: tuple[int, ...], usage: str) -> list[float]:
    """The comma-separated finite numbers in ``text``, as many as one of
    ``counts``; anything else is an error naming ``--flag``."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) not in counts or not all(map(math.isfinite, values)):
        raise KinefoldError(f"--{flag}: expected {usage}, got {text!r}")
    return values


def _build_system(args, solvation: bool):
    params_set = load_params(args.params)
    if args.pdb:
        record = read_pdb(args.pdb)
        chain = build_chain([], geometry=record)
    elif args.seq:
        chain = build_chain(read_sequence(args.seq), omega=args.omega)
    else:
        raise KinefoldError("need --seq or --pdb")
    atom_params = params_set.resolve(chain, args.gamma_set)
    weights = TreeWeights(build_tree(chain), params_set.weights)
    elec, vdw = _numbers("cutoffs", args.cutoffs, (2,), "two numbers ELEC,VDW")
    kappa = None if args.dielectric == "distance" else _numbers(
        "dielectric", args.dielectric, (1,), "'distance' or a number")[0]
    config = FieldConfig(
        solvation=solvation,
        dielectric=DielectricModel(kappa),
        cutoffs=Cutoffs(elec=elec, vdw=vdw),
        solvation_cfg=SolvationConfig(
            probe_radius=args.probe_radius, delta_r=args.delta_r,
            samples=args.samples),
    )
    return chain, Field(atom_params, weights, config)


def _git(*argv: str) -> str | None:
    """What git prints run in this package's directory; None if it fails."""
    try:
        done = subprocess.run(["git", "-C", str(Path(__file__).parent), *argv],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def _environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }
    # HEAD of the git work tree that tracks this source, and whether the
    # package's files differ from it (a status that cannot be read does not
    # vouch for a clean tree); an untracked copy inside another project's
    # tree (a venv) records neither
    if (_git("ls-files", "--error-unmatch", Path(__file__).name) is not None
            and (head := _git("rev-parse", "HEAD"))):
        env["git_revision"] = head.strip()
        env["git_dirty"] = _git("status", "--porcelain", "--", ".") != ""
    import hashlib  # maps OpenSSL: only a command writing a manifest needs it

    lib = native.load()
    env["native"] = {"source_sha256": hashlib.sha256(lib.sources).hexdigest(),
                     "compiler": lib.compiler}
    return env


def _manifest_payload(args, chain: Chain, extra: dict) -> dict:
    payload = {
        "version": __version__,
        "command": args.command,
        "arguments": {k: v for k, v in vars(args).items() if k != "func"},
        "n_atoms": chain.n_atoms,
        "n_residues": chain.n_residues,
        "n_dof": chain.n_dof,
        "environment": _environment(),
    }
    payload.update(extra)
    return payload


def _initial_conformation(chain: Chain, args, rng) -> Conformation:
    mode = args.init
    if mode == "zp" or (mode == "native" and chain.source == "imported"):
        conf = chain.conf_zp()
    elif mode.startswith("uniform:"):
        parts = _numbers("init", mode.split(":", 1)[1], (1, 2),
                         "uniform:PHI or uniform:PHI,PSI")
        phi, psi = parts if len(parts) == 2 else (parts[0], parts[0])
        conf = chain.conf_from_backbone(phi, psi)
    elif mode == "random":
        lim = args.angle_range
        phi = rng.uniform(-lim, lim, chain.n_residues)
        psi = rng.uniform(-lim, lim, chain.n_residues)
        conf = chain.conf_from_backbone(phi, psi)
    elif mode == "native":
        raise KinefoldError("init mode 'native' needs --pdb input")
    else:
        raise KinefoldError(f"unknown init mode {mode!r}")
    if args.freeze:
        try:
            dofs = [int(x) for x in args.freeze.split(",")]
        except ValueError:
            raise KinefoldError(f"--freeze: expected comma-separated dof indices, "
                                f"got {args.freeze!r}") from None
        conf = conf.freeze(dofs)
    return conf


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_fold(args) -> int:
    if args.batch < 1:
        raise KinefoldError(f"--batch: expected at least 1 run, got {args.batch}")
    if not (args.angle_range >= 0 and math.isfinite(2 * args.angle_range)):
        raise KinefoldError(f"--angle-range: expected a non-negative half-range whose "
                            f"span 2R is finite, got {args.angle_range}")
    chain, field = _build_system(args, args.water)
    rng = np.random.default_rng(args.seed)
    step = StepConfig(**{f.name: getattr(args, f.name)
                         for f in dataclasses.fields(StepConfig)})
    out, runs = Path(args.out), args.batch
    summary_rows, failed, outcomes = [], [], []
    for run in range(runs):
        conf = _initial_conformation(chain, args, rng)
        try:
            traj = fold(chain, conf, field, step)
        except KinefoldError as exc:
            # one bad start (a clash, a non-finite torque) must not cost
            # the other runs their results or the batch its summary
            failed.append(run)
            summary_rows.append(summary_row(run, chain, exc))
            outcomes.append({"run": run, "error": str(exc)})
            print(f"error: run {run}: {exc}", file=sys.stderr)
            continue
        write_run(out if runs == 1 else out / f"run_{run:04d}", chain, traj)
        summary_rows.append(summary_row(run, chain, traj))
        outcomes.append({"run": run, "iterations": traj.iterations,
                         "converged": traj.converged, "reason": traj.reason})
        print(f"run {run}: {traj.iterations} iterations, "
              f"converged={traj.converged} ({traj.reason}), "
              f"G_total={traj.records[-1].energy.g_total:.3f} kcal/mol")
    if runs > 1:
        write_csv(out / "summary.csv", SUMMARY_HEADER, summary_rows)
    write_manifest(out, _manifest_payload(
        args, chain, {"seed": args.seed, "runs": outcomes, "failed_runs": failed}))
    return 2 if failed else 0


def _write_grid(path, axis_columns: list[str], grid) -> None:
    """One row per grid point: the axis values, then the four energies."""
    energies = (grid.g_elec, grid.g_vdw, grid.g_cav, grid.g_total)
    write_csv(path, axis_columns + ["g_elec", "g_vdw", "g_cav", "g_total"], (
        [axis[k] for axis, k in zip(grid.axes, idx)] + [_num(g[idx]) for g in energies]
        for idx in np.ndindex(*grid.g_total.shape)))


def cmd_scan_rama(args) -> int:
    chain, field = _build_system(args, args.water)
    grid = ramachandran_scan(chain, args.residue, args.grid, field)
    out = Path(args.out)
    _write_grid(out / "rama.csv", ["phi", "psi"], grid)
    k = np.unravel_index(np.argmin(grid.g_total), grid.g_total.shape)
    print(f"grid {args.grid}x{args.grid}; minimum {grid.g_total[k]:.3f} kcal/mol "
          f"at phi={grid.axes[0][k[0]]:.1f}, psi={grid.axes[1][k[1]]:.1f}")
    write_manifest(out, _manifest_payload(args, chain, {"residue": args.residue}))
    return 0


def cmd_scan_hinge(args) -> int:
    # a NaN or infinite R is hinge_scan's to refuse; a finite R can still
    # overflow the span of the sweep
    if math.isfinite(args.range) and not math.isfinite(2 * args.range):
        raise KinefoldError(f"--range: expected a half range whose span 2R is finite, "
                            f"got {args.range}")
    chain, field = _build_system(args, args.water)
    dofs = []
    for part in args.hinges.split(","):
        res_s, _, kind = part.partition(":")
        # isdecimal, not isdigit: int() refuses superscript digits such as '²'
        res = int(res_s) - 1 if res_s.strip().isdecimal() else -1
        if kind not in ("phi", "psi") or not 0 <= res < chain.n_residues:
            raise KinefoldError(f"--hinges: entry {part!r} is not RES:phi or RES:psi "
                                f"with RES in 1..{chain.n_residues}")
        dof = chain.dof_phi(res) if kind == "phi" else chain.dof_psi(res)
        if dof in dofs:
            raise KinefoldError(f"--hinges: entry {part!r} names a hinge twice")
        dofs.append(dof)
    grid = hinge_scan(chain, dofs, args.range, args.steps, field, chain.conf_zp())
    out = Path(args.out)
    _write_grid(out / "hinge.csv", [f"offset_{d}" for d in dofs], grid)
    k = np.unravel_index(np.argmin(grid.g_total), grid.g_total.shape)
    offs = ", ".join(f"{float(grid.axes[d][k[d]]):+.2f}" for d in range(len(dofs)))
    print(f"hinge grid minimum {grid.g_total[k]:.3f} kcal/mol at offsets [{offs}] deg")
    write_manifest(out, _manifest_payload(args, chain, {"hinge_dofs": dofs}))
    return 0


def cmd_sasa(args) -> int:
    chain, field = _build_system(args, solvation=True)
    positions = forward_kinematics(chain, chain.conf_zp())
    result = field.evaluate(positions, energy_only=True).sasa
    out = Path(args.out)
    write_csv(out / "sasa.csv", ["atom", "name", "residue", "f_exp", "a_exp"], (
        [i, chain.atom_names[i], int(chain.atom_residue[i]),
         _num(result.f_exp[i]), _num(result.a_exp[i])] for i in range(chain.n_atoms)))
    print(f"total exposed area {result.a_exp.sum():.3f} A^2, "
          f"G_cav {result.g_cav:.4f} kcal/mol over {chain.n_atoms} atoms")
    write_manifest(out, _manifest_payload(args, chain, {"samples": field.sphere().n}))
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="kinefold",
        description="Kinetostatic-compliance folding simulator",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fold", help="run the compliance folding loop")
    _common_flags(p)
    for f in dataclasses.fields(StepConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", type=type(f.default),
                       default=f.default)
    p.add_argument("--init", default="zp",
                   help="zp | uniform:PHI,PSI | random | native")
    p.add_argument("--angle-range", type=float, default=90.0,
                   help="half-range for random initial angles")
    p.add_argument("--freeze", help="comma-separated dof indices to freeze")
    p.add_argument("--batch", type=int, default=1,
                   help="number of independent runs (random inits)")
    p.add_argument("--seed", type=int, default=0, help="seed of the random inits")
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("scan-rama", help="phi/psi energy grid for one residue")
    _common_flags(p)
    p.add_argument("--residue", type=int, default=1, help="0-based residue index")
    p.add_argument("--grid", type=int, default=36)
    p.set_defaults(func=cmd_scan_rama)

    p = sub.add_parser("scan-hinge", help="energy sweep about hinge dihedrals")
    _common_flags(p)
    p.add_argument("--hinges", required=True,
                   help="e.g. '21:phi,125:psi' (1-based residues)")
    p.add_argument("--range", type=float, default=10.0)
    p.add_argument("--steps", type=int, default=5)
    p.set_defaults(func=cmd_scan_hinge)

    p = sub.add_parser("sasa", help="per-atom solvent-accessible surface areas")
    _common_flags(p)
    p.set_defaults(func=cmd_sasa)
    return ap


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except KinefoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
