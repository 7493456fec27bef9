"""In-memory spans around the library functions the fold loop calls.

The recorder replaces module attributes (``kcm.kinematic_state``,
``kcm.Field.evaluate``, ...) with timing wrappers for the duration of a
``with Recorder()`` block and restores them afterwards; nothing inside
``src/`` changes.  ``kcm`` looks these names up in its own module globals
at call time, so patching ``kcm``'s attributes times exactly the calls
the fold loop and the scans make.

Each span stores (name, parent span, root span, start, end, hook time).
A layer's self time is its span's duration minus its children's, and the
time spent in the counting hooks is excluded from every layer.  Counts
are derived from the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

import numpy as np

# span name -> (module whose attribute is patched, attribute path)
TARGETS = {
    "kcm.fold": ("kinefold.kcm", "fold"),
    "kcm.ramachandran_scan": ("kinefold.kcm", "ramachandran_scan"),
    "kcm.evaluate": ("kinefold.kcm", "Field.evaluate"),
    "chain.kinematic_state": ("kinefold.kcm", "kinematic_state"),
    "kcm.link_wrenches": ("kinefold.kcm", "link_wrenches"),
    "kcm.joint_torques": ("kinefold.kcm", "joint_torques"),
    "kcm.kcm_step": ("kinefold.kcm", "kcm_step"),
    "spatial.build_grid": ("kinefold.kcm", "build_grid"),
    "spatial.build_neighbor_table": ("kinefold.kcm", "build_neighbor_table"),
    "forcefield.extract_pairs": ("kinefold.kcm", "extract_pairs"),
    "forcefield.elec": ("kinefold.kcm", "elec_pair_quantities"),
    "forcefield.vdw": ("kinefold.kcm", "vdw_pair_quantities"),
    "forcefield.accumulate": ("kinefold.kcm", "accumulate_pair_forces"),
    "topology.weights_for": ("kinefold.topology", "TreeWeights.weights_for"),
    "spatial.filtered_lists": ("kinefold.kcm", "filtered_lists"),
    "solvation.sasa_pass": ("kinefold.kcm", "sasa_pass"),
    "solvation.forces": ("kinefold.kcm", "solvation_forces"),
    # set-up
    "pdbio.load_params": ("kinefold.pdbio", "load_params"),
    "chain.build_chain": ("kinefold.chain", "build_chain"),
    "topology.build_tree": ("kinefold.topology", "build_tree"),
    "solvation.generate_samples": ("kinefold.kcm", "generate_samples"),
}
ROOTS = ("kcm.fold", "kcm.ramachandran_scan")
SETUP = ("pdbio.load_params", "chain.build_chain", "topology.build_tree",
         "solvation.generate_samples")

# Every per-layer metric: unit, which direction is better, and the
# end-to-end metric and workloads it is expected to move.
_VAC = "iter_ms on extended400-vacuum and helix15-vacuum"
_WATER = "iter_ms on helix30-water and rama8-water"
LAYER_METRICS = {
    "chain.kinematic_state_s": ("s", "lower", _VAC),
    "kcm.link_wrenches_s": ("s", "lower", _VAC),
    "kcm.joint_torques_s": ("s", "lower", _VAC),
    "kcm.kcm_step_s": ("s", "lower", _VAC),
    "kcm.loop_self_s": ("s", "lower", _VAC),
    "spatial.build_grid_s": ("s", "lower", _VAC),
    "spatial.build_neighbor_table_s": ("s", "lower", _VAC),
    "spatial.candidate_pairs": ("count", "lower", _VAC),
    "forcefield.extract_pairs_s": ("s", "lower", _VAC),
    "forcefield.pairs_kept": ("count", "lower", _VAC),
    "forcefield.pair_keep_ratio": ("ratio", "higher", _VAC),
    "forcefield.elec_s": ("s", "lower", _VAC),
    "forcefield.vdw_s": ("s", "lower", _VAC),
    "forcefield.accumulate_s": ("s", "lower", _VAC),
    "topology.weights_for_s": ("s", "lower", _VAC),
    "spatial.filtered_lists_s": ("s", "lower", _WATER),
    "spatial.cav_neighbors_mean": ("count", "lower", _WATER),
    "solvation.sasa_pass_s": ("s", "lower", _WATER),
    "solvation.sample_tests": ("count", "lower", _WATER),
    "solvation.exposed_frac": ("ratio", "lower", _WATER),
    "solvation.critical_frac": ("ratio", "lower", _WATER),
    "solvation.multiple_frac": ("ratio", "higher", _WATER),
    "solvation.forces_s": ("s", "lower", "iter_ms on helix30-water"),
    "solvation.force_tests": ("count", "lower", "iter_ms on helix30-water"),
    "solvation.force_prune_ratio": ("ratio", "lower", "iter_ms on helix30-water"),
    "kcm.evaluate_self_s": ("s", "lower", "iter_ms on every workload"),
    "kcm.iter_ms_p50": ("ms", "lower", "iter_ms on every workload"),
    "kcm.iter_ms_p90": ("ms", "lower", "iter_ms on every workload"),
    "kcm.iter_samples": ("count", "higher", "sample count of the two above"),
    "pdbio.load_params_s": ("s", "lower", "setup_s on every workload"),
    "chain.build_chain_s": ("s", "lower", "setup_s on every workload"),
    "topology.build_tree_s": ("s", "lower", "setup_s on every workload"),
    "solvation.generate_samples_s": ("s", "lower", "setup_s on the water workloads"),
    "trace.overhead_ratio": ("ratio", "lower", "none: traced over untraced solve_s"),
    "trace.unattributed_ratio": ("ratio", "lower",
                                 "none: fold/scan and evaluate self time over traced solve_s"),
    "trace.phase_ratio_min": ("ratio", "higher", "none: spans over the program's phase timings"),
}

# Largest share of the traced solve time allowed in no named layer: more
# fold/scan and Field.evaluate self time (work in no wrapped function)
# than this means a hot path the spans miss.  It read 0.001-0.04 at the commit that
# added the benchmark, 0.04 on helix15-vacuum.
UNATTRIBUTED_MAX = 0.15

# The program's own per-iteration phases (IterationRecord.timings and
# FieldResult.timings) and the spans that run inside each of them.
PHASES = {
    "fk": ("chain.kinematic_state",),
    "hash": ("spatial.build_grid", "spatial.build_neighbor_table"),
    "force": ("forcefield.extract_pairs", "topology.weights_for", "forcefield.elec",
              "forcefield.vdw", "forcefield.accumulate"),
    "solvation": ("spatial.filtered_lists", "solvation.sasa_pass", "solvation.forces"),
    "torque": ("kcm.link_wrenches", "kcm.joint_torques"),
}


# --------------------------------------------------------------------------
# counting hooks: (arguments by parameter name, result, counts) -> None
# --------------------------------------------------------------------------

def _count_table(args, table, c):
    c["candidate_pairs"] += len(table.neighbors) // 2


def _count_pairs(args, result, c):
    c["pairs_kept"] += len(result[2])


def _count_cavity(args, lists, c):
    c["cav_neighbors"] += sum(len(nb) for nb in lists)
    c["cav_atoms"] += len(lists)


def _count_sasa(args, result, c):
    neighbors, sphere = args["neighbors"], args["sphere"]
    counts = result[1].counts
    c["sample_tests"] += sphere.n * sum(len(nb) for nb in neighbors)
    c["samples"] += counts.size
    for state, key in enumerate(("exposed", "critical", "multiple")):
        c[key] += int(np.count_nonzero(counts == state))


def _count_forces(args, result, c):
    """Distance tests the pruned force pass makes, against the 3*N*|nb|
    per atom a pass without exposure states would make."""
    params, neighbors = args["params"], args["neighbors"]
    sphere, states = args["sphere"], args["states"]
    nb_len = np.array([len(nb) for nb in neighbors])
    active = (nb_len > 0) & (params.gamma != 0)
    n0 = np.count_nonzero(states.counts == 0, axis=1)
    n1 = np.count_nonzero(states.counts == 1, axis=1)
    c["force_tests"] += 3 * int(np.sum((n0 * nb_len + n1)[active]))
    c["force_tests_unpruned"] += 3 * sphere.n * int(np.sum(nb_len[active]))


def _count_evaluate(args, result, c):
    c["evaluations"] += 1
    for phase, seconds in result.timings.items():
        c["program." + phase] += seconds


def _count_fold(args, traj, c):
    for rec in traj.records:
        c["program.fk"] += rec.timings["fk"]
        c["program.torque"] += rec.timings["torque"]


HOOKS = {
    "spatial.build_neighbor_table": _count_table,
    "forcefield.extract_pairs": _count_pairs,
    "spatial.filtered_lists": _count_cavity,
    "solvation.sasa_pass": _count_sasa,
    "solvation.forces": _count_forces,
    "kcm.evaluate": _count_evaluate,
    "kcm.fold": _count_fold,
}


# --------------------------------------------------------------------------
# recorder
# --------------------------------------------------------------------------

class Recorder:
    """Patches every target present for the life of a ``with`` block."""

    def __init__(self):
        self.spans: list[list] = []   # [name, parent, root, start, end, hook_s]
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.absent = []
        for name, (module, path) in TARGETS.items():
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(name)
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, parent, spans[parent][2] if parent >= 0 else index,
                    0.0, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(signature.bind(*args, **kwargs).arguments, result, counts)
                span[5] = time.perf_counter() - span[4]
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path) -> None:
        """Writes every span, one JSON object per line."""
        keys = ("name", "parent", "root", "start", "end", "hook_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

def _self_times(spans) -> list[float]:
    """Span duration minus the children's duration and hook time."""
    out = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            out[s[1]] -= (s[4] - s[3]) + s[5]
    return out


def layer_metrics(rec: Recorder, *, units: int, setups: int, solve_total: float,
                  overhead_ratio: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run and the trace sanity failures.

    Layer times are self seconds per unit (so they add up to the traced
    solve time per unit; ``solve_total`` is that time summed over the
    ``units`` traced units), set-up times are seconds per set-up, counts are per
    ``Field.evaluate`` call.  A metric whose function is absent is None.
    """
    spans = rec.spans
    self_s = _self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_s):
        by_name[s[0]] += t
    c = rec.counts

    def per_unit(name):
        return None if name in rec.absent else by_name[name] / units

    def ratio(num, den, needs):
        if any(n in rec.absent for n in needs):
            return None
        return c[num] / c[den] if c[den] else 0.0

    m = {}
    for name in ("chain.kinematic_state", "kcm.link_wrenches", "kcm.joint_torques",
                 "kcm.kcm_step", "spatial.build_grid", "spatial.build_neighbor_table",
                 "forcefield.extract_pairs", "forcefield.elec", "forcefield.vdw",
                 "forcefield.accumulate", "topology.weights_for",
                 "spatial.filtered_lists", "solvation.sasa_pass", "solvation.forces"):
        m[name + "_s"] = per_unit(name)
    roots = [n for n in ROOTS if n not in rec.absent]
    m["kcm.loop_self_s"] = sum(by_name[n] for n in roots) / units
    m["kcm.evaluate_self_s"] = per_unit("kcm.evaluate")

    m["spatial.candidate_pairs"] = ratio("candidate_pairs", "evaluations",
                                         ["spatial.build_neighbor_table"])
    m["forcefield.pairs_kept"] = ratio("pairs_kept", "evaluations",
                                       ["forcefield.extract_pairs"])
    m["forcefield.pair_keep_ratio"] = ratio(
        "pairs_kept", "candidate_pairs",
        ["forcefield.extract_pairs", "spatial.build_neighbor_table"])
    m["spatial.cav_neighbors_mean"] = ratio("cav_neighbors", "cav_atoms",
                                            ["spatial.filtered_lists"])
    m["solvation.sample_tests"] = ratio("sample_tests", "evaluations",
                                        ["solvation.sasa_pass"])
    for key in ("exposed", "critical", "multiple"):
        m[f"solvation.{key}_frac"] = ratio(key, "samples", ["solvation.sasa_pass"])
    m["solvation.force_tests"] = ratio("force_tests", "evaluations",
                                       ["solvation.forces"])
    m["solvation.force_prune_ratio"] = ratio("force_tests", "force_tests_unpruned",
                                             ["solvation.forces"])

    iters = _iteration_ms(spans)
    m["kcm.iter_ms_p50"] = float(np.percentile(iters, 50)) if iters else None
    m["kcm.iter_ms_p90"] = float(np.percentile(iters, 90)) if iters else None
    m["kcm.iter_samples"] = len(iters)
    for name in SETUP:
        m[name + "_s"] = None if name in rec.absent else by_name[name] / setups
    m["trace.overhead_ratio"] = overhead_ratio

    # sanity: little of the traced solve time falls outside the named
    # layers, and the spans inside each program-timed phase add up to no
    # more than that phase and to at least half of it
    unattributed = (m["kcm.loop_self_s"] + (m["kcm.evaluate_self_s"] or 0.0)) * units
    m["trace.unattributed_ratio"] = unattributed / solve_total
    failures = []
    if m["trace.unattributed_ratio"] > UNATTRIBUTED_MAX:
        failures.append(f"{m['trace.unattributed_ratio']:.4f} of the traced solve_s is "
                        f"in no layer (fold/scan and evaluate self time)")
    phase_ratios = _phase_ratios(rec)
    m["trace.phase_ratio_min"] = min(phase_ratios.values()) if phase_ratios else None
    for phase, r in phase_ratios.items():
        if not 0.5 <= r <= 1.0 + 1e-9:
            failures.append(f"spans cover {r:.4f} of the program's {phase} phase")
    return m, failures


def _phase_ratios(rec) -> dict[str, float]:
    """Span time over the program's own timing, per phase it measured."""
    spans = rec.spans
    out = {}
    for phase, names in PHASES.items():
        program = rec.counts.get("program." + phase, 0.0)
        if program <= 0.0 or any(n in rec.absent for n in names):
            continue
        # scans place atoms too, outside any fk phase
        roots = ("kcm.fold",) if phase == "fk" else ROOTS + ("kcm.evaluate",)
        inside = sum(s[4] - s[3] for s in spans
                     if s[0] in names and s[1] >= 0 and spans[s[1]][0] in roots)
        out[phase] = inside / program
    return out


def _iteration_ms(spans) -> list[float]:
    """Per-iteration wall times: from one ``Field.evaluate`` call of a fold
    or scan to the next, the last ending with its fold or scan."""
    starts = defaultdict(list)
    for s in spans:
        if s[0] == "kcm.evaluate" and s[1] >= 0 and spans[s[1]][0] in ROOTS:
            starts[s[1]].append(s[3])
    out = []
    for root, ts in starts.items():
        ends = ts[1:] + [spans[root][4]]
        out += [(b - a) * 1e3 for a, b in zip(ts, ends)]
    return out
