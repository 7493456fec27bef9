"""The benchmark's span wiring (``foldbench/spans.py``) against the library.

``python3 foldbench/run.py --trace 1`` times each layer by patching the
module attributes its ``TARGETS`` name.  A target that no longer resolves
is skipped at run time, so the traced run silently loses that layer;
these tests make such a deletion fail here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from kinefold.chain import forward_kinematics
from kinefold.solvation import SolvationConfig

from .conftest import make_field

_spec = importlib.util.spec_from_file_location(
    "foldbench_spans", Path(__file__).resolve().parents[1] / "foldbench" / "spans.py")
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize("name", sorted(spans.TARGETS))
def test_span_target_resolves(name):
    module, path = spans.TARGETS[name]
    owner = importlib.import_module(module)
    for part in path.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner), f"span {name}: {module}.{path} is gone"


def test_evaluate_calls_every_phase_layer(ala2, param_set):
    field = make_field(ala2, param_set, solvation=True,
                       solvation_cfg=SolvationConfig(samples=64))
    positions = forward_kinematics(ala2, ala2.conf_zp())
    with spans.Recorder() as rec:
        field.evaluate(positions)
    assert rec.absent == []
    seen = {span[0] for span in rec.spans}
    for phase in ("hash", "force", "solvation"):
        assert set(spans.PHASES[phase]) <= seen, phase


def test_evaluate_is_one_pass_over_the_pairs(ala2, param_set):
    """One solvated evaluation extracts, classifies, scatters and lists the
    pairs once each."""
    field = make_field(ala2, param_set, solvation=True,
                       solvation_cfg=SolvationConfig(samples=64))
    positions = forward_kinematics(ala2, ala2.conf_zp())
    with spans.Recorder() as rec:
        field.evaluate(positions)
    names = [span[0] for span in rec.spans]
    for name in ("forcefield.extract_pairs", "topology.weights_for",
                 "forcefield.accumulate", "spatial.filtered_lists"):
        assert names.count(name) == 1, (name, names.count(name))
