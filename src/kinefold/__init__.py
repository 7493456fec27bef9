"""Kinetostatic-compliance folding simulator for reduced-DOF protein chains.

The protein is an open kinematic linkage whose dihedral joints comply
under torques derived from electrostatic, van der Waals, and
SASA-based implicit-solvation forces.  Per-iteration work stays
expected-linear through a cell list, a bond-tree interaction
classifier, offset-sphere surface enumeration, and one reverse
parent-pointer pass that aggregates torques over the linkage tree.
"""

__version__ = "0.1.0"

from .chain import (
    Chain,
    Conformation,
    build_chain,
    forward_kinematics,
    kinematic_state,
)
from .errors import KinefoldError
from .forcefield import AtomParams, DielectricModel, EnergyBreakdown
from .geometry import dihedral_angle
from .kcm import (
    Field,
    FieldConfig,
    StepConfig,
    Trajectory,
    fold,
    hinge_scan,
    joint_torques,
    kcm_step,
    link_wrenches,
    ramachandran_scan,
    single_point,
)
from .pdbio import (
    ParamSet,
    StructureRecord,
    load_params,
    read_pdb,
    read_sequence,
    write_manifest,
    write_pdb,
    write_run,
)
from .residues import ResidueSpec, default_templates
from .solvation import (
    SampleSphere,
    SasaResult,
    SolvationConfig,
    generate_samples,
    sasa_pass,
    solvation_forces,
)
from .spatial import (
    Cutoffs,
    HashGrid,
    NeighborTable,
    build_grid,
    build_neighbor_table,
    filtered_lists,
)
from .topology import (
    BondTree,
    InteractionClass,
    TreeWeights,
    WeightTable,
    build_tree,
)
