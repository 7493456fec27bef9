"""Exception types shared across the package."""


class KinefoldError(Exception):
    """Base class for all package errors."""


class UnknownResidueError(KinefoldError, ValueError):
    """Residue code has no template and no fallback geometry."""


class TemplateError(KinefoldError, ValueError):
    """Residue template file is malformed or violates an invariant."""


class ChainBuildError(KinefoldError, ValueError):
    """Chain construction failed (bad sequence or incomplete geometry)."""


class DisconnectedBondGraphError(KinefoldError, ValueError):
    """Covalent bond graph does not span all chain atoms."""


class ConfigurationError(KinefoldError, ValueError):
    """Inconsistent or out-of-range run configuration."""


class StericClashError(KinefoldError, ArithmeticError):
    """Two atom centers closer than the minimum resolvable distance."""


class NonFiniteTorqueError(KinefoldError, ArithmeticError):
    """A joint torque came out NaN or infinite."""


class PDBFormatError(KinefoldError, ValueError):
    """Unparseable or empty PDB content."""


class ParameterFileError(KinefoldError, ValueError):
    """Force-field parameter file is malformed or incomplete."""
