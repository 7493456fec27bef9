"""Build, cache and load the compiled SASA passes of ``sasa_kernel.c``.

The C file is compiled on first use with the system ``cc`` and fixed
flags (no ``-march``, no fast-math, no contraction into fused
multiply-adds, so every sample test rounds like the numpy reference in
``tests/oracles.py``).  The library is cached under
``$XDG_CACHE_HOME/kinefold/`` (default ``~/.cache/kinefold/``) by the
sha256 of the source and the flags, written to a temporary file and
moved into place, so concurrent first runs never load a partial file.
It is loaded with ``ctypes``; every array argument is declared as an
``np.ctypeslib.ndpointer``, so a wrong dtype or layout raises instead of
being read as something else.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

SOURCE = Path(__file__).with_name("sasa_kernel.c")
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")


def _array(dtype, writeable=False):
    flags = "C_CONTIGUOUS, WRITEABLE" if writeable else "C_CONTIGUOUS"
    return np.ctypeslib.ndpointer(dtype, flags=flags)


_F64, _I64 = _array(np.float64), _array(np.int64)
_SIGNATURES = {
    # lo, hi, positions, r_off, r_off2, offsets, neighbors, points, nq,
    # then the outputs
    "exposure": [ctypes.c_int64, ctypes.c_int64, _F64, _F64, _F64, _I64, _I64, _F64,
                 ctypes.c_int64, _array(np.uint8, True), _array(np.int32, True),
                 _array(np.int64, True)],
    # ... nq, counts, critical, w_int, delta_r, n, acc
    "force_events": [ctypes.c_int64, ctypes.c_int64, _F64, _F64, _F64, _I64, _I64,
                     _F64, ctypes.c_int64, _array(np.uint8), _array(np.int32), _I64,
                     ctypes.c_double, ctypes.c_int64, _array(np.int64, True)],
}


@dataclass(frozen=True)
class SasaKernel:
    """The loaded library, and what a run manifest records of it."""

    library: ctypes.CDLL
    source_sha256: str
    compiler: str | None    # the ``cc`` on PATH at load time

    def exposure(self, *args) -> None:
        _check(self.library.exposure(*args))

    def force_events(self, *args) -> None:
        _check(self.library.force_events(*args))


def _check(status: int) -> None:
    if status == -1:
        raise MemoryError("the SASA kernel could not allocate its row buffers")
    if status != 0:
        raise ConfigurationError(
            "exposure states name a critical neighbor outside the atoms; pass the "
            "states sasa_pass gave for the same positions and rows")


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "kinefold"


@functools.cache
def load() -> SasaKernel:
    """The kernel, compiled into the cache first when it is not there.

    Raises ``ConfigurationError`` when no ``cc`` is on PATH and the cache
    has no build of this source, or when the compiler fails (with its
    error output)."""
    # imported here: hashlib maps OpenSSL (~3.5 MB resident), which runs
    # without the solvation term never need
    import hashlib

    source = SOURCE.read_bytes()
    key = hashlib.sha256(source + "\0".join(FLAGS).encode()).hexdigest()
    compiler = shutil.which("cc")
    target = _cache_dir() / f"sasa_kernel-{key[:16]}.so"
    if not target.exists():
        if compiler is None:
            raise ConfigurationError(
                "solvated runs compile the SASA kernel on first use, but no C "
                "compiler `cc` is on PATH")
        _compile(compiler, target)
    try:
        library = ctypes.CDLL(str(target))
    except OSError as exc:
        raise ConfigurationError(f"cannot load the SASA kernel {target}: {exc}") from exc
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(library, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int
    return SasaKernel(library, hashlib.sha256(source).hexdigest(), compiler)


def _compile(compiler: str, target: Path) -> None:
    import subprocess  # only a first build starts a process

    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=target.parent)
        os.close(fd)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write the SASA kernel cache {target.parent}: {exc}") from exc
    try:
        done = subprocess.run([compiler, *FLAGS, "-o", tmp, str(SOURCE)],
                              capture_output=True, text=True)
        if done.returncode != 0:
            raise ConfigurationError(
                f"`cc` ({compiler}) failed to compile {SOURCE.name}:\n{done.stderr}")
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
