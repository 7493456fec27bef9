"""Build, cache and load the package's one native library.

Every C source next to this file goes into it: ``links.c``, the
per-link passes of the folding loop (forward kinematics, link wrenches,
joint torques), ``pairs.c``, the pair stages of ``Field.evaluate`` (grid,
neighbor table, cut-off pairs, pair weights, elec and vdW terms, force
scatter), and ``sasa.c``, the two SASA passes and the cavity rows they
read (``spatial.filtered_lists``: the reach test and the symmetric rows
in one pass).  They are compiled on first use with the system ``cc`` and
fixed flags (no ``-march``, no fast-math, no contraction into fused
multiply-adds).  Against their numpy references in ``tests/oracles.py``,
the grid, table, cut-off pairs, classes, cavity rows, SASA states, areas
and forces, and wrenches are bitwise equal;
the pair terms, the scatter and the link passes keep a fixed C order,
within stated tolerances.  ``sasa.c``
uses GCC/Clang vector extensions (``vector_size(16)`` double pairs),
which the baseline instruction sets carry: SSE2 on x86-64, NEON on
aarch64; the flags never name a ``-march``.  Every
function starts on a 64-byte line, so an edit to one entry point does
not move another's loops across cache lines and fetch windows: at the
default 16 bytes, rewriting the neighbor table moved the unchanged SASA
exposure kernel by 560 bytes and made it 4-10% slower (interleaved calls
in one process, 2-vCPU Xeon host), and at 64 bytes neither build was
slower than the other.  The library
is cached under ``$XDG_CACHE_HOME/kinefold/`` (default
``~/.cache/kinefold/``) as
``native-<key>.so``, keyed by the CRC-32 of the sources and the flags,
next to ``native-<key>.src``, a copy of the sources it was built from.
It is loaded only when that copy equals the current sources byte for
byte, so a CRC collision rebuilds instead of loading other code.  Both
files are written to temporary files and moved into place, the library
first, so concurrent first runs never load a partial or mismatched
build.  The key is a CRC (``zlib``) and not a hash from ``hashlib``,
which maps OpenSSL (about 3.5 MB resident) into every run; the run
manifest's sha256 of the sources is computed by the CLI.

The library is loaded with ``ctypes``, and every entry point is declared
once in ``_SIGNATURES``.  An array argument must be a C-contiguous numpy
array of the declared dtype (and writeable for an output).  Arrays take
that form once, where they are built: ``AtomParams``, ``LinkArrays``,
``Chain``, ``Conformation``, ``TreeWeights``, ``NeighborTable`` and
``SampleSphere`` convert theirs, the stages write their outputs in it,
and ``kcm.Field.evaluate`` converts the caller's positions.  Anything
else (float32, strided, a list) is refused, never copied: ``from_param``
raises ``TypeError``, which ``ctypes`` reports as ``ArgumentError``.
"""

from __future__ import annotations

import ctypes
import functools
import os
import shutil
import tempfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError

SOURCES = tuple(sorted(Path(__file__).parent.glob("*.c")))
FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-falign-functions=64")
LIBS = ("-lm",)

# status codes the entry points return besides counts (see links.c, pairs.c, sasa.c)
NO_MEMORY, REFUSED, WIDE = -1, -2, -3


def _array(dtype, writeable=False):
    dtype = np.dtype(dtype)
    byref, from_buffer = ctypes.byref, ctypes.c_char.from_buffer

    class Array:
        @classmethod
        def from_param(cls, a):
            if not (type(a) is np.ndarray and a.dtype == dtype and a.flags.c_contiguous):
                raise TypeError(f"expected a C-contiguous {dtype} array, got "
                                f"{type(a).__name__} {getattr(a, 'dtype', '')}")
            if a.flags.writeable and a.nbytes:
                return byref(from_buffer(a))  # the quickest way to the address
            if writeable and a.nbytes:
                raise TypeError("expected a writeable array")
            return ctypes.c_void_p(a.ctypes.data)

    return Array


_F64, _I64, _U8 = (_array(t) for t in (np.float64, np.int64, np.uint8))
_F64_OUT, _I64_OUT = _array(np.float64, True), _array(np.int64, True)
_INT, _DBL = ctypes.c_int64, ctypes.c_double
_SIGNATURES = {
    # n_links, parent, theta (link l turns by theta[l - 1]), axis0, body0, n,
    # owner, offsets -> transforms, joint points, axes, positions
    "forward_links": [_INT, _I64, _F64, _F64, _F64, _INT, _I64, _F64,
                      _F64_OUT, _F64_OUT, _F64_OUT, _F64_OUT],
    # n_links, n, owner, positions, forces -> wrenches (n_links x 6)
    "link_wrenches": [_INT, _INT, _I64, _F64, _F64, _F64_OUT],
    # n_links, parent, wrenches, axes, joint points -> tau (link l's at l - 1)
    "joint_torques": [_INT, _I64, _F64, _F64, _F64, _F64_OUT],
    # n, positions, edge, max_span -> dims, order, cells (2 x (n + 1): the
    # occupied ids and the k + 1 CSR starts)
    "grid_cells": [_INT, _F64, _DBL, _DBL, _I64_OUT, _I64_OUT, _I64_OUT],
    # n, dims, order, occupied, starts (k + 1), k -> offsets, neighbors, capacity,
    # unions (scratch), union capacity, union size
    "neighbor_table": [_INT, _I64, _I64, _I64, _I64, _INT, _I64_OUT, _I64_OUT,
                       _INT, _I64_OUT, _INT, ctypes.POINTER(ctypes.c_int64)],
    # n, positions, offsets, neighbors, m, cut2 -> ij (2 x m), dd (2 x m), closest
    "cutoff_pairs": [_INT, _F64, _I64, _I64, _INT, _DBL, _I64_OUT, _F64_OUT,
                     ctypes.POINTER(ctypes.c_int64)],
    # m, i, j, n, parent, span (pairs farther apart in index are full),
    # by_class -> w (m x 2)
    "pair_weights": [_INT, _I64, _I64, _INT, _I64, _INT, _F64, _F64_OUT],
    # m, i, j, d2, d, w, n, q, Coulomb constant, kappa, r2, cut -> out (2 x m)
    "elec_terms": [_INT, _I64, _I64, _F64, _F64, _F64, _INT, _F64, _DBL, _DBL, _DBL,
                   _DBL, _F64_OUT],
    # m, i, j, d2, d, w, n, R, eps, r2, cut -> out (2 x m)
    "vdw_terms": [_INT, _I64, _I64, _F64, _F64, _F64, _INT, _F64, _F64, _DBL, _DBL,
                  _F64_OUT],
    # n, positions, m, i, j, d, mag -> forces (n x 3)
    "scatter_forces": [_INT, _F64, _INT, _I64, _I64, _F64, _F64, _F64_OUT],
    # n, positions, r_off, offsets, neighbors, k, atoms (the k counted,
    # ascending: every atom, or those of nonzero gamma; the others still
    # occlude as neighbors), points, nq, need -> counts (clamped at need;
    # need in the rows of atoms not counted), covered (nq there)
    "exposure": [_INT, _F64, _F64, _I64, _I64, _INT, _I64, _F64, _INT, _INT,
                 _array(np.uint8, True), _I64_OUT],
    # n, positions, r_off, offsets, neighbors, points, nq, counts, w_int,
    # delta_r -> acc; only rows of nonzero weight are read; a count-1
    # sample's one coverer is found in its row
    "force_events": [_INT, _F64, _F64, _I64, _I64, _F64, _INT, _U8, _I64, _DBL,
                     _I64_OUT],
    # n, m, i, j, d2, r_off, delta_r, reach slack -> offsets (n + 1), neighbors
    # (room for 2 m); the pairs within reach as symmetric rows
    "cavity_rows": [_INT, _INT, _I64, _I64, _F64, _F64, _DBL, _DBL, _I64_OUT, _I64_OUT],
}


@dataclass(frozen=True)
class Native:
    """The loaded library, and what a run manifest records of it."""

    library: ctypes.CDLL
    sources: bytes          # the sources it was built from (``source_bytes``)
    compiler: str | None    # the ``cc`` on PATH at load time

    def call(self, name: str, *args) -> int:
        """Runs entry point ``name``; returns its count or status code,
        raising ``MemoryError`` when it could not allocate its buffers."""
        status = getattr(self.library, name)(*args)
        if status == NO_MEMORY:
            raise MemoryError(f"the native {name} pass could not allocate its buffers")
        return status


def source_bytes() -> bytes:
    """Every source, with its name and length, in one byte string."""
    parts = []
    for path in SOURCES:
        data = path.read_bytes()
        parts.append(b"%s\0%d\0%s" % (path.name.encode(), len(data), data))
    return b"".join(parts)


def _cache_dir() -> Path:
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base) if os.path.isabs(base) else Path.home() / ".cache"
    return root / "kinefold"


@functools.cache
def load() -> Native:
    """The library, compiled into the cache first when it is not there.

    Raises ``ConfigurationError`` when no ``cc`` is on PATH and the cache
    has no build of these sources, or when the compiler fails (with its
    error output)."""
    sources = source_bytes()
    compiler = shutil.which("cc")
    key = zlib.crc32(sources + "\0".join(FLAGS + LIBS).encode())
    target = _cache_dir() / f"native-{key:08x}.so"
    copy = target.with_suffix(".src")
    if not (target.is_file() and copy.is_file() and copy.read_bytes() == sources):
        if compiler is None:
            raise ConfigurationError(
                "kinefold compiles its native library on first use, but no C "
                "compiler `cc` is on PATH")
        _compile(compiler, target, copy, sources)
    try:
        library = ctypes.CDLL(str(target))
    except OSError as exc:
        raise ConfigurationError(f"cannot load the native library {target}: {exc}") from exc
    for name, argtypes in _SIGNATURES.items():
        fn = getattr(library, name)
        fn.argtypes = argtypes
        fn.restype = ctypes.c_int64
    return Native(library, sources, compiler)


def _compile(compiler: str, target: Path, copy: Path, sources: bytes) -> None:
    import subprocess  # only a first build starts a process

    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        temps = []
        for suffix in (".so", ".src"):
            fd, tmp = tempfile.mkstemp(suffix=suffix, dir=target.parent)
            os.close(fd)
            temps.append(tmp)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot write the native library cache {target.parent}: {exc}") from exc
    try:
        done = subprocess.run([compiler, *FLAGS, "-o", temps[0], *map(str, SOURCES), *LIBS],
                              capture_output=True, text=True)
        if done.returncode != 0:
            names = ", ".join(path.name for path in SOURCES)
            raise ConfigurationError(
                f"`cc` ({compiler}) failed to compile {names}:\n{done.stderr}")
        Path(temps[1]).write_bytes(sources)
        os.replace(temps[0], target)
        os.replace(temps[1], copy)
    finally:
        for tmp in temps:
            if os.path.exists(tmp):
                os.unlink(tmp)
