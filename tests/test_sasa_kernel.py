"""The native library loader (``kinefold.native``): one build of every C
source (the link passes of ``links.c``, the pair stages of ``pairs.c``
and the SASA passes of ``sasa.c``), cached and loaded with checked
signatures."""

import ctypes
import fnmatch
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kinefold import native
from kinefold.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache under ``tmp_path`` and no library loaded yet
    in this process; later tests load the regular cache again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    native.load.cache_clear()
    yield tmp_path / "kinefold"
    native.load.cache_clear()


def test_second_load_does_not_compile(fresh_cache, monkeypatch):
    first = native.load()
    built = sorted(fresh_cache.iterdir())
    assert [path.suffix for path in built] == [".so", ".src"]
    assert built[1].read_bytes() == first.sources == native.source_bytes()
    native.load.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler invoked: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    again = native.load()
    assert sorted(fresh_cache.iterdir()) == built
    assert again.sources == first.sources


def test_changed_copy_of_the_sources_rebuilds(fresh_cache):
    """A library whose cached copy of the sources differs from the current
    sources (a CRC collision) is rebuilt, not loaded."""
    native.load()
    copy = next(fresh_cache.glob("*.src"))
    copy.write_bytes(b"other sources")
    native.load.cache_clear()
    native.load()
    assert copy.read_bytes() == native.source_bytes()


def test_missing_compiler_names_cc(fresh_cache, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(ConfigurationError, match="`cc`"):
        native.load()


def test_failing_compile_carries_compiler_output(fresh_cache, tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("#error kinefold native source is broken\n")
    monkeypatch.setattr(native, "SOURCES", (broken,))
    with pytest.raises(ConfigurationError, match="native source is broken"):
        native.load()
    assert not any(fresh_cache.iterdir())  # no partial library left behind


def test_wrong_dtype_is_refused():
    """The declared argument types reject a float32 array instead of
    reading its bytes as float64."""
    lib = native.load()
    f64 = np.zeros(3)
    i64 = np.zeros(2, np.int64)
    with pytest.raises(ctypes.ArgumentError):
        lib.call("exposure", 1, np.zeros((1, 3), np.float32), f64, i64, i64[:0],
                 np.zeros((12, 3)), 12, 2, np.zeros((1, 12), np.uint8),
                 np.zeros(1, np.int64))
    with pytest.raises(ctypes.ArgumentError):
        lib.call("grid_cells", 1, np.zeros((1, 3))[:, ::2], 1.0, 1e5,
                 np.empty(3, np.int64), np.empty(1, np.int64), np.empty((2, 2), np.int64))


def test_package_data_ships_the_kernel_source():
    """``pip install .`` copies the files the package-data globs match:
    every C source the library is built from."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["kinefold"]
    names = sorted(path.name for path in native.SOURCES)
    assert names == ["links.c", "pairs.c", "sasa.c"]
    for name in names:
        assert any(fnmatch.fnmatch(name, g) for g in globs), name
    assert {path.parent for path in native.SOURCES} == {ROOT / "src" / "kinefold"}


def test_field_path_leaves_hashlib_unloaded():
    """Building and evaluating a field loads the library without importing
    ``hashlib``, which maps OpenSSL (about 3.5 MB resident) into the run."""
    script = (
        "import sys\n"
        "from kinefold import chain, kcm, pdbio, topology\n"
        "p = pdbio.load_params()\n"
        "ch = chain.build_chain(['ALA', 'GLY'])\n"
        "f = kcm.Field(p.resolve(ch), topology.TreeWeights(topology.build_tree(ch), p.weights))\n"
        "f.evaluate(chain.forward_kinematics(ch, ch.conf_zp()))\n"
        "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
