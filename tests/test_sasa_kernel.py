import ctypes
import fnmatch
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest

from kinefold import sasa_kernel
from kinefold.errors import ConfigurationError

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache under ``tmp_path`` and no kernel loaded yet in
    this process; later tests load the regular cache again."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    sasa_kernel.load.cache_clear()
    yield tmp_path / "kinefold"
    sasa_kernel.load.cache_clear()


def test_second_load_does_not_compile(fresh_cache, monkeypatch):
    first = sasa_kernel.load()
    built = sorted(fresh_cache.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    sasa_kernel.load.cache_clear()

    def no_compiler(*args, **kwargs):
        raise AssertionError(f"compiler invoked: {args}")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    again = sasa_kernel.load()
    assert sorted(fresh_cache.iterdir()) == built
    assert again.source_sha256 == first.source_sha256


def test_missing_compiler_names_cc(fresh_cache, monkeypatch):
    monkeypatch.setattr(shutil, "which", lambda name: None)
    with pytest.raises(ConfigurationError, match="`cc`"):
        sasa_kernel.load()


def test_failing_compile_carries_compiler_output(fresh_cache, tmp_path, monkeypatch):
    broken = tmp_path / "broken.c"
    broken.write_text("#error kinefold kernel source is broken\n")
    monkeypatch.setattr(sasa_kernel, "SOURCE", broken)
    with pytest.raises(ConfigurationError, match="kernel source is broken"):
        sasa_kernel.load()
    assert not any(fresh_cache.iterdir())  # no partial library left behind


def test_wrong_dtype_is_refused():
    """The declared argument types reject a float32 array instead of
    reading its bytes as float64."""
    kernel = sasa_kernel.load()
    f64 = np.zeros(3)
    i64 = np.zeros(2, np.int64)
    with pytest.raises(ctypes.ArgumentError):
        kernel.exposure(0, 1, np.zeros((1, 3), np.float32), f64, f64, i64, i64[:0],
                        np.zeros((12, 3)), 12, np.zeros((1, 12), np.uint8),
                        np.zeros((1, 12), np.int32), np.zeros(1, np.int64))


def test_package_data_ships_the_kernel_source():
    """``pip install .`` copies the files the package-data globs match."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    globs = config["tool"]["setuptools"]["package-data"]["kinefold"]
    assert any(fnmatch.fnmatch(sasa_kernel.SOURCE.name, g) for g in globs)
    assert sasa_kernel.SOURCE.parent == ROOT / "src" / "kinefold"
