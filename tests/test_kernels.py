"""Both closure kernels agree with each other and with the set oracle."""

import importlib.util
import os
import random
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

from semideal import _kernels
from semideal._kernels import backend_name, closure_py
from oracles import closure_members

try:
    from semideal._kernels import _closure

    HAVE_C = True
except ImportError:
    HAVE_C = False


def mask_from_set(members, limit):
    r = 0
    for m in members:
        if m <= limit:
            r |= 1 << m
    return r


STRUCTURED = [
    ((1,), 10),
    ((2,), 11),
    ((2, 3), 25),
    ((3, 4, 5), 30),
    ((4, 6, 9), 40),
    ((6, 10, 15), 60),
    ((7,), 0),
    ((5, 8), 100),
]


def test_pure_matches_oracle():
    for gens, limit in STRUCTURED:
        assert closure_py.additive_closure(gens, limit) == mask_from_set(
            closure_members(gens, limit), limit
        )


def test_pure_matches_oracle_random():
    rng = random.Random(20260815)
    for _ in range(200):
        k = rng.randint(1, 4)
        gens = tuple(rng.randint(1, 30) for _ in range(k))
        limit = rng.randint(0, 120)
        assert closure_py.additive_closure(gens, limit) == mask_from_set(
            closure_members(gens, limit), limit
        )


@pytest.fixture(scope="module")
def compiled(tmp_path_factory):
    """The compiled kernel: the installed one, else one built from the
    committed C source with the system compiler; skips when neither exists."""
    if HAVE_C:
        return _closure
    source = Path(_kernels.__file__).with_name("_closure.c")
    include = sysconfig.get_paths()["include"]
    cc = shutil.which("cc")
    if not (cc and source.exists() and Path(include, "Python.h").exists()):
        pytest.skip("no compiled kernel")
    out = tmp_path_factory.mktemp("kernel") / ("_closure" + sysconfig.get_config_var("EXT_SUFFIX"))
    build = subprocess.run(
        [cc, "-shared", "-fPIC", "-O1", f"-I{include}", str(source), "-o", str(out)],
        capture_output=True,
        text=True,
    )
    if build.returncode:
        pytest.skip(f"no compiled kernel: {build.stderr.strip()[:200]}")
    spec = importlib.util.spec_from_file_location("_closure", out)
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    except ImportError as exc:
        pytest.skip(f"no compiled kernel: {exc}")
    return module


def test_compiled_matches_pure(compiled):
    rng = random.Random(7)
    for _ in range(300):
        k = rng.randint(1, 5)
        gens = tuple(rng.randint(1, 50) for _ in range(k))
        limit = rng.randint(0, 400)
        assert compiled.additive_closure(gens, limit) == closure_py.additive_closure(
            gens, limit
        )
    for gens, limit in STRUCTURED:
        assert compiled.additive_closure(gens, limit) == closure_py.additive_closure(
            gens, limit
        )


def test_rejects_bad_input():
    for fn in [closure_py.additive_closure] + ([_closure.additive_closure] if HAVE_C else []):
        try:
            fn((0,), 5)
            raise AssertionError("zero generator accepted")
        except ValueError:
            pass
        try:
            fn((3,), -1)
            raise AssertionError("negative limit accepted")
        except ValueError:
            pass


def test_duplicate_generators_collapse():
    assert closure_py.additive_closure((3, 3, 3), 10) == closure_py.additive_closure(
        (3,), 10
    )


def test_env_var_forces_pure_backend():
    env = dict(os.environ, SEMIDEAL_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", "from semideal._kernels import backend_name; print(backend_name())"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "pure"


def test_backend_name_valid():
    assert backend_name() in ("pure", "cython")
