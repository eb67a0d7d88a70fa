import ast
import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import murmurations

MODULES = sorted(m.name for m in pkgutil.iter_modules(murmurations.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"murmurations.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing


def test_package_imports_are_exported():
    # every name the package re-exports is public in its module
    tree = ast.parse(Path(murmurations.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"murmurations.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(murmurations, alias.asname or alias.name) is getattr(module, alias.name)


# runs in a fresh interpreter: this test process has already loaded
# scipy.special (tests/test_window.py imports kv)
_LAZY_SCIPY = """
import sys
sys.path.insert(0, sys.argv[1])
from fractions import Fraction
import murmurations, murmurations.cli
print(sorted(m for m in ("scipy.special", "scipy.fft") if m in sys.modules))
murmurations.nu_fourier(murmurations.Interval(Fraction(1, 4), Fraction(4)), 16,
                        murmurations.build_factor_sieve(16))
print("scipy.special" in sys.modules)
"""


def test_import_leaves_scipy_special_and_fft_unloaded():
    # only the Fourier form of nu loads scipy.special, and only hat_grid scipy.fft
    src = str(Path(murmurations.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _LAZY_SCIPY, src], capture_output=True, text=True,
                         check=True, timeout=120)
    assert run.stdout.split("\n")[:2] == ["[]", "True"]
