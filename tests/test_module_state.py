"""Guard against process-wide mutable state in the engine's modules."""

import importlib
import os
import pkgutil
import subprocess
import sys
from weakref import WeakValueDictionary

import holant
from holant import symfun

# the intern registries that make a function's uid meaningful are the only
# process-wide tables
ALLOWED = (symfun._fn_registry, symfun._bool_registry)


def test_no_module_global_containers_beyond_the_registries():
    modules = [holant] + [importlib.import_module(info.name)
                          for info in pkgutil.iter_modules(holant.__path__, "holant.")]
    found = [
        f"{module.__name__}.{name}"
        for module in modules
        for name, value in vars(module).items()
        if not name.startswith("__")
        and isinstance(value, (dict, set, list, WeakValueDictionary))
        and not any(value is allowed for allowed in ALLOWED)
    ]
    assert found == []


def test_import_holant_leaves_mpmath_unloaded():
    # mpmath is imported where it is used, for gates and real-valued model
    # parameters; a plain import of the engine does not pay for it
    src = os.path.dirname(os.path.dirname(os.path.abspath(holant.__file__)))
    proc = subprocess.run([sys.executable, "-c", "import sys, holant; print('mpmath' in sys.modules)"],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
