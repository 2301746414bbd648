"""SciPy's Hungarian solver, loaded without importing ``scipy.optimize``.

``scipy.optimize.linear_sum_assignment`` is the one function of the compiled
module ``scipy.optimize._lsap``, which needs nothing but numpy. Importing it
through ``scipy.optimize`` first runs that package's ``__init__``, which loads
``scipy.linalg`` and hundreds of other modules (about 0.5 s and 40 MB);
loading the extension file alone takes about a millisecond. Both routes give
the same compiled function, so every assignment is the same.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.optimize._lsap"


def _extension_path(search_dirs) -> str | None:
    """The ``optimize/_lsap`` extension file under one of ``search_dirs``, or None."""
    for d in search_dirs:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(d, "optimize", "_lsap" + suffix)
            if os.path.isfile(path):
                return path
    return None


def load_linear_sum_assignment(search_dirs):
    """``scipy.optimize.linear_sum_assignment``, taken from its extension file
    under the SciPy package directories ``search_dirs``; without such a file,
    imported from ``scipy.optimize``."""
    path = _extension_path(search_dirs)
    if path is None:
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    module = sys.modules.get(_NAME)
    if module is None:
        loader = importlib.machinery.ExtensionFileLoader(_NAME, path)
        module = importlib.util.module_from_spec(importlib.util.spec_from_loader(_NAME, loader))
        loader.exec_module(module)
        # CPython enters a single-phase extension module in sys.modules as it
        # loads it; without that entry, a later `import scipy.optimize` imports
        # the module as its submodule in the usual way.
        sys.modules.pop(_NAME, None)
    return module.linear_sum_assignment


_scipy = importlib.util.find_spec("scipy")
linear_sum_assignment = load_linear_sum_assignment(
    _scipy.submodule_search_locations if _scipy is not None else ())
