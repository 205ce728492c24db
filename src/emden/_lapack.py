"""The three LAPACK routines the package calls, scipy's own, without importing
scipy.linalg.

dgetrf and dgetrs solve the Newton systems and dstevd gives the Jacobi
eigenvalues the nodes start from. All three live in one extension file,
scipy/linalg/_flapack<suffix>. Importing scipy.linalg to reach it costs most
of a CLI process's start-up, in modules the package never uses (numpy.f2py,
numpy.testing, numpy.random and numpy.ma, through scipy's array-API shim).
So the file is found through the import system's spec for scipy, which
imports nothing, and loaded under a private module name. The routines are the
same compiled code that scipy.linalg.lapack exports, so every result keeps
its bits. If scipy.linalg has loaded the file already, its module is reused.
If the file is missing or fails to load (another scipy layout), the routines
come from scipy.linalg.lapack: same bits, slower start-up.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

# An extension's init function is named after the last part of its module
# name, so the private name must end in the file's own name.
_PRIVATE_NAME = "emden._flapack"


def _load_flapack():
    """scipy's _flapack module, or None where no loadable file is found."""
    loaded = sys.modules.get("scipy.linalg._flapack")
    if loaded is not None:
        return loaded
    scipy = importlib.util.find_spec("scipy")
    for directory in scipy.submodule_search_locations if scipy is not None else []:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "linalg", "_flapack" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(_PRIVATE_NAME, path)
            spec = importlib.util.spec_from_file_location(_PRIVATE_NAME, path, loader=loader)
            try:
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
            except (ImportError, OSError):
                return None
            sys.modules[_PRIVATE_NAME] = module
            return module
    return None


_flapack = _load_flapack()
if _flapack is not None:
    dgetrf, dgetrs, dstevd = _flapack.dgetrf, _flapack.dgetrs, _flapack.dstevd
else:
    from scipy.linalg.lapack import dgetrf, dgetrs, dstevd
