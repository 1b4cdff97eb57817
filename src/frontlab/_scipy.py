"""The compiled scipy routines frontlab calls, loaded without scipy's packages.

This module is the one place that decides how scipy is reached.  It finds
scipy's directory with ``importlib.util.find_spec("scipy")``, which runs no
``__init__.py``, and loads two of scipy's extension modules from it by
themselves, without running the ``__init__.py`` of scipy or of the
subpackage that holds them:

- ``scipy.linalg._flapack``, the f2py LAPACK wrapper, for the three
  routines the solver and the eigensolver call: ``dgtsv``, ``dpbtrf`` and
  ``dpbtrs``.  It loads with this module.
- ``scipy.special._special_ufuncs``, the extension that defines ``erf``,
  which only the truncated_gaussian kernel calls.  It loads on the first
  read of ``erf``, when such a kernel is made.

The routines are the very objects ``scipy.linalg.get_lapack_funcs`` and
``scipy.special.erf`` are, so every result keeps its bits.

Why not ``import scipy.linalg`` or ``import scipy.special``: each package
import runs scipy's array-API set-up (``scipy._lib._array_api``), whose
``clone_module("numpy")`` loads ``numpy.f2py``, ``numpy.testing`` and
``charset_normalizer``.  On a 2-core x86-64 machine with Python 3.11,
numpy 2.4 and scipy 1.17:

- ``import scipy.linalg`` took 0.23-0.29 s and ``import frontlab.cli``
  0.33-0.48 s.
- With ``erf`` from the ``scipy.special`` package, that package was
  187 ms cumulative under ``python -X importtime``, 137 ms of it in
  ``scipy._lib._array_api`` (medians of 10 fresh interpreters).
- ``import scipy`` itself, which ``_flapack`` and ``_special_ufuncs`` do
  not need, takes about 14 ms and 0.9 MiB of RSS.  Reading ``erf`` from
  ``scipy.special._ufuncs``, which re-exports it and loads four sibling
  extensions, took 4.2 ms and 2.4 MiB, against 1.3 ms and 1.1 MiB from
  ``_special_ufuncs`` alone (medians of 15 fresh interpreters).  Without
  both, ``import frontlab.cli`` went from 0.18 to 0.15 s and a Gaussian
  kernel's process from 35.6 to 33.0 MiB of peak RSS (medians of 20
  alternating fresh-interpreter pairs).

Each module is registered in ``sys.modules`` under its own name, so a
later package import shares it, and one that an earlier package import
loaded is reused.  While one loads, and only when its package is not
imported yet, a bare package module whose ``__path__`` is the package's
directory stands in for it.

A scipy without ``_special_ufuncs``, or whose ``_special_ufuncs`` has no
``erf`` (the project allows scipy >= 1.10), gets ``erf`` from
``scipy.special._ufuncs`` after ``import scipy``.  ``_ufuncs`` is a Cython
module that imports its sibling extensions relative to the stand-in
package.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import types

_spec = importlib.util.find_spec("scipy")
if _spec is None:
    raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
_root = _spec.submodule_search_locations[0]


def _load(name: str) -> types.ModuleType:
    """The extension module name, scipy.<subpackage>.<module>, loaded from
    scipy's <subpackage> directory without running the subpackage's
    __init__.py.  On any failure neither the stand-in package nor a
    half-initialised name is left in sys.modules."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0]
    path = os.path.join(_root, package.rpartition(".")[2])
    stand_in = package not in sys.modules
    if stand_in:
        sys.modules[package] = types.ModuleType(package)
        sys.modules[package].__path__ = [path]
    try:
        spec = importlib.machinery.PathFinder.find_spec(name, [path])
        if spec is None:
            raise ModuleNotFoundError(f"no module named {name!r} in {path}", name=name)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    except BaseException:
        sys.modules.pop(name, None)
        raise
    finally:
        if stand_in:
            del sys.modules[package]
    return module


_flapack = _load("scipy.linalg._flapack")
dgtsv = _flapack.dgtsv
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs


def __getattr__(name: str):
    # erf is bound on its first read, so later reads skip this hook
    if name == "erf":
        global erf
        try:
            erf = _load("scipy.special._special_ufuncs").erf
        except (ModuleNotFoundError, AttributeError):
            # a scipy whose erf lives in _ufuncs: load that after scipy's own
            # __init__, as the scipy.special package would
            import scipy  # noqa: F401

            erf = _load("scipy.special._ufuncs").erf
        return erf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
