"""The compiled scipy routines frontlab calls, loaded without scipy's packages.

This module is the one place that decides how scipy is reached.  It loads
two of scipy's extension modules by themselves, without running the
``__init__.py`` of the package that holds them:

- ``scipy.linalg._flapack``, the f2py LAPACK wrapper, for the three
  routines the solver and the eigensolver call: ``dgtsv``, ``dpbtrf`` and
  ``dpbtrs``.  It loads with this module.
- ``scipy.special._ufuncs``, for ``erf``, which only the
  truncated_gaussian kernel calls.  It loads on the first read of
  ``erf``, when such a kernel is made.

The routines are the very objects ``scipy.linalg.get_lapack_funcs`` and
``scipy.special.erf`` are, so every result keeps its bits.

Why not ``import scipy.linalg`` or ``import scipy.special``: each package
import runs scipy's array-API set-up (``scipy._lib._array_api``), whose
``clone_module("numpy")`` loads ``numpy.f2py``, ``numpy.testing`` and
``charset_normalizer``.  On a 2-core x86-64 machine with Python 3.11,
numpy 2.4 and scipy 1.17:

- ``import scipy.linalg`` took 0.23-0.29 s and ``import frontlab.cli``
  0.33-0.48 s, while ``import scipy`` and ``_flapack`` take 13-19 ms
  together.
- ``python -X importtime -c "import frontlab.cli; from frontlab.kernels
  import make_kernel; make_kernel('truncated_gaussian')"``, medians of 10
  fresh interpreters: with ``erf`` from the ``scipy.special`` package,
  that package was 187 ms cumulative, 137 ms of it in
  ``scipy._lib._array_api`` (``numpy.f2py`` 60 ms, ``numpy.testing``
  19 ms); loaded here, ``_ufuncs``'s four siblings take 2.4 ms together.
  The ``make_kernel`` call itself (``time.perf_counter``) takes 3.8 ms
  against 199 ms.

Each module is registered in ``sys.modules`` under its own name, so a
later package import shares it, and one that an earlier package import
loaded is reused.  ``_ufuncs`` is a Cython module that imports its sibling
extensions (``_ufuncs_cxx``, ``_special_ufuncs``, ``_gufuncs``,
``_ellip_harm_2``) relative to its package; while it loads, and only when
the real ``scipy.special`` is not imported yet, a bare package module whose
``__path__`` is scipy's ``special`` directory stands in for it.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import types

import scipy


def _load(name: str) -> types.ModuleType:
    """The extension module name, scipy.<subpackage>.<module>, loaded from
    scipy's <subpackage> directory without running the subpackage's
    __init__.py.  On any failure neither the stand-in package nor a
    half-initialised name is left in sys.modules."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    package = name.rpartition(".")[0]
    path = os.path.join(scipy.__path__[0], package.rpartition(".")[2])
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
        erf = _load("scipy.special._ufuncs").erf
        return erf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
