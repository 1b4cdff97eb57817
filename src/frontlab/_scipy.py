"""The compiled scipy routines frontlab calls, loaded without scipy's packages.

This module is the one place that decides how scipy is reached.  It finds
scipy's directory with ``importlib.util.find_spec("scipy")``, which runs no
``__init__.py``, and loads two of scipy's extension modules from it by
themselves, without running the ``__init__.py`` of scipy or of the
subpackage that holds them:

- ``scipy.linalg._flapack``, the f2py LAPACK wrapper, for the three
  routines the solver and the eigensolver call: ``dgtsv``, ``dpbtrf`` and
  ``dpbtrs``.  It loads with this module, on a one-thread OpenBLAS (below).
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

A module loaded here is not left in ``sys.modules``: a later
``import scipy.linalg`` or ``import scipy.special`` loads the module
itself and binds it on its package.  Both are single-phase extension
modules, so that second module is built from the first one's cached
dict and holds the same routine objects.  One that an earlier package
import loaded is reused from ``sys.modules``.

``_flapack`` loads with ``OPENBLAS_NUM_THREADS=1`` in ``os.environ``, and
the variable is then put back as it was: set to its old value, or unset.
scipy's wheel links its own OpenBLAS, apart from numpy's.  That library
reads the variable once, when it loads, and ranks it above
``GOTO_NUM_THREADS`` and ``OMP_NUM_THREADS``, so it starts with one
thread and no worker.  Given 2 threads (the default on a 2-core
machine), it started a worker thread that spins while it waits for work,
on the cores the import runs on.  Timed inside fresh interpreters on a
2-core machine, importing numpy and this module took 76-87 ms in 17 of 72
runs and about 60 ms in the rest; with the one-thread load, 1 run of 72
took 84 ms.  The band solves are no slower on one thread, and faster on
wide bands: at n = 16001 (kd = 80), ``lambda_p`` at length 200 takes
21 ms against 36-41 ms on 2 threads.  Their results have the same bits
on either pool.

The setting is process-wide: a later ``import scipy.linalg`` uses the
library already loaded, with its one thread.  Left as they are: numpy's
OpenBLAS, a scipy OpenBLAS loaded before this module (so a caller who
imports ``scipy.linalg`` first keeps scipy's pool), an OpenBLAS that
numpy and scipy share, and any other vendor's BLAS.

A scipy without ``_special_ufuncs``, or whose ``_special_ufuncs`` has no
``erf`` (the project allows scipy >= 1.10), gets ``erf`` from the
``scipy.special`` package and pays that package's import.
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
    """The extension module name, scipy.<subpackage>.<module>: the one in
    sys.modules, or else one loaded from scipy's <subpackage> directory
    without running any __init__.py and not left in sys.modules."""
    module = sys.modules.get(name)
    if module is not None:
        return module
    path = os.path.join(_root, name.split(".")[1])
    spec = importlib.machinery.PathFinder.find_spec(name, [path])
    if spec is None:
        raise ModuleNotFoundError(f"no module named {name!r} in {path}", name=name)
    # creating a single-phase extension module registers it in sys.modules
    try:
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(name, None)
    return module


def _load_one_thread(name: str) -> types.ModuleType:
    """_load(name) with OPENBLAS_NUM_THREADS=1 in the environment, which is
    then put back as it was: set to its old value, or unset."""
    old = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        return _load(name)
    finally:
        if old is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = old


_flapack = _load_one_thread("scipy.linalg._flapack")
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
            from scipy.special import erf
        return erf
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
