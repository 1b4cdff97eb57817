"""The LAPACK routines frontlab calls, from scipy's compiled f2py wrapper.

This module is the one place that decides how LAPACK is reached.  It
loads scipy's extension module ``scipy.linalg._flapack`` by itself,
without running ``scipy/linalg/__init__.py``, and exposes the three
routines the solver and the eigensolver call: ``dgtsv``, ``dpbtrf`` and
``dpbtrs``.  They are the very objects ``scipy.linalg.get_lapack_funcs``
returns for those names at float64, so every result keeps its bits.

Why not ``import scipy.linalg``: that package import, like the
``scipy.special`` one, runs scipy's array-API set-up
(``scipy._lib._array_api``), whose ``clone_module("numpy")`` loads
``numpy.f2py``, ``numpy.testing`` and ``charset_normalizer``.  On a 2-core
x86-64 machine with scipy 1.17, ``import scipy.linalg`` took 0.23-0.29 s
and ``import frontlab.cli`` 0.33-0.48 s, while ``import scipy`` and this
extension module take 13-19 ms together, and ``import frontlab.cli``
0.13-0.19 s.

The module is registered in ``sys.modules`` under its own name, so a
later ``import scipy.linalg`` shares it, and a ``_flapack`` already
loaded by an earlier ``import scipy.linalg`` is reused.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys

import scipy

_NAME = "scipy.linalg._flapack"


def _load_flapack():
    module = sys.modules.get(_NAME)
    if module is not None:
        return module
    spec = importlib.machinery.PathFinder.find_spec(_NAME, [os.path.join(scipy.__path__[0], "linalg")])
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dgtsv = _flapack.dgtsv
dpbtrf = _flapack.dpbtrf
dpbtrs = _flapack.dpbtrs
