"""The three LAPACK routines dasf calls, taken from SciPy's compiled
``scipy/linalg/_flapack`` extension without importing the ``scipy.linalg``
package, whose array-API set-up imports ``numpy.f2py`` and ``numpy.testing``.
CPython initialises that extension once per process, so these are the very
objects ``scipy.linalg.lapack`` exports, whichever package is imported first."""

import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

import scipy

_NAME = "scipy.linalg._flapack"
_DIR = Path(scipy.__file__).parent / "linalg"
_path = next((p for p in (_DIR / f"_flapack{s}" for s in EXTENSION_SUFFIXES) if p.is_file()), None)
if _path is None:
    raise ImportError(f"no compiled LAPACK extension _flapack in {_DIR}")
_spec = spec_from_file_location(_NAME, _path, loader=ExtensionFileLoader(_NAME, str(_path)))
_loaded = _NAME in sys.modules      # CPython enters a single-phase extension there itself
_flapack = module_from_spec(_spec)
_spec.loader.exec_module(_flapack)
if not _loaded:
    sys.modules.pop(_NAME, None)
dgesvd, dgesv, dpotrf = _flapack.dgesvd, _flapack.dgesv, _flapack.dpotrf
