"""Loader for the compiled kernel (``_kernel.c``).

The kernel holds the allocation-free loops behind the protocols' hot
paths.  Three fuse hash, compare and count for the OLH support scans
(see :mod:`repro.protocols.hashing`), so counting never materializes a
(reports x items) hash grid.  Three serve the unary encodings (see
:mod:`repro.protocols.unary`): OUE/SUE perturbation and MGA's random
padding, which draw numpy's own random stream through the bit
generator's C interface and so build no float matrix, and the column
counts of a bit matrix.  It is plain C loaded through the standard
library's ``ctypes``; no CPython extension is built.

:func:`load` builds the library on first use with ``gcc`` (or ``cc``)
from ``PATH``, always with ``-O2 -shared -fPIC``, into
``__pycache__/_kernel-<sha12>.so`` beside the source, where the sha
covers the source bytes, the compile argv and the platform.  The build
writes a temporary file and ``os.replace``-s it into place, so concurrent
processes building at once are safe.  The result is memoized per
process.  Without a compiler :func:`load` yields ``None``, and callers
use the numpy references instead, which compute the same arrays and
leave a generator in the same state; a failed build or ``dlopen`` (say,
an unwritable cache directory) does the same after a
:class:`RuntimeWarning` naming the cause.  Nothing here compiles or
loads at import time.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import pathlib
import platform
import shutil
import subprocess
import sys
import tempfile
import warnings
from typing import Any, Callable, Optional

#: The C source of every loop.
SOURCE = pathlib.Path(__file__).with_name("_kernel.c")

#: Where built libraries live: the interpreter's bytecode cache beside
#: the source (ignored by version control like the ``.pyc`` files).
CACHE_DIR = SOURCE.parent / "__pycache__"

#: Compilers tried in order, and the fixed flags (no ``-march=native``,
#: no fast-math: the arithmetic is integer-only and must stay portable).
COMPILERS = ("gcc", "cc")
CFLAGS = ("-O2", "-shared", "-fPIC")

_PTR, _I64, _U64, _F64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint64, ctypes.c_double
_SCAN = (_PTR, _I64, _PTR, _PTR, _I64, _U64, _PTR)

#: Every exported function: ``name -> (restype, argtypes)``.  Pointer
#: arguments are buffer addresses (and, for the unary loops, a bit
#: generator's ``next_double`` and state) that the callers validate.
FUNCTIONS: dict[str, tuple[Any, tuple[Any, ...]]] = {
    # (premix, m, seeds, data, n, g, out)
    "support_scan": (None, _SCAN),
    "target_scan": (None, _SCAN),
    "cohort_fold": (None, _SCAN),
    # (next_double, state, n, d, q, items, p, out)
    "oue_perturb": (None, (_PTR, _PTR, _I64, _I64, _F64, _PTR, _F64, _PTR)),
    # (next_double, state, start, m, d, cols, k, pad, keys, work, out) -> stop row
    "mga_pad": (_I64, (_PTR, _PTR, _I64, _I64, _I64, _PTR, _I64, _I64, _PTR, _PTR, _PTR)),
    # (bits, n, d, out)
    "column_counts": (None, (_PTR, _I64, _I64, _PTR)),
}

_UNSET: Any = object()
_KERNEL: Any = _UNSET


class Kernel:
    """The functions of one loaded library, with the ctypes signatures of
    :data:`FUNCTIONS` set."""

    support_scan: Callable[..., None]
    target_scan: Callable[..., None]
    cohort_fold: Callable[..., None]
    oue_perturb: Callable[..., None]
    mga_pad: Callable[..., int]
    column_counts: Callable[..., None]

    def __init__(self, path: pathlib.Path) -> None:
        lib = ctypes.CDLL(str(path))
        for name, (restype, argtypes) in FUNCTIONS.items():
            fn = getattr(lib, name)
            fn.restype = restype
            fn.argtypes = argtypes
            setattr(self, name, fn)
        self.path = path

    def __repr__(self) -> str:
        return f"Kernel({str(self.path)!r})"


def build(cache_dir: pathlib.Path) -> Optional[pathlib.Path]:
    """Path of the built library in ``cache_dir``, compiling it if absent.

    Returns ``None`` when no compiler is on ``PATH``; raises on a failed
    compile or an unwritable ``cache_dir``.
    """
    compiler = next((c for c in COMPILERS if shutil.which(c)), None)
    if compiler is None:
        return None
    argv = [compiler, *CFLAGS]
    digest = hashlib.sha256(SOURCE.read_bytes())
    digest.update("\0".join([*argv, sys.platform, platform.machine()]).encode())
    target = cache_dir / f"_kernel-{digest.hexdigest()[:12]}.so"
    if target.exists():
        return target
    cache_dir.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=f".{target.name}.", suffix=".tmp", dir=cache_dir)
    os.close(fd)
    try:
        subprocess.run(
            [*argv, "-o", tmp, str(SOURCE)],
            check=True, capture_output=True, text=True, timeout=120,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def load() -> Optional[Kernel]:
    """The process's kernel, built and loaded on the first call only.

    ``None`` when it cannot be had: the callers' numpy path runs instead.
    """
    global _KERNEL
    if _KERNEL is _UNSET:
        _KERNEL = _open(CACHE_DIR)
    return _KERNEL


def _open(cache_dir: pathlib.Path) -> Optional[Kernel]:
    try:
        path = build(cache_dir)
        return None if path is None else Kernel(path)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or ""
        warnings.warn(
            f"compiled kernel unavailable, using the numpy references: {exc!r} {detail}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
