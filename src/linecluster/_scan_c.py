"""Compiled triple-scan kernel and ``similarity.csv`` encoder: ``_scan.c`` built
on first use, loaded through ctypes.

The C source ships with the package. ``CompiledKernel.ready(build_missing=True)``
compiles it once per machine with
``cc -O3 -ffp-contract=off -fno-math-errno -fPIC -shared``
into ``$XDG_CACHE_HOME/linecluster/`` (default ``~/.cache/linecluster/``).
The file name carries a hash of the source, the flags and the platform, so
an edited source or another machine never loads a stale library. The build
writes a temp file in the cache directory and ``os.replace``s it into place,
so processes building at the same time need no lock: each rename installs a
complete library. ``hypergraph.scan`` alone decides, per scan and from n,
whether to build or run this kernel or the numpy fallback; no option or
environment variable picks a kernel.

The kernel decides most triples with a filter that computes no score: the
sign of a polynomial in the triple's coordinate differences, with neither a
divide nor a square root, evaluated in float32 on float copies of the
differences and accepted only where it clears an error band proven in
``_scan.c``. The few triples inside the band, and those outside the float32
domain stated there, go to an exact path that repeats
``tls._triple_scores`` in double, operation for operation, so the accepted
triples, and W, stay bit-identical to the numpy fallback's. The kernel takes
no labels and keeps no tallies: it only adds accepted triples into W. The
filter loop has no branches, so gcc vectorizes it, eight triples to an AVX2
vector; every SIMD lane does the same correctly rounded IEEE operations on
its own triple, FP contraction stays off and no ``-ffast-math`` is used;
only the integer row sums are added in another order, which is exact.
``-fno-math-errno`` only drops ``sqrt``'s errno branch, whose argument, a
sum of squares, is never negative.
On x86-64 glibc the source marks the kernel ``target_clones("avx2",
"default")``: one library holds an AVX2 body and a baseline one, both
vectorized, and the dynamic loader picks one by cpuid. ``-march=native``
is not used because the library's name does not depend on the CPU, so a
cache shared between hosts could hand a CPU instructions it lacks. The kernel
runs without the GIL (ctypes releases it), so ``hypergraph.scan`` runs
disjoint outer-index ranges on several threads, at most one per CPU, each
into a private buffer (see ``hypergraph``).

The same library exports ``encode_upper_csv``, which renders rows of
``similarity.csv`` into a caller's buffer; ``io.write_similarity_csv`` runs
it only when the library is already loaded or cached, so a write never
starts a compiler.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import sysconfig
import tempfile
import warnings
from pathlib import Path

import numpy as np

_SOURCE = Path(__file__).with_name("_scan.c")
_FLAGS = ("-O3", "-ffp-contract=off", "-fno-math-errno", "-fPIC", "-shared")

FALLBACK_WARNING = "compiled scan kernel not available; falling back to the slower numpy backend"

_PTR = ctypes.c_void_p
_ARGTYPES = [_PTR, _PTR, ctypes.c_int64, ctypes.c_double, ctypes.c_int64, ctypes.c_int64, _PTR]
_ENCODE_ARGTYPES = [_PTR, ctypes.c_int64, ctypes.c_int64, _PTR, ctypes.c_int64, _PTR]


def cache_dir() -> Path:
    """``$XDG_CACHE_HOME/linecluster``, or ``~/.cache/linecluster``."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "linecluster"


@functools.cache
def library_name() -> str:
    """File name of the built kernel: a hash of the source, the flags and the platform."""
    tag = hashlib.sha256(_SOURCE.read_bytes())
    tag.update(" ".join(_FLAGS).encode())
    tag.update(sysconfig.get_platform().encode())
    return f"_scan-{tag.hexdigest()[:16]}.so"


def build(target: Path) -> None:
    """Compile ``_scan.c`` to ``target`` through a temp file and an atomic rename.

    Raises ``OSError`` when there is no ``cc`` or the directory is not
    writable, and ``subprocess.CalledProcessError`` when the compiler fails.
    """
    cc = shutil.which("cc")
    if cc is None:
        raise FileNotFoundError("no C compiler ('cc') on PATH")
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=target.name + ".", suffix=".tmp", dir=target.parent)
    os.close(fd)
    try:
        subprocess.run([cc, *_FLAGS, "-o", tmp, str(_SOURCE)], check=True, capture_output=True)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


class CompiledKernel:
    """The C library of one cache directory, built at most once and loaded at most once.

    ``directory`` defaults to ``cache_dir()`` as it reads when the kernel is
    first needed. A failed build or load warns once and is not retried.
    """

    def __init__(self, directory: Path | None = None) -> None:
        self._directory = directory
        self._fn = None
        self._encode = None
        self._failed = False

    @property
    def path(self) -> Path:
        return (self._directory or cache_dir()) / library_name()

    def ready(self, build_missing: bool) -> bool:
        """Whether the kernel is loaded, loading it from the cache, or building
        it first when ``build_missing`` and it is not cached."""
        if self._fn is not None or self._failed:
            return self._fn is not None
        path = self.path
        if not (build_missing or path.exists()):
            return False
        try:
            if not path.exists():
                build(path)
            lib = ctypes.CDLL(str(path))
        except (OSError, subprocess.SubprocessError):
            self._failed = True
            # stacklevel 4: the caller of hypergraph.scan or active_backend.
            warnings.warn(FALLBACK_WARNING, RuntimeWarning, stacklevel=4)
            return False
        for fn, argtypes in ((lib.scan_triples, _ARGTYPES),
                             (lib.encode_upper_csv, _ENCODE_ARGTYPES)):
            fn.argtypes = argtypes
            fn.restype = ctypes.c_int64
        self._fn, self._encode = lib.scan_triples, lib.encode_upper_csv
        return True

    def scan_triples(
        self,
        x: np.ndarray,
        y: np.ndarray,
        t2: float,
        i_lo: int,
        i_hi: int,
        w: np.ndarray,
    ) -> int:
        """Same contract as ``linecluster._scan_numpy.scan_triples``; needs ``ready``.

        Returns the number of triples the kernel's exact path decided (see
        ``_scan.c``); ``hypergraph.scan`` ignores it. Raises ``MemoryError``
        when the kernel cannot allocate its per-call arrays (3n floats).
        """
        if self._fn is None:
            raise RuntimeError("the compiled scan kernel is not loaded")
        n = x.shape[0]
        for arr, dtype, size in ((x, np.float64, n), (y, np.float64, n), (w, np.int32, n * n)):
            if arr.dtype != dtype or arr.shape != (size,) or not arr.flags.c_contiguous:
                raise ValueError(f"expected a contiguous {np.dtype(dtype)} array of length {size}")
        if not (0 <= i_lo <= i_hi <= n) or not w.flags.writeable:
            raise ValueError("bad outer-index range or read-only output buffer")
        exact = self._fn(x.ctypes.data, y.ctypes.data, n, t2, i_lo, i_hi, w.ctypes.data)
        if exact < 0:
            raise MemoryError("the compiled scan kernel could not allocate its per-call arrays")
        return exact

    def encode_upper_csv(self, w: np.ndarray, i_lo: int, out: np.ndarray) -> tuple[int, int]:
        """Render rows ``i_lo, i_lo + 1, ...`` of ``similarity.csv`` into ``out``.

        ``w`` is a C-contiguous square int32 matrix and ``out`` a writable
        contiguous uint8 buffer. Each row i contributes ``i,j,c\\n`` for every
        j > i with c = w[i, j] nonzero, each number as ``str(int(value))``.
        Rows are written whole while their worst case fits (see ``_scan.c``).
        Returns the number of bytes written and the first row not written
        (n when every row is); needs ``ready``.
        """
        if self._encode is None:
            raise RuntimeError("the compiled scan kernel is not loaded")
        if (w.dtype != np.int32 or w.ndim != 2 or w.shape[0] != w.shape[1]
                or not w.flags.c_contiguous):
            raise ValueError("expected a contiguous square int32 matrix")
        if out.dtype != np.uint8 or out.ndim != 1 or not (out.flags.c_contiguous
                                                         and out.flags.writeable):
            raise ValueError("expected a writable contiguous uint8 buffer")
        n = w.shape[0]
        if not 0 <= i_lo <= n:
            raise ValueError("bad start row")
        i_next = ctypes.c_int64(0)
        size = self._encode(w.ctypes.data, n, i_lo, out.ctypes.data, out.size,
                            ctypes.byref(i_next))
        return size, i_next.value
