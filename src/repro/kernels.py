"""Hot-path kernels for the batched engine: native when it can, numpy otherwise.

Two routing loops dominate a cold run: the price router's per-step
preference pass (:meth:`repro.routing.price.PriceConsciousRouter.allocate_batch`)
and the greedy spill walk (:func:`repro.routing.base.greedy_fill_batch`).
Both have a small C implementation in ``repro/_native/route.c``. It is
compiled on first use with the system C compiler and loaded through
stdlib :mod:`ctypes`; nothing is built at install time and no package
beyond numpy is needed.

* Build flags are ``-O2 -ffp-contract=off -fPIC -shared``: no fast-math,
  no fused multiply-adds and no ``-march=native``, so every float
  operation is the one the scalar reference performs and results stay
  bitwise identical to it.
* The shared object is cached per user in ``$XDG_CACHE_HOME/repro/native``
  (default ``~/.cache/repro/native``), keyed by a hash of the source, the
  flags and the compiler's ``--version``. A build is written to a
  temporary file and published with :func:`os.replace`, so concurrent
  builders never expose a half-written file. The published file ends
  with a SHA-256 of its own contents; a truncated or corrupted entry
  fails that check and is rebuilt instead of loaded. When the cache
  directory is unwritable the build is loaded from a private temporary
  directory instead.
* When no compiler is found, or the build or load fails, :func:`native`
  returns ``None`` and the numpy implementations serve (a failed build
  warns once). float32 engine runs always use numpy.

The loader runs on the first :func:`native` call, never at import, so
``import repro`` and ``repro list`` neither spawn the compiler nor open
the library. :func:`kernel_status` names the kernel that serves.

Independently, ``REPRO_ENGINE_THREADS=N`` (default 0 = off) lets
:func:`repro.sim.engine.simulate` route independent chunks through a
``ThreadPoolExecutor``. Chunk *routing* is embarrassingly parallel
(steps never interact), and ctypes releases the GIL for the length of
each native call; the chunk *reduction* stays ordered and serial so
float summation order — part of the bit-identity contract — is
untouched.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
import warnings
from pathlib import Path

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "THREADS_ENV",
    "engine_threads",
    "native",
    "kernel_status",
    "price_prefs",
    "greedy_walk",
]

#: Environment variable holding the chunk-routing thread count.
THREADS_ENV = "REPRO_ENGINE_THREADS"

#: The kernel source, shipped as package data.
SOURCE = Path(__file__).resolve().parent / "_native" / "route.c"

#: Compiler flags; part of the cache key.
FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: Compiler names tried on ``PATH``, in order.
COMPILERS = ("cc", "gcc", "clang")

#: Marks the digest appended to a published build.
_TRAILER = b"repro-native-sha256:"
_TRAILER_LEN = len(_TRAILER) + 32

#: Return codes of the C entry points.
_UNPLACED, _BAD_INDEX, _NO_MEMORY = 1, -1, -2

_lock = threading.Lock()
#: ``(library or None, reason it is None)`` once the loader has run.
_loaded: tuple[object, str] | None = None


def engine_threads() -> int:
    """Thread count for chunk routing (0 or 1 means serial)."""
    raw = os.environ.get(THREADS_ENV, "").strip()
    if not raw:
        return 0
    try:
        threads = int(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{THREADS_ENV} must be an integer, got {raw!r}") from exc
    if threads < 0:
        raise ConfigurationError(f"{THREADS_ENV} must be non-negative, got {threads}")
    return threads


def native():
    """The loaded native kernel (a :class:`ctypes.CDLL`), or ``None``.

    The first call finds a compiler, builds or reuses the cached shared
    object and loads it; every later call returns the same answer.
    ``None`` means the numpy implementations serve.
    """
    global _loaded
    if _loaded is None:
        with _lock:
            if _loaded is None:
                _loaded = _load()
    return _loaded[0]


def kernel_status() -> str:
    """``native``, or ``numpy (<reason>)`` when the fallback serves."""
    lib = native()
    return "native" if lib is not None else f"numpy ({_loaded[1]})"


def _cache_dir() -> Path:
    """Where built kernels are cached for this user."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return Path(base) / "repro" / "native"


# -- loader -------------------------------------------------------------------


class _BuildError(Exception):
    pass


def _load() -> tuple[object, str]:
    compiler = next((path for path in map(shutil.which, COMPILERS) if path), None)
    if compiler is None:
        return None, "no C compiler found"
    try:
        version = subprocess.run(
            [compiler, "--version"], capture_output=True, text=True, timeout=60
        ).stdout
        source = SOURCE.read_bytes()
    except (OSError, subprocess.SubprocessError) as exc:
        return _failed(f"cannot read the compiler or source: {exc}")
    key = hashlib.sha256(
        b"\0".join([source, " ".join(FLAGS).encode(), version.encode()])
    ).hexdigest()[:24]
    target = _cache_dir() / f"route-{key}.so"
    lib = _open(target)
    if lib is not None:
        return lib, ""
    try:
        lib = _build(compiler, target)
    except (_BuildError, OSError) as exc:  # OSError: no usable temporary directory
        return _failed(str(exc))
    if lib is None:
        return _failed("the built library did not load")
    return lib, ""


def _failed(reason: str) -> tuple[None, str]:
    warnings.warn(
        f"repro: native routing kernel unavailable ({reason}); using the numpy kernels",
        RuntimeWarning,
        stacklevel=3,
    )
    return None, reason


def _build(compiler: str, target: Path):
    """Compile, publish to ``target`` (or keep private) and load."""
    with tempfile.TemporaryDirectory(prefix="repro-native-") as work:
        raw = Path(work) / "route.so"
        try:
            proc = subprocess.run(
                [compiler, *FLAGS, "-o", str(raw), str(SOURCE)],
                capture_output=True,
                text=True,
                timeout=300,
            )
        except (OSError, subprocess.SubprocessError) as exc:
            raise _BuildError(f"compiler did not run: {exc}") from exc
        if proc.returncode != 0:
            detail = (proc.stderr.strip().splitlines() or ["no diagnostics"])[-1]
            raise _BuildError(f"compile failed: {detail}")
        data = raw.read_bytes()
        blob = data + _TRAILER + hashlib.sha256(data).digest()
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".route-", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as fh:
                    fh.write(blob)
                os.replace(tmp, target)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            # Unwritable cache: load from the private directory. The
            # mapping outlives the file, which goes with the directory.
            target = Path(work) / target.name
            target.write_bytes(blob)
        return _open(target)


def _open(path: Path):
    """Load a published build after checking its digest."""
    try:
        blob = path.read_bytes()
    except OSError:
        return None
    data, tag = blob[:-_TRAILER_LEN], blob[-_TRAILER_LEN:]
    if len(blob) <= _TRAILER_LEN or tag != _TRAILER + hashlib.sha256(data).digest():
        return None
    import ctypes

    i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    try:
        lib = ctypes.CDLL(str(path))
        lib.price_prefs.restype = i64
        lib.price_prefs.argtypes = [i64] * 4 + [ptr] * 3 + [i64] + [ptr] * 3 + [f64] + [ptr] * 3
        lib.greedy_walk.restype = i64
        lib.greedy_walk.argtypes = [i64] * 4 + [ptr] * 2 + [i64] + [ptr] * 4 + [i64] + [ptr] * 3
    except (OSError, AttributeError):
        return None
    return lib


# -- entry points ---------------------------------------------------------------


def _check(code: int, name: str) -> None:
    if code == _BAD_INDEX:
        raise IndexError(f"native {name}: cluster or state index out of range")
    if code == _NO_MEMORY:
        raise MemoryError(f"native {name}: scratch allocation failed")


def price_prefs(
    demand: np.ndarray,
    prices: np.ndarray,
    limits: np.ndarray,
    candidates: np.ndarray,
    counts: np.ndarray,
    distances: np.ndarray,
    threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The price router's per-step pass over a run of float64 steps.

    ``candidates`` is the ``(n_states, k)`` ascending candidate table
    (rows padded past ``counts``), ``limits`` shared ``(C,)`` or per-step
    ``(T, C)``. Returns ``(allocation, fits, prefs)``: the ``(T, S, C)``
    allocation with every fitting step filled in, the ``(T,)`` fit mask,
    and the ``(n_spill, S, k)`` preference orders of the spill steps in
    step order, padded with each state's first choice.
    """
    lib = native()
    n_steps, n_states = demand.shape
    n_clusters = distances.shape[1]
    n_pad = candidates.shape[1]
    if (
        prices.shape != (n_steps, n_clusters)
        or candidates.shape[0] != n_states
        or counts.shape != (n_states,)
        or distances.shape[0] != n_states
    ):
        raise ConfigurationError("price_prefs: demand, prices and roster shapes disagree")
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    prices = np.ascontiguousarray(prices, dtype=np.float64)
    candidates = np.ascontiguousarray(candidates, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    distances = np.ascontiguousarray(distances, dtype=np.float64)
    limits = np.asarray(limits, dtype=np.float64)
    if limits.shape != (n_clusters,):
        limits = np.broadcast_to(limits, (n_steps, n_clusters))
    limits = np.ascontiguousarray(limits)
    allocation = np.zeros((n_steps, n_states, n_clusters))
    fits = np.empty(n_steps, dtype=np.uint8)
    prefs = np.empty((n_steps, n_states, n_pad), dtype=np.int64)
    n_spill = lib.price_prefs(
        n_steps, n_states, n_clusters, n_pad,
        demand.ctypes.data, prices.ctypes.data,
        limits.ctypes.data, n_clusters if limits.ndim == 2 else 0,
        candidates.ctypes.data, counts.ctypes.data, distances.ctypes.data,
        float(threshold),
        fits.ctypes.data, allocation.ctypes.data, prefs.ctypes.data,
    )  # fmt: skip
    _check(n_spill, "price_prefs")
    return allocation, fits.view(bool), prefs[:n_spill]


def greedy_walk(
    demand: np.ndarray,
    prefs: np.ndarray,
    headroom: np.ndarray,
    order: np.ndarray,
    out: np.ndarray,
    out_rows: np.ndarray | None,
) -> tuple[int, int, float] | None:
    """The greedy spill walk over a run of float64 steps.

    ``prefs`` is shared ``(S, k)`` or per-step ``(T, S, k)``;
    ``headroom`` ``(T, C)`` is consumed in place; step ``i`` adds into
    ``out[out_rows[i]]`` (``out[i]`` without ``out_rows``). Returns
    ``None``, or ``(step, state, remaining)`` for the unplaceable
    remainder the numpy walk would report.
    """
    import ctypes

    lib = native()
    n_steps, n_states = demand.shape
    n_clusters = headroom.shape[1]
    demand = np.ascontiguousarray(demand, dtype=np.float64)
    prefs = np.ascontiguousarray(prefs, dtype=np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    rows = None if out_rows is None else np.ascontiguousarray(out_rows, dtype=np.int64)
    shared = (n_states, prefs.shape[-1])
    if (
        prefs.shape not in (shared, (n_steps, *shared))
        or order.shape != (n_steps, n_states)
        or (rows is None and out.shape[0] < n_steps)
        or (rows is not None and rows.shape != (n_steps,))
        or out.shape[1:] != (n_states, n_clusters)
        or headroom.shape != (n_steps, n_clusters)
        or not (out.flags.c_contiguous and headroom.flags.c_contiguous)
        or out.dtype != np.float64
        or headroom.dtype != np.float64
    ):
        raise ConfigurationError("greedy_fill_batch: inconsistent walk shapes")
    err_t, err_s, err_rem = ctypes.c_int64(), ctypes.c_int64(), ctypes.c_double()
    code = lib.greedy_walk(
        n_steps, n_states, n_clusters, prefs.shape[-1],
        demand.ctypes.data, prefs.ctypes.data,
        n_states * prefs.shape[-1] if prefs.ndim == 3 else 0,
        headroom.ctypes.data, order.ctypes.data,
        out.ctypes.data, None if rows is None else rows.ctypes.data, out.shape[0],
        ctypes.addressof(err_t), ctypes.addressof(err_s), ctypes.addressof(err_rem),
    )  # fmt: skip
    _check(code, "greedy_walk")
    if code == _UNPLACED:
        return err_t.value, err_s.value, err_rem.value
    return None
