"""The native routing kernel: bitwise identity and loader robustness.

``PriceConsciousRouter.allocate`` and ``greedy_fill`` stay pure numpy;
they are the oracle here. The native ``allocate_batch`` must equal them
bit for bit on rosters drawn to hit every tie-break (price ties,
distance ties, zero demand, infinite and per-step limits, thresholds at
both extremes), and infeasible steps must fail with the message the
numpy fallback gives. The loader must survive a corrupted cache, a
failing compiler, an unwritable cache directory and a concurrent build,
and must never run at import.
"""

from __future__ import annotations

import copy
import os
import shutil
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro import kernels
from repro.errors import InfeasibleAllocationError
from repro.routing.base import RoutingProblem, greedy_fill_batch
from repro.routing.price import PriceConsciousRouter
from repro.traffic.clusters import ClusterDeployment, akamai_like_deployment

SRC = Path(__file__).resolve().parent.parent / "src"

pytestmark = pytest.mark.skipif(
    not any(shutil.which(name) for name in kernels.COMPILERS),
    reason="no C compiler on PATH",
)

_FULL = akamai_like_deployment()
_PROBLEMS: dict[tuple[tuple[int, ...], bool], RoutingProblem] = {}


def problem_for(subset: tuple[int, ...], coarse: bool) -> RoutingProblem:
    """A roster of ``subset``; ``coarse`` rounds distances to 500 km so
    candidates tie on distance."""
    key = (subset, coarse)
    if key not in _PROBLEMS:
        prob = RoutingProblem(ClusterDeployment([_FULL.clusters[i] for i in subset]))
        if coarse:
            prob.distances = copy.copy(prob.distances)
            prob.distances._matrix = np.round(prob.distances.matrix / 500.0) * 500.0
        _PROBLEMS[key] = prob
    return _PROBLEMS[key]


def _outcome(fn):
    try:
        return fn()
    except InfeasibleAllocationError as exc:
        return exc


def _same(a, b) -> bool:
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def price_cases(draw):
    subset = tuple(sorted(draw(st.sets(st.integers(0, _FULL.n_clusters - 1), min_size=1))))
    prob = problem_for(subset, draw(st.booleans()))
    router = PriceConsciousRouter(
        prob,
        distance_threshold_km=draw(st.sampled_from((0.0, 400.0, 1200.0, 2500.0, 6000.0))),
        price_threshold=draw(st.sampled_from((0.0, 1.0, 5.0, 60.0))),
    )
    n_steps = draw(st.integers(1, 6))
    demand = draw(
        arrays(
            np.float64,
            (n_steps, prob.n_states),
            elements=st.one_of(st.just(0.0), st.floats(0.0, 40_000.0, allow_nan=False)),
        )
    )
    prices = draw(
        arrays(
            np.float64,
            (n_steps, prob.n_clusters),
            elements=st.one_of(
                st.sampled_from((30.0, 35.0, 40.0)), st.floats(-40.0, 400.0, allow_nan=False)
            ),
        )
    )
    peak = float(demand.sum(axis=1).max()) + 1.0
    weights = draw(
        arrays(np.float64, (n_steps, prob.n_clusters), elements=st.floats(0.2, 3.0))
    )
    margin = draw(st.sampled_from((0.6, 1.02, 1.5, 4.0)))
    limits = peak * margin * weights / weights.sum(axis=1, keepdims=True)
    unbounded = draw(arrays(np.bool_, (n_steps, prob.n_clusters)))
    limits[unbounded] = np.inf
    if draw(st.booleans()):
        limits = limits[0]  # shared limits
    return router, demand, prices, limits


@settings(max_examples=150, deadline=None)
@given(price_cases())
def test_native_allocate_batch_is_scalar_allocate_bitwise(case):
    router, demand, prices, limits = case
    step_limits = np.broadcast_to(limits, prices.shape)
    scalar = [
        _outcome(lambda t=t: router.allocate(demand[t], prices[t], step_limits[t]))
        for t in range(demand.shape[0])
    ]
    native = _outcome(lambda: router.allocate_batch(demand, prices, limits))
    if any(isinstance(o, Exception) for o in scalar):
        assert isinstance(native, InfeasibleAllocationError)
    else:
        assert _same(native, np.stack(scalar))
    saved, kernels._loaded = kernels._loaded, (None, "forced by the test")
    try:
        fallback = _outcome(lambda: router.allocate_batch(demand, prices, limits))
    finally:
        kernels._loaded = saved
    assert _same(native, fallback)


def _walk_both(*args, **kwargs):
    native = _outcome(lambda: greedy_fill_batch(*args, **kwargs))
    saved, kernels._loaded = kernels._loaded, (None, "forced by the test")
    try:
        fallback = _outcome(lambda: greedy_fill_batch(*args, **kwargs))
    finally:
        kernels._loaded = saved
    return native, fallback


def test_infeasible_steps_raise_the_same_message_on_both_paths():
    demand = np.array([[10.0, 5.0, 0.0], [1.0, 1.0, 1.0], [50.0, 0.0, 0.0]])
    prefs = np.array([[0, 1], [1, 0], [0, 0]])
    limits = np.array([[8.0, 8.0], [5.0, 5.0], [20.0, 20.0]])
    native, fallback = _walk_both(demand, prefs, limits)
    assert isinstance(native, InfeasibleAllocationError)
    assert str(native) == str(fallback) and "at step 2" in str(native)


def test_walk_failure_reports_the_lowest_rank_then_the_lowest_step():
    """Past the total-limit pre-check (a -inf limit makes the total
    infinite), the walk itself fails. Step 0 fails at rank 1 and step 1
    at rank 0: the numpy walk, rank-major, reports step 1."""
    demand = np.array([[8.0, 5.0], [1.0, 0.0]])
    prefs = np.array([[0], [0]])
    limits = np.array([[10.0, -np.inf], [-np.inf, -np.inf]])
    native, fallback = _walk_both(demand, prefs, limits)
    assert isinstance(native, InfeasibleAllocationError)
    assert str(native) == str(fallback)
    assert str(native).endswith("for state index 0 at step 1")


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_native_walk_matches_numpy_walk(data):
    n_steps = data.draw(st.integers(1, 5))
    n_states = data.draw(st.integers(1, 7))
    n_clusters = data.draw(st.integers(1, 5))
    width = data.draw(st.integers(1, n_clusters))
    shape = (n_steps, n_states, width) if data.draw(st.booleans()) else (n_states, width)
    prefs = data.draw(arrays(np.int64, shape, elements=st.integers(0, n_clusters - 1)))
    demand = data.draw(
        arrays(np.float64, (n_steps, n_states), elements=st.sampled_from((0.0, 1.0, 2.5, 7.0)))
    )
    limits = data.draw(
        arrays(
            np.float64,
            (n_steps, n_clusters),
            elements=st.sampled_from((0.0, 1.0, 3.0, 10.0, np.inf)),
        )
    )
    if data.draw(st.booleans()):
        limits = limits[0]  # shared limits
    native, fallback = _walk_both(demand, prefs, limits)
    assert _same(native, fallback)


# ---------------------------------------------------------------------------
# Loader robustness


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """An unloaded kernel module over an empty cache; restored afterwards."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(kernels, "_loaded", None)
    return tmp_path / "cache" / "repro" / "native"


def _cached(cache: Path) -> list[Path]:
    return sorted(cache.glob("route-*.so"))


@pytest.mark.parametrize("damage", ["truncate", "garbage"])
def test_damaged_cache_entry_is_rebuilt_not_loaded(fresh_loader, damage):
    assert kernels.native() is not None
    (path,) = _cached(fresh_loader)
    good = path.read_bytes()
    # Replace, never rewrite in place: this process has the file mapped.
    damaged = path.with_suffix(".damaged")
    damaged.write_bytes(good[: len(good) // 2] if damage == "truncate" else b"\x7fELF garbage")
    os.replace(damaged, path)
    kernels._loaded = None
    assert kernels.native() is not None
    assert path.read_bytes() == good


def test_compile_failure_falls_back_with_one_warning(fresh_loader, monkeypatch, tmp_path):
    prob = problem_for(tuple(range(_FULL.n_clusters)), False)
    router = PriceConsciousRouter(prob, 1500.0)
    rng = np.random.default_rng(3)
    demand = rng.uniform(0.0, 30_000.0, (40, prob.n_states))
    prices = rng.uniform(20.0, 90.0, (40, prob.n_clusters))
    limits = np.full(prob.n_clusters, demand.sum(axis=1).max() / 4)
    native = router.allocate_batch(demand, prices, limits)

    broken = tmp_path / "route.c"
    broken.write_text("this is not C\n")
    monkeypatch.setattr(kernels, "SOURCE", broken)
    kernels._loaded = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fallback = router.allocate_batch(demand, prices, limits)
        router.allocate_batch(demand, prices, limits)
    assert kernels.native() is None
    assert kernels.kernel_status().startswith("numpy (compile failed")
    assert [str(w.message) for w in caught if w.category is RuntimeWarning] == [
        f"repro: native routing kernel unavailable ({kernels._loaded[1]}); "
        "using the numpy kernels"
    ]
    assert fallback.tobytes() == native.tobytes()


def test_racing_threads_share_one_load(fresh_loader):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            libs = [f.result(timeout=300) for f in [pool.submit(kernels.native) for _ in range(8)]]
    finally:
        sys.setswitchinterval(interval)
    assert libs[0] is not None and all(lib is libs[0] for lib in libs)
    assert len(_cached(fresh_loader)) == 1


def test_unwritable_cache_builds_privately(monkeypatch, tmp_path):
    # A regular file where the cache root should be: mkdir fails even
    # for root, which file permissions would not stop.
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(kernels, "_loaded", None)
    assert kernels.native() is not None
    assert kernels.kernel_status() == "native"


def _child_env(cache: Path) -> dict[str, str]:
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC))
    return env


def test_concurrent_builds_both_load(tmp_path):
    code = "from repro import kernels; print(kernels.kernel_status())"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            env=_child_env(tmp_path / "cache"),
            stdout=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    outputs = [p.communicate(timeout=300)[0].strip() for p in procs]
    assert outputs == ["native", "native"]
    cache = tmp_path / "cache" / "repro" / "native"
    assert len(_cached(cache)) == 1
    assert not list(cache.glob(".route-*"))


def test_import_and_list_never_load_the_kernel(tmp_path):
    """``setup_s`` paths: no compiler spawn, no library load."""
    code = """
import io, contextlib, subprocess
def refuse(*args, **kwargs):
    raise AssertionError(f"spawned {args!r}")
subprocess.Popen = refuse
import repro
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["list", "--artifacts", %r]) == 0
from repro import kernels
assert kernels._loaded is None, kernels._loaded
print("ok")
""" % str(tmp_path / "store")
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_child_env(tmp_path / "cache"),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"
    assert not (tmp_path / "cache").exists()
