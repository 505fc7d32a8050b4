"""The bitwise suites again, on the numpy kernels.

The batch-equivalence and differential suites run under the default
kernel in their own modules — native whenever a C compiler is present
(``test_engine_kernels`` fails if it should have loaded and did not).
Here the same tests are collected a second time with the
``numpy_kernel`` fixture engaged, so every tier-1 run pins both the
native kernel and the numpy fallback against the scalar oracle.
"""

from __future__ import annotations

import importlib

import pytest
from hypothesis import given

pytestmark = pytest.mark.usefixtures("numpy_kernel")

SUITES = (
    "test_routing_batch",
    "test_engine_differential",
    "test_sim_engine_many",
    "test_routing_joint_batch",
    "test_sim_session",
    "test_sim_rolling",
)


def _fresh(cls: type) -> type:
    """A subclass with its Hypothesis methods wrapped anew.

    Hypothesis ties a ``@given`` method to the first instance that runs
    it, so the class collected here must not share those wrappers with
    the class collected in its own module.
    """
    body = {}
    for name, method in vars(cls).items():
        inner = getattr(getattr(method, "hypothesis", None), "inner_test", None)
        if inner is not None:
            # The inner test keeps its own @settings.
            body[name] = given(**method.hypothesis._given_kwargs)(inner)
    return type(cls.__name__, (cls,), body)


for _suite in SUITES:
    for _name, _obj in vars(importlib.import_module(_suite)).items():
        if _name.startswith(("test_", "Test")):
            assert _name not in globals(), f"{_name} collected twice"
            globals()[_name] = _fresh(_obj) if isinstance(_obj, type) else _obj
