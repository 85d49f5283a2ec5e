"""Names the benchmark harness reads from the library.

``perfbench/libwork.py`` records ``repro.parallel.get_kernel_backend()``
in every library run's settings, and ``perfbench/run.py`` records
``ServiceConfig().kernel_backend`` for service runs.  Both must keep
answering, even though a fused chain now has exactly one execution path
and the kernel suite is no longer selectable.
"""

from __future__ import annotations

import pytest

from repro import parallel
from repro.service import ServiceConfig


def test_kernel_backend_query_is_the_interpreter():
    assert parallel.get_kernel_backend() == "interpreter"


def test_service_config_reports_the_interpreter():
    assert ServiceConfig().kernel_backend == "interpreter"


def test_kernel_backend_is_not_a_setting():
    with pytest.raises(TypeError):
        ServiceConfig(kernel_backend="interpreter")
