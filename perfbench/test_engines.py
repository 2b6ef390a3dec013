"""Compiled and interpreted engines agree on both checker workloads.

    python3 -m pytest perfbench/test_engines.py

Slow (a minute or two: the interpreted engine on the check-chain
configuration alone takes most of it), so it is kept apart from
``test_perfbench.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import workloads  # noqa: E402
from repro.spec import ModelChecker  # noqa: E402
from repro.spec.specs import controller_spec  # noqa: E402


@pytest.mark.parametrize("name", ["check-chain", "check-table4"])
def test_compiled_and_interpreted_results_are_equal(name):
    w = workloads.WORKLOADS[name]
    options = {k: v for k, v in w.engine.items() if k != "compiled"}
    docs = [ModelChecker(controller_spec(**w.spec_kwargs), compiled=compiled,
                         **options).run().to_json()
            for compiled in (False, True)]
    assert docs[0] == docs[1]
