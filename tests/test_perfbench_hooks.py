"""Every name the benchmark's tracer hooks still exists in lexiforge.

`perfbench/tracer.py` wraps module and class attributes by name and
stops a traced run with `MissingHook` when one is gone.  Checking the
same names here makes a change that drops one fail the test suite
instead of a later traced benchmark run.  The tracer is loaded from
its file and only read.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TABLES = ("COMPILE_SPANS", "SERVE_SPANS", "SHARED_SPANS", "CALL_COUNTS", "YIELD_COUNTS")


def _hooked_names():
    tracer = _load_tracer()
    return [(row[0], row[1]) for table in TABLES for row in getattr(tracer, table)]


HOOKED = _hooked_names()


def test_every_table_hooks_something():
    tracer = _load_tracer()
    assert all(getattr(tracer, table) for table in TABLES)


@pytest.mark.parametrize("module,path", HOOKED, ids=["%s:%s" % hook for hook in HOOKED])
def test_every_hooked_name_resolves(module, path):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for part in parents:
        owner = inspect.getattr_static(owner, part)
    inspect.getattr_static(owner, attr)  # raises AttributeError when the name is gone
