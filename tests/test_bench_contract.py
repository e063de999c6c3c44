"""The layers that perfbench/tracing.py wraps exist where it looks for them.

The tracer replaces module functions by name and methods through the class's
own ``vars()``; a layer that is renamed, or a traced method that moves into a
base class, would otherwise only show when a traced benchmark pass runs.
The tracer module is loaded by path and nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = list(_load_tracing().LAYERS)


@pytest.mark.parametrize("key", LAYERS, ids=lambda k: ".".join(p for p in k if p))
def test_traced_layer_is_where_the_tracer_looks(key):
    mod_name, cls_name, fn_name = key
    module = importlib.import_module(f"qcasimir.{mod_name}")
    if cls_name is None:
        assert callable(getattr(module, fn_name, None))
    else:
        cls = getattr(module, cls_name)
        assert callable(vars(cls).get(fn_name))
