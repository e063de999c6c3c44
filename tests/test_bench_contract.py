"""The names the benchmark harness reads exist where it looks for them.

The tracer replaces module functions by name and methods through the class's
own ``vars()``; a layer that is renamed, or a traced method that moves into a
base class, would otherwise only show when a traced benchmark pass runs.
The tracer module is loaded by path and nothing is wrapped.  The workloads
and the self-test call the package as ``qc.<name>``; those names are read
from their source text.  The workloads module is loaded by path only to
read its spectrum weights: those it samples must evaluate, and those it
excludes as poles must evaluate too, since no dominant weight is a pole of
the eigenvalue.
"""

import importlib
import importlib.util
import itertools
import re
from fractions import Fraction
from pathlib import Path

import pytest

import qcasimir

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(script):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{script}", PERFBENCH / f"{script}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = list(_load("tracing").LAYERS)


@pytest.mark.parametrize("key", LAYERS, ids=lambda k: ".".join(p for p in k if p))
def test_traced_layer_is_where_the_tracer_looks(key):
    mod_name, cls_name, fn_name = key
    module = importlib.import_module(f"qcasimir.{mod_name}")
    if cls_name is None:
        assert callable(getattr(module, fn_name, None))
    else:
        cls = getattr(module, cls_name)
        assert callable(vars(cls).get(fn_name))


def test_package_exports_every_name_the_benchmark_reads():
    names = {
        name
        for script in ("workloads.py", "selftest.py")
        for name in re.findall(r"\bqc\.(\w+)", (PERFBENCH / script).read_text())
    }
    assert names
    assert sorted(n for n in names if not hasattr(qcasimir, n)) == []


def test_spectrum_weights_evaluate_through_eigenvalue_direct():
    workloads = _load("workloads")
    weights = 0
    for lie, n, *_ in workloads.SPECTRUM:
        rs = qcasimir.build_root_system(qcasimir.LieType(lie), n)
        for dbl in workloads.weight_candidates(lie, n):
            lam = qcasimir.Weight(dbl)
            for ell in range(n + 1):
                for s in workloads.EIGEN_S:
                    assert type(qcasimir.eigenvalue_direct(rs, lam, ell, s)) is Fraction
            weights += 1
    assert weights


def test_weights_the_spectrum_excludes_as_poles_evaluate():
    workloads = _load("workloads")
    top = workloads.SPECTRUM_MAX_COORD
    box = 0
    for lie, n, *_ in workloads.SPECTRUM:
        rs = qcasimir.build_root_system(qcasimir.LieType(lie), n)
        for shift in (0, 1) if lie in "BD" else (0,):
            for coords in itertools.combinations_with_replacement(range(top, -1, -1), n):
                dbl = tuple(2 * c + shift for c in coords)
                for d in {dbl, dbl[:-1] + (-dbl[-1],)} if lie == "D" else {dbl}:
                    box += 1
                    if not workloads.is_pole(lie, d):
                        continue
                    lam = qcasimir.Weight(d)
                    for ell in (1, 2):
                        for s in workloads.EIGEN_S:
                            assert qcasimir.eigenvalue_direct(
                                rs, lam, ell, s
                            ) == qcasimir.eigenvalue_via_hc(rs, lam, ell, s)
    assert box
