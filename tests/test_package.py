import re
import sys
from pathlib import Path

import pytest

import efgeo


def test_every_exported_name_resolves():
    namespace = {}
    exec("from efgeo import *", namespace)  # raises on a name efgeo lacks
    assert set(efgeo.__all__) <= namespace.keys()


def _tracer():
    """The benchmark's tracer module."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    if str(bench) not in sys.path:
        sys.path.insert(0, str(bench))
    import tracer

    return tracer


_TRACER = _tracer()


@pytest.mark.parametrize("module, path, name", _TRACER.SPANS + _TRACER.CALLS + _TRACER.PROPERTIES, ids=str)
def test_every_traced_attribute_exists(module, path, name):
    # the tracer patches through owner.__dict__, so a renamed or deleted
    # attribute breaks --trace 1 with a KeyError
    owner, attr = _TRACER._resolve(module, path)
    assert attr in owner.__dict__, name


def test_readme_python_example_runs(capsys):
    # the library example must keep up with the API it shows
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    exec(blocks[0], {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_tensor_bench_is_traced_slab_by_slab():
    # every slab, the lead slab of zero rows too, is built through the traced
    # name geometry.tensors, from its own rows of the recipe, so no stencil
    # runs outside a traced span; only the slabs of whole rows are checked
    from efgeo import geometry

    m = 32
    step = max(1, geometry.SLAB_POINTS // m ** 2)
    slabs = -(-m // step)
    tracer = _TRACER.Tracer()
    tracer.new_run()
    with tracer:
        geometry.identity_residuals(geometry.smooth_recipe(), geometry.ParamGrid((m,) * 3))
    counts = tracer.counts[1]
    assert counts["geometry.tensors.calls"] == slabs + 1
    assert counts["geometry.build_family.calls"] == slabs + 1
    assert counts["geometry.check_decompositions.calls"] == slabs
    assert all(s.parent is not None for s in tracer.spans if s.name == "geometry.ParamGrid.diff")
