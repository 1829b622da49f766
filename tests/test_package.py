import efgeo


def test_every_exported_name_resolves():
    namespace = {}
    exec("from efgeo import *", namespace)  # raises on a name efgeo lacks
    assert set(efgeo.__all__) <= namespace.keys()
