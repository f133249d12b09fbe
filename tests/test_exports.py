"""Package surface: every exported name resolves."""

import snfcensus


def test_all_names_resolve_and_star_import():
    missing = [name for name in snfcensus.__all__
               if not hasattr(snfcensus, name)]
    assert not missing
    namespace = {}
    exec("from snfcensus import *", namespace)
    assert set(snfcensus.__all__) <= namespace.keys()
