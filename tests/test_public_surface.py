"""The public surface: every name in prmcodes.__all__ resolves, and once."""

import prmcodes


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from prmcodes import *", namespace)  # raises on a stale entry
    assert len(set(prmcodes.__all__)) == len(prmcodes.__all__)
    for name in prmcodes.__all__:
        assert namespace[name] is getattr(prmcodes, name)
