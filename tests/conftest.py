"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def no_enumeration(monkeypatch):
    """Make every basis, point and evaluation-matrix builder of the library
    raise, so a test can show a call refused before it enumerates anything."""
    def enumerated(*args):
        raise AssertionError("enumerated")

    for name in ("projective_basis", "affine_basis", "projective_array",
                 "affine_array", "_monomial_values"):
        monkeypatch.setattr(f"prmcodes.codes.{name}", enumerated)
    for name in ("projective_array", "affine_array"):
        monkeypatch.setattr(f"prmcodes.poly.{name}", enumerated)
    for name in ("projective_points", "affine_points", "projective_array", "affine_array"):
        monkeypatch.setattr(f"prmcodes.geometry.{name}", enumerated)
