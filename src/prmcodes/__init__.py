"""Projective Reed-Muller codes over small finite fields.

Evaluation-code construction, closed-form parameters (with brute-force
cross-checks in the test suite), and recursive decoding that peels a
projective word into an affine block plus a smaller projective tail.
"""

from .codes import (PRM, RM, CodeParams, CodeSpec, NotInCodeError,
                    basis_monomials, code_params, encode, eta,
                    generator_matrix, interpolate, interpolate_family,
                    prm_dimension, prm_weight, replicate_scaled,
                    rm_dimension, rm_weight)
from .decoders import (AffineDecoders, DecodeResult, EnumerationBoundError,
                       check_error_pattern, decode_exhaustive, decode_prm,
                       decode_prm_robust, decode_rs_affine,
                       exhaustive_decoders, weight)
from .geometry import (affine_array, affine_points, num_projective_points,
                       projective_array, projective_points)
from .gf import GF
from .poly import (Poly, affine_basis, dehomogenize, embed_poly, eval_affine,
                   eval_projective, homogenize, lift_to_degree, parse_poly,
                   projective_basis, reduce_mod_affine, split_bad_good)

__version__ = "0.1.0"

__all__ = [
    "GF",
    "Poly",
    "CodeSpec",
    "CodeParams",
    "DecodeResult",
    "AffineDecoders",
    "NotInCodeError",
    "EnumerationBoundError",
    "PRM",
    "RM",
    "affine_array",
    "affine_basis",
    "affine_points",
    "basis_monomials",
    "check_error_pattern",
    "code_params",
    "decode_exhaustive",
    "decode_prm",
    "decode_prm_robust",
    "decode_rs_affine",
    "dehomogenize",
    "embed_poly",
    "encode",
    "eta",
    "eval_affine",
    "eval_projective",
    "exhaustive_decoders",
    "generator_matrix",
    "homogenize",
    "interpolate",
    "interpolate_family",
    "lift_to_degree",
    "num_projective_points",
    "parse_poly",
    "prm_dimension",
    "prm_weight",
    "projective_array",
    "projective_basis",
    "projective_points",
    "reduce_mod_affine",
    "replicate_scaled",
    "rm_dimension",
    "rm_weight",
    "split_bad_good",
    "weight",
]
