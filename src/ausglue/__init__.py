"""Exact-arithmetic toolkit for glued module categories of Dynkin-type
algebras: AR-quiver knitting, higher extensions with explicit cocycles,
and machine verification of the homological invariants of the resulting
endomorphism algebras."""

from .linalg import Field, Mat, QQ, GF, default_field, DEFAULT_PRIME
from .quiver import (Quiver, DynkinSpec, BoundPresentation, dynkin_quiver,
                     hereditary_presentation, nakayama_linear,
                     parse_quiver_file)
from .pathcat import category_from_presentation
from .fincat import (FinCategory, CatModule, projective_module,
                     injective_module)
from .homology import (min_proj_resolution, ext_space, ext_dim, gldim,
                       domdim, projective_injectives, tau_inv, tau_n,
                       modules_isomorphic, INFINITY)
from .knitting import knit, vertex_label
from .glue import (GluedCategory, build_glued, build_sk, build_mk,
                   endomorphism_category, auslander_category, is_rigid,
                   is_cluster_tilting, cluster_tilting_from_tau_n)
from .tower import (TowerReport, gamma, sigma, verify_theorem_dynkin,
                    verify_theorem_higher, four_angles)

__all__ = [
    "Field", "Mat", "QQ", "GF", "default_field", "DEFAULT_PRIME",
    "Quiver", "DynkinSpec", "BoundPresentation", "dynkin_quiver",
    "hereditary_presentation", "nakayama_linear", "parse_quiver_file",
    "category_from_presentation",
    "FinCategory", "CatModule", "projective_module",
    "injective_module", "modules_isomorphic",
    "min_proj_resolution", "ext_space", "ext_dim", "gldim", "domdim",
    "tau_inv", "tau_n", "INFINITY",
    "knit", "vertex_label",
    "GluedCategory", "build_glued", "build_sk", "build_mk",
    "endomorphism_category", "auslander_category",
    "is_rigid", "is_cluster_tilting", "cluster_tilting_from_tau_n",
    "TowerReport", "gamma", "sigma", "projective_injectives",
    "verify_theorem_dynkin", "verify_theorem_higher", "four_angles",
]
