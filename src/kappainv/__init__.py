"""Exact classification of Weierstrass hypersurface singularities.

The package computes projected and weighted Newton polyhedra in exact
rational arithmetic, the kappa invariant with its overweight presentation,
the discriminant-based quasi-ordinary test, and the mixed-characteristic
analysis of the presentation's integer lift (ghost monomials, weighted
initial ideals, fiber comparison).
"""

from .deform import (GhostReport, InitialIdealReport, IntegerLift,
                     default_tropical_weight, eliminate_to_hypersurface,
                     ghost_monomials, initial_forms_weighted, lift_presentation)
from .errors import (ConfigurationError, ContractViolation, EngineError, KappaInvError,
                     ParseError, UnsupportedLiftError, ValidationError)
from .kappa import (BinomialPower, KappaConfig, KappaInvariant, KappaResult,
                    OverweightPresentation, Terminal, binomialize_modulo, compute_kappa,
                    prepare_polyhedron, verify_overweight)
from .poly import (Poly, Relation, VarContext, WeierstrassPoly, back_substitute,
                   normal_form, parse_polynomial, power_substitute, substitute,
                   weierstrass_validate)
from .polyhedron import (OrthantPolyhedron, hull_vertices, member, polyhedron_leq,
                         projected_polyhedron, weighted_projected_polyhedron)
from .quasiord import (ClassificationReport, DiscriminantReport, classify,
                       discriminant_z, is_monomial_times_unit)
from .ring import QQ, ZZ, Field, lift_coeff

__version__ = "0.1.0"

__all__ = [
    "BinomialPower", "ClassificationReport", "ConfigurationError", "ContractViolation",
    "DiscriminantReport", "EngineError", "Field", "GhostReport", "InitialIdealReport",
    "IntegerLift", "KappaConfig", "KappaInvError", "KappaInvariant", "KappaResult",
    "OrthantPolyhedron", "OverweightPresentation", "ParseError", "Poly",
    "QQ", "Relation", "Terminal", "UnsupportedLiftError", "ValidationError",
    "VarContext", "WeierstrassPoly", "ZZ", "back_substitute", "binomialize_modulo",
    "classify", "compute_kappa", "default_tropical_weight", "discriminant_z",
    "eliminate_to_hypersurface", "ghost_monomials", "hull_vertices", "initial_forms_weighted",
    "is_monomial_times_unit", "lift_coeff", "lift_presentation", "member",
    "normal_form", "parse_polynomial", "polyhedron_leq", "power_substitute",
    "prepare_polyhedron", "projected_polyhedron", "substitute",
    "verify_overweight", "weierstrass_validate", "weighted_projected_polyhedron",
]
