"""Exact checks for silting complexes over finite-dimensional quiver algebras.

Everything is computed over a prime field or the rationals with no floating
point anywhere, so every reported dimension, rank and verdict is exact and
reruns are byte-identical.  The layers build on each other: exact linear
algebra, quiver algebras and their modules, bounded complexes, dg-algebras
and dg-modules over them, semifree resolutions with windowed derived
functors, silting-specific constructions (coresolutions, goodification), and
a verification battery that replays the derived-equivalence story on concrete
instances.  The instances module reads and writes JSON fixture files and the
cli module exposes check / goodify / verify / report commands.
"""

from .algebra import (Algebra, Module, Quiver, hom_space, path_algebra,
                      simple_module)
from .complexes import (ChainMap, Complex, ResolutionCapError, cone,
                        direct_sum_complexes, hom_complex, is_acyclic,
                        proj_replacement, projective_cache, projective_complex)
from .dg import DgAlgebra, DgModule, dg_end, h0_algebra, smart_truncate
from .fields import PrimeField, RationalField, field_from_json
from .instances import (Instance, InstanceError, dump_instance, load_instance,
                        parse_instance, serialize_instance)
from .linalg import Matrix, RowSpace
from .semifree import DegreeWindow, derived_tensor, semifree_resolve
from .silting import (coresolve_A, goodify, presilting_witness,
                      silting_equivalent, silting_report)
from .verifier import (SiltingContext, classify_Xi, verify_all,
                       verify_corollary_roundtrip, verify_counit, verify_delta,
                       verify_fully_faithful, verify_tilting_theorem,
                       verify_weak_nonpositive)

__version__ = "0.1.0"

__all__ = [
    "Algebra", "ChainMap", "Complex", "DegreeWindow", "DgAlgebra", "DgModule",
    "Instance", "InstanceError", "Matrix", "Module", "PrimeField", "Quiver",
    "RationalField", "ResolutionCapError", "RowSpace", "SiltingContext",
    "classify_Xi", "cone", "coresolve_A", "derived_tensor", "dg_end",
    "direct_sum_complexes", "dump_instance", "field_from_json", "goodify",
    "h0_algebra", "hom_complex", "hom_space", "is_acyclic",
    "load_instance", "parse_instance", "path_algebra",
    "presilting_witness", "proj_replacement", "projective_cache",
    "projective_complex", "semifree_resolve", "serialize_instance",
    "silting_equivalent", "silting_report", "simple_module", "smart_truncate",
    "verify_all", "verify_corollary_roundtrip", "verify_counit",
    "verify_delta", "verify_fully_faithful", "verify_tilting_theorem",
    "verify_weak_nonpositive",
]
