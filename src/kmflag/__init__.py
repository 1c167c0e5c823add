"""Exact Weyl-group, moment-graph and Kazhdan-Lusztig combinatorics for
symmetrizable Kac-Moody root data."""

from .bmp import (
    BMPSheaf,
    compute_bmp,
    default_degree_cap,
    stalk_poincare,
    verify_against_inverse_kl,
)
from .category_o import (
    BlockSpec,
    CharacterSeries,
    SheafTable,
    antidominant_block,
    classify_weight,
    irreducible_character,
    jh_multiplicity,
    kostant_partition,
    projective_verma_multiplicity,
    verma_character,
)
from .graded_algebra import (
    CyclicPiece,
    GradedModuleRep,
    ModuleAmbient,
    degree_basis,
    minimal_generators,
)
from .kl import KLTable, QPoly
from .moment_graph import (
    Edge,
    GraphSheaf,
    MomentGraph,
    build_moment_graph,
    constant_sheaf,
    covering_relations,
    sections,
)
from .root_datum import RootDatum, validate_cartan
from .weyl import (
    BruhatIdeal,
    WeightCoords,
    WeylElement,
    bruhat_leq,
    dot_action,
    enumerate_ideal,
    format_word,
    full_weyl_group,
    ideal_from_generators,
    identity,
    inverse,
    inversion_set,
    lower_reflections,
    multiply,
    parse_word,
    reflection,
    simple_reflection,
    sj_complement,
    stratum_dimension,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
