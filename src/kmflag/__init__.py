"""Exact Weyl-group, moment-graph and Kazhdan-Lusztig combinatorics for
symmetrizable Kac-Moody root data.

Importing the package loads no submodule: each public name, and each
submodule, is imported on first access, so a process pays only for the
layers it uses.
"""

import importlib

#: submodule -> the public names it defines
_PUBLIC = {
    "bmp": ("BMPSheaf", "GraphSheaf", "compute_bmp", "default_degree_cap",
            "stalk_poincare", "verify_against_inverse_kl"),
    "category_o": ("BlockSpec", "CharacterSeries", "SheafTable", "antidominant_block",
                   "classify_weight", "irreducible_character", "jh_multiplicity",
                   "kostant_partition", "projective_verma_multiplicity",
                   "verma_character"),
    "graded_algebra": ("CyclicPiece", "GradedModuleRep", "ModuleAmbient",
                       "minimal_generators"),
    "kl": ("KLTable", "QPoly"),
    "moment_graph": ("Edge", "MomentGraph", "build_moment_graph", "covering_relations"),
    "root_datum": ("RootDatum", "validate_cartan"),
    "weyl": ("BruhatIdeal", "WeightCoords", "WeylElement", "bruhat_leq", "dot_action",
             "enumerate_ideal", "format_word", "full_weyl_group",
             "ideal_from_generators", "identity", "inverse", "inversion_set",
             "lower_reflections", "multiply", "parse_word", "reflection",
             "simple_reflection", "sj_complement", "stratum_dimension"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}
_SUBMODULES = frozenset((*_PUBLIC, "errors"))

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        # the submodule's binding at the time of access, so a rebound name is seen
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
