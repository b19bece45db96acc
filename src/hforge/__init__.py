"""Exact arithmetic for multidimensional Houghton groups and their stability data.

The package is organised in layers: :mod:`hforge.rays` handles the geometry
of rays and ray partitions of N^k x [n], :mod:`hforge.houghton` the group and
category arithmetic of translations on rays, :mod:`hforge.snf` the exact linear
algebra over Z and Q, :mod:`hforge.complexes` finite simplicial complexes with
integral homology plus the bounded stability complexes, and
:mod:`hforge.fimodules` truncated FI-modules with generation-degree reports.
``hforge.cli`` exposes everything as a batch command line tool.
"""

from .errors import SizeLimitError, ValidationError
from .rays import (
    MarkedRay,
    Ray,
    RayPartition,
    Region,
    canonicalize_region,
    common_refinement,
    grid_partition,
    partition_validate,
    ray_intersect,
    ray_split,
    region_complement,
    region_equal,
)
from .houghton import (
    HoughtonMap,
    PermutationN,
    Translation,
    apply_map,
    compose,
    decompose,
    embed_symmetric,
    equals,
    eventual_translation_check,
    extend_to_automorphism,
    fi_map,
    identity_map,
    in_kernel,
    inverse,
    k_ray_offsets,
    random_element,
    sigma_projection,
    translation_vector,
    validate,
)
from .snf import SnfResult, smith_normal_form, snf_diagonal
from .complexes import (
    HomologyResult,
    SimplicialComplex,
    build_s_section,
    build_sn_truncated,
    connectivity_probe,
    homological_connectivity,
    link,
    pi_projection,
    reduced_homology,
    simplex_test,
    simplexwise_injective_check,
    skeleton,
    star,
    verify_s_section,
    wcm_check,
)
from .fimodules import (
    TruncatedFIModule,
    essentially_fg_report,
    generation_degree,
    houghton_h1_fimodule,
    sigma1,
    truncate,
    validate_fimodule,
)

__version__ = "0.1.0"
