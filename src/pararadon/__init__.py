"""Numerical toolkit for the convolution operator with affine surface
measure on a paraboloid: the transform and its adjoint, the symmetry
group and its pullback action, paraballs with their duals and the
quasidistance, Lorentz/entropy decompositions, extremizer search for the
L^p -> L^q ratio, and affine surface measures (affine arclength at d = 2).
"""

from .grid import GridFunction, GridSpec, box_spec
from .norms import (ExponentPair, RoughDecomposition, entropy_refine, lorentz_quasinorm,
                    lp_norm, rough_decompose, tail_mass)
from .operator import (TransformPlan, adjoint_transform, bilinear_form, forward_at_points,
                       forward_transform, inner, rayleigh_ratio)
from .symmetry import (GroupElement, apply_partner_point, apply_point, compose, galilean,
                       general_position, incidence, incidence_defect, interpolate_points,
                       inverse, linear_symmetry, partner, partner_pullback, pullback, scaling,
                       translation)
from .paraball import (Paraball, contains, dual, expanded_contains, fit_paraball,
                       greedy_cover, partition_by_interaction, quasidistance, rasterize,
                       transform_paraball, unit_paraball, volume)
from .extremizer import ExtremizeTrace, extremize, gaussian_init
from .affine import SurfaceChart, affine_invariance_defect, measure, surface_density

__version__ = "0.1.0"
