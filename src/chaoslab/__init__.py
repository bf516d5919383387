"""Exact complex Hermite algebra, Gaussian chaos evaluation, and a
fourth-moment Monte Carlo harness over finite-dimensional Gaussian processes.
"""

from .exact import EC, ExactComplex
from .hermite import (BiPoly, complex_hermite, evaluate, expand_monomial,
                      hermite_coeffs, ou_apply, ou_apply_numeric, real_hermite)
from .wick import (GaussPoly, GaussianFamily, expect, expect_complex,
                   isserlis_moment)
from .convert import (AngleMatrix, ConversionTable, IllConditionedError,
                      ThetaGrid, build_angle_matrix, build_angle_matrix_exact,
                      complex_to_hermite_coeffs, conversion_tables,
                      det_closed_form, exact_grid,
                      hermite_to_complex_coeffs, rotation_expand)
from .tensor import (BlockTensor, ComplexKernel, SymTensor, contract,
                     contract_sym, dump_kernel, dump_sym_tensor, inner,
                     kernel_inner, load_kernel, load_sym_tensor,
                     product_moment, symmetrize)
from .chaos import (SampleBatch, decompose, eval_complex, eval_real,
                    exact_moment, sample_batch)
from .fourth_moment import (CriterionSpec, MomentReport, Verdict,
                            block_reference_trajectory, centered_chi2_cdf,
                            chi2_target_moments, component_gaps, estimate,
                            exact_report, gen_block_kernel, ks_distance,
                            normal_cdf, verdict)

__version__ = "0.1.0"
