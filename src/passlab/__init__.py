"""passlab: a desk-scale laboratory for level-band deformation flows and
two-pin mountain-pass minimax estimation, with exact grid oracles."""

__version__ = "0.1.0"

from .fields import (DomainBox, ScalarField, catalog_field, catalog_names,
                     default_box, polynomial_field, gradient_check)
from .bands import (BandPartition, DeformationParams, RegionSpec, RegionTag,
                    ExactAffineBackend, FirstOrderBackend, SampledBackend,
                    build_backend, classify_region, region_distance, psi)
from .flow import (DeformationField, FlowConfig, Trajectory, vector_field,
                   integrate_flow, eta, verify_deformation)
from .paths import (MountainPassInstance, DiscretePath, make_path,
                    path_extrema, deform_path)
from .minimax import (MinimaxResult, ProofTrace, PSReport, GeometryCheckResult,
                      optimize_c1, optimize_c2, check_conclusions,
                      trace_proof_argument, ps_probe, check_mpt_geometry)
from .gridoracle import (GridGraph, OracleResult, bottleneck_value,
                         widest_value, enumerate_small, critical_scan)
