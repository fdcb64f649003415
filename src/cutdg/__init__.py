"""Stabilized cut discontinuous Galerkin method for coupled bulk-surface
diffusion-reaction problems on unfitted structured 2D meshes."""

from .exceptions import (ConfigurationError, CutDGError,
                         DegenerateMatrixError, GeometryError, SolverError,
                         StructuralError)
from .forms import (AssembledSystem, StabilizationParams, assemble_system,
                    bulk_form, coupling_form, ghost, ghost_pieces,
                    load_vector, property_grams, stabilized, surface_form)
from .levelset import (CutTopology, LevelSet, build_cut_topology,
                       check_geometry_assumptions, circle_levelset,
                       interpolate_levelset)
from .manufactured import (ErrorReport, ManufacturedProblem,
                           build_circle_problem, compute_errors, eoc)
from .mesh import (BackgroundMesh, build_structured_mesh, face_connectivity,
                   refine_uniform)
from .quadrature import CutQuadrature
from .solver import condition_number, rescaled_matrix, solve
from .space import (BrokenSpace, CombinedDofMap, build_spaces, coarse_points,
                    interpolate_pair, levelset_null_basis, prolongation)

__version__ = "0.1.0"
