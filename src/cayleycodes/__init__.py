"""Edge-transitive expander Cayley graphs over PSL/PGL, cyclic inner
codes of even length, and machine-verified LDPC codes on the edges."""

from .cyclic import (CodeParams, CyclicCode, bch_code, bch_generator,
                     check_good_inner_code, designed_params, double_length,
                     dual_generator, interleave, min_distance)
from .errors import CheckFailure, ConstructionError
from .fields import FieldTables
from .gf2 import Gf2Matrix
from .graphs import (CayleyGraph, generate_group, graph_from_generators,
                     symmetry_edge_permutations, verify_edge_transitive)
from .projective import PglGroup
from .quaternion import (GeneratorSet, ResidueParams, build_generators,
                         choose_ideal, classify, residue_params,
                         split_quaternion)
from .spectra import SpectrumReport, is_ramanujan, ramanujan_bound, spectrum
from .tanner import (CayleyCodeInstance, VerificationReport,
                     build_parity_check, code_distance, measured_rate,
                     run_verification, edge_code_bounds, verify_invariance,
                     verify_single_orbit)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
