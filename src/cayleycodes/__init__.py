"""Edge-transitive expander Cayley graphs over PSL/PGL, cyclic inner
codes of even length, and machine-verified LDPC codes on the edges.

The names in __all__ resolve lazily (PEP 562): the first use of one
imports its defining submodule, so `import cayleycodes` loads no numpy.
Other names raise AttributeError, so `from cayleycodes import cli`
imports the submodule.
"""

from importlib import import_module

_EXPORTS = {
    "cyclic": "CodeParams CyclicCode bch_code bch_generator check_good_inner_code "
              "designed_params double_length dual_generator edge_code_bounds "
              "interleave min_distance ramanujan_bound",
    "errors": "CheckFailure ConstructionError",
    "fields": "FieldTables",
    "gf2": "Gf2Matrix",
    "gf2poly": "",
    "graphs": "CayleyGraph edge_orbit generate_group graph_from_generators "
              "symmetry_edge_permutations",
    "projective": "PglGroup",
    "quaternion": "GeneratorSet ResidueParams build_generators choose_ideal classify "
                  "residue_params split_quaternion",
    "spectra": "SpectrumReport is_ramanujan spectrum",
    "tanner": "CayleyCodeInstance VerificationReport build_parity_check measured_rate "
              "run_verification verify_invariance verify_single_orbit",
}
# name -> defining submodule; a submodule's own name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in [module, *names.split()]}

__version__ = "0.1.0"
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{_MODULE_OF[name]}", __name__)
    return module if name == _MODULE_OF[name] else getattr(module, name)
