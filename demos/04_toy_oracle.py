"""Cross-check the parity-check construction against its definition on
a toy everything can be enumerated for.

The graph is the Cayley graph of Z_8 with steps {1, 7, 4} (a cycle
plus diameters, 12 edges); the inner code is the even-weight [3, 2]
code.  Every one of the 4096 edge vectors is filtered through the
definition "all vertex-local views lie in the inner code" and the
result must coincide exactly with the nullspace of the assembled
parity-check matrix.  The two enumerations, the local-view reader and
the toy group Z_n on integer keys are kept with the tests; run from
the root of the checkout:

    PYTHONPATH=src:tests python3 demos/04_toy_oracle.py
"""

from cayleycodes.cyclic import CyclicCode
from cayleycodes.graphs import generate_group
from cayleycodes.tanner import build_parity_check

from code_reference import codeword_set_brute_force, codeword_set_from_nullspace, local_view
from group_reference import ZnGroup

graph = generate_group(ZnGroup(8), [1, 7, 4], cap=9)
inner = CyclicCode(3, 0b11)
inst = build_parity_check(graph, inner)
print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges; "
      f"H is {inst.matrix.nrows} x {inst.n}, rank {inst.rank}")

from_h = codeword_set_from_nullspace(inst)
from_def = codeword_set_brute_force(inst)
print(f"codewords via nullspace:   {len(from_h)}")
print(f"codewords via definition:  {len(from_def)}")
print(f"sets identical: {from_h == from_def}")

w = sorted(from_h)[1]
views = [format(local_view(inst, w, v), "03b") for v in range(8)]
print(f"sample codeword {w:012b} has vertex views {views} "
      "(all even weight)")
