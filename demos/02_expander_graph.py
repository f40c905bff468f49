"""Build the 20-regular Cayley graph of PSL_2(19) and certify it.

The generator set is a single torus orbit: a nonsplit torus of order
q + 1 = 20 inside PGL_2(19) conjugates one explicitly constructed
element gamma (the image of 1 + z^-1 under a quaternion-algebra
splitting).  That symmetry makes the graph edge transitive, and its
normalized spectrum meets the optimal-expansion bound 2 sqrt(q)/(q+1).
The spectrum comes from the two 180 x 180 determinant-class blocks of
a 360 x 360 matrix built from the generators (the Gelfand-Graev
representation; the whole matrix is never formed) and is compared
with the dense eigenvalues of the 3420 x 3420 adjacency matrix, the
reference kept with the tests.

Runs in a few seconds, from the root of the checkout:

    PYTHONPATH=src:tests python3 demos/02_expander_graph.py
"""

from cayleycodes import (build_generators, choose_ideal, classify, edge_orbit,
                         is_ramanujan, ramanujan_bound, spectrum,
                         symmetry_edge_permutations)
from cayleycodes.graphs import graph_from_generators

from group_reference import verify_vertex_transitive
from spectra_reference import set_distance, spectrum_dense

params = choose_ideal(19, 1, "psl")
print(f"parameters: q=19, delta={params.delta}, ybar={params.ybar} "
      f"(ybar/(1+ybar) is a quadratic residue)")

gens = build_generators(params)
print(f"|S| = {len(gens.elements)}, symmetric, identity-free; "
      f"classified as {classify(gens)}")

graph = graph_from_generators(gens)
print(f"graph: {graph.n_vertices} vertices, {graph.n_edges} edges, "
      f"{graph.degree}-regular, bipartite={graph.bipartite}")

rep = spectrum(graph.group, graph.gens)
bound = ramanujan_bound(19)
print(f"lambda2 = {rep.lambda2:.6f}, lambda_min = {rep.lambda_min:.6f}, "
      f"bound = {bound:.6f}")
print(f"expansion certificate: {is_ramanujan(rep, 19)}")

dense = spectrum_dense(graph)
print(f"same eigenvalue set as the dense reference: "
      f"{set_distance(rep.eigenvalues, dense.nontrivial) < 1e-9}")

print(f"vertex transitive: {verify_vertex_transitive(graph)}")
# one BFS over the vertices under the star maps (u, tau) of two symmetry
# generators, taken from the group, gives each vertex the class of its
# path; Schreier's lemma turns each pair of classes that a map joins into
# a generator of the stabiliser of vertex 0 on its star positions
orbit = edge_orbit(graph, symmetry_edge_permutations(graph, gens))
print(f"edge transitive: {orbit.transitive} (orbit of one edge covers {orbit.size} of "
      f"{graph.n_edges} edges; {len(orbit.schreier)} distinct Schreier generators)")
