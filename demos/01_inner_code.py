"""Build the even-length inner code used by the headline construction.

BCH codes over F_2 have odd length 2^m - 1; the edge code needs an
inner code of even length q + 1 = 2(2^m - 1).  The doubling transform
interleaves two copies of the BCH code into a cyclic code of twice the
length: same rate, same minimum distance (so half the normalized
distance).
"""

from fractions import Fraction

from cayleycodes import cyclic

# small, fully checkable: BCH(4, 2) is the [15, 11] Hamming code
code = cyclic.bch_code(4, 2)
exact = cyclic.min_distance(code)
print(f"BCH(4,2): [{code.n}, {code.dim}] exact minimum distance {exact.value}")

doubled = cyclic.double_length(code)
witness = cyclic.interleave(exact.witness, 0, code.n)
print(f"doubled:  [{doubled.n}, {doubled.dim}], weight-3 witness present: "
      f"{doubled.contains(witness) and witness.bit_count() == 3}")

# the headline instance: q = 4093 = 2^12 - 3, m = 11, a = 8
res = cyclic.check_good_inner_code(4093, 11, 8)
p = res.params
print(f"\nheadline inner code: n={p.n} k={p.k} rate={p.rate} "
      f"(~{float(p.rate):.4f})")
print(f"rate >= 1/2 + 1/8:   {res.rate_ok}   (threshold {Fraction(5, 8)})")
print(f"designed delta:      {p.delta_lower} (~{float(p.delta_lower):.5f})")
print(f"expansion threshold: {cyclic.ramanujan_bound(4093):.5f}")
print(f"delta beats it:      {res.distance_ok}   (exact rational comparison)")
