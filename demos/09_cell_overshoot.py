"""The direct argument: join cells where a set's local deviation overshoots.

The proof needs no symmetrization. Fix finitely many sets of the class and
their join. Each join cell A is one fixed set, so along an ergodic path the
frequency of C n A tends to its measure. A cell is flagged when the local
deviation of C n A passes (eta/2) * lambda(A). The flagged cells form a set
G whose measure shrinks as the sample grows. Summing the per-cell
deviations bounds the deviation of C from above.
"""

from fractions import Fraction

from ergodic_vc import (
    cellwise_deviation_sum,
    discrepancy,
    generate,
    high_discrepancy_cells,
    iid_spec,
    iu,
    join,
    rotation_spec,
    subset_indexed_sets,
)


def main():
    jp = join(subset_indexed_sets(2))
    c = iu("[0,1/3) u [2/3,5/6)")
    eta = Fraction(1, 10)
    print(f"join of {jp.k} sets: {len(jp.cells)} cells; C = {c}; eta = {eta}")
    for label, spec in (("golden rotation", rotation_spec(seed=0)), ("i.i.d. uniforms", iid_spec(0))):
        path = generate(spec, 10_000)
        print(f"{label}:")
        print("       m   dev(C)  cell sum  flagged  lambda(G)")
        for m in (10, 100, 1000, 10_000):
            whole = discrepancy(c, path, m)
            total = cellwise_deviation_sum(jp, c, path, m)
            over = high_discrepancy_cells(jp, c, path, m, eta)
            print(f"  {m:>6}  {float(whole):.5f}  {float(total):.5f}  "
                  f"{len(over.flagged):>3}/{len(jp.cells)}  {float(over.measure):.5f}")


if __name__ == "__main__":
    main()
