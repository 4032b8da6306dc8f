"""Uniform deviations shrink along ergodic sample paths.

The deviation of a family is the largest gap between empirical frequency
and measure over its members. For i.i.d. uniforms and for the golden
rotation this gap decays as the sample grows; the KS statistic (the sup
over half-intervals [0, x)) is computed exactly from order statistics and
dominates the budgeted half-interval family sup.
"""

from ergodic_vc import (
    deviation_trace,
    dyadic_class,
    generate,
    half_interval_class,
    iid_spec,
    ks_statistic,
    rotation_spec,
    uniform_deviation,
)


def main():
    print("golden rotation, KS statistic by sample size:")
    path = generate(rotation_spec(seed=0), 10_000)
    for m in (10, 100, 1000, 10_000):
        v = ks_statistic(path, m)
        print(f"  m={m:>6}  ks = {float(v):.6f}")
    print()

    print("i.i.d. uniforms, dyadic family deviation (seed 0):")
    iid_path = generate(iid_spec(0), 10_000)
    fam = dyadic_class(4)
    for m in (10, 100, 1000, 10_000):
        res = uniform_deviation(fam, fam.size, iid_path, m)
        print(f"  m={m:>6}  gamma = {float(res.value):.6f}  argmax member {res.argmax}")
    print()

    print("KS dominates the budgeted half-interval sup (m=1000):")
    half = half_interval_class()
    sup = uniform_deviation(half, 256, iid_path, 1000)
    ks = ks_statistic(iid_path, 1000)
    print(f"  half-interval sup {float(sup.value):.6f} <= ks {float(ks):.6f}")
    print()

    print("seeded trace bundle (CSV rows, exact rationals):")
    bundle = deviation_trace(fam, 30, iid_spec(0), [100, 1000], [0, 1, 2], workers=1)
    print("  seed,m,gamma_num,gamma_den,gamma_f64,argmax_member")
    for row in bundle.csv_rows():
        print(" ", row)
    medians = ", ".join(f"{float(v):.4f}" for v in bundle.median_values)
    print(f"  medians over seeds by m: {medians}")


if __name__ == "__main__":
    main()
