"""Walk through the sharp weight bound for Carlitz rank-2 permutations.

Sweeps every normalized length-2 chain over a few fields, tabulates the
weight distribution, and checks the minimum against q - q/p - 1 - nu_p.
Run:  python3 demos/sharp_rank2_bound.py
"""

import numpy as np

from ffperm import carlitz as cz
from ffperm import counting as ct
from ffperm.gf import make_field


def main():
    print("Sharp weight bound for rank-2 permutation polynomials")
    print("=" * 60)
    for p, n in [(7, 1), (3, 2), (11, 1), (13, 1), (5, 2)]:
        ctx = make_field(p, n)
        q = ctx.q
        nu = ct.nu_p(p).nu
        sharp = cz.cor_rank2_bound(ctx, nu)
        thm = cz.thm_rank2_bound(ctx)
        sw = cz.sweep_rank2(ctx)
        weights = sw.weights[sw.exact_rank2]
        hist = {int(w): int(c) for w, c in
                zip(*np.unique(weights, return_counts=True))}
        print(f"\nF_{q} (p = {p}): nu_p = {nu}, "
              f"bounds: {thm:.3f} (theorem) / {sharp} (sharp)")
        print(f"  weight histogram over {len(weights)} exact-rank-2 chains:")
        for w in sorted(hist):
            marker = "  <- sharp minimum" if w == sharp else ""
            print(f"    weight {w:3d}: {hist[w]:5d}{marker}")
        assert weights.min() >= sharp
    print("\nThe minimum weight attains q - q/p - 1 - nu_p on every field.")

    # the explicit family over F_11 and F_121
    print("\nThe attaining family:")
    for n in (1, 2):
        f = cz.example_fn(n)
        from ffperm.polyring import weight
        print(f"  n = {n}: q = {11 ** n}, weight = {weight(f)} "
              f"= q - q/11 - 4")


if __name__ == "__main__":
    main()
