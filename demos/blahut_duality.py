"""Weight / linear-complexity duality, hands on.

For f reduced mod x^q - x and alpha primitive, the sequence s_n =
f(alpha^n) has linear complexity equal to the folded weight of f.  This
script shows the identity on the low-weight rank-2 family and on the one
shape where folding genuinely matters.
Run:  python3 demos/blahut_duality.py
"""

from ffperm import carlitz as cz
from ffperm import lincomp as lc
from ffperm.gf import make_field
from ffperm.polyring import Poly, weight


def show(f, label):
    lcv, fw, eq = lc.blahut_check(f)
    print(f"  {label:34s} weight {weight(f):3d}  folded {fw:3d}  "
          f"linear complexity {lcv:3d}  equal: {eq}")


def main():
    print("Linear complexity of s_n = f(alpha^n) vs the weight of f")
    print("=" * 66)

    print("\nRank-2 chains over F_11:")
    ctx = make_field(11)
    for a in [(-1, 2, 1, -8), (-1, 1, 4, 0), (-1, 0, 1, 5)]:
        ch = cz.Chain(ctx, tuple(ctx.from_int(v) for v in a))
        show(cz.expand_chain(ch), f"chain {a}")

    print("\nThe sharp-family member f_1 (weight 6 = 11 - 1 - 1 - 3):")
    show(cz.example_fn(1), "f_1 over F_11")

    print("\nWhere the fold matters (x^(q-1) = 1 on F_q*):")
    ctx5 = make_field(5)
    g = Poly.from_coeffs(ctx5, [1, 0, 0, 0, 4])  # 1 + 4x^4, zero on F_5*
    lcv, fw, eq = lc.blahut_check(g)
    print(f"  f = 1 + 4x^4 over F_5: raw weight {weight(g)}, folded weight {fw}, "
          f"linear complexity {lcv}")
    print(f"  folded comparison: {eq};  unfolded comparison: {weight(g) == lcv}")


if __name__ == "__main__":
    main()
