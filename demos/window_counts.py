"""Window solution counts for gamma^(i+1) = i*c + d, and their bound.

Scans small primes for the worst window of each length and compares
against sqrt(3M/2 - 39/16) + 5/4.  The scan also exhibits the boundary
case the bound misses: a window [L, L+M] holds M+1 integers, and for
small M the count can reach the value the bound permits only at M+1.
Run:  python3 demos/window_counts.py
"""

from ffperm import counting as ct


def main():
    print("Worst-case window counts vs sqrt(3M/2 - 39/16) + 5/4")
    print("=" * 60)
    for p in [5, 7, 11, 13]:
        scan = ct.window_bound_scan(p)
        print(f"\np = {p}:")
        print("    M   max count   bound(M)   bound(M+1)")
        for M in sorted(scan):
            b = ct.window_bound(M)
            b1 = ct.window_bound(M + 1)
            flag = "" if ct.within_window_bound(scan[M], M) else "   <- exceeds bound(M)"
            print(f"  {M:3d}   {scan[M]:6d}      {b:6.3f}     {b1:6.3f}{flag}")

    print("\nA concrete extremal window (p = 5, M = 3):")
    from ffperm.gf import make_field
    ctx = make_field(5)
    qr = ct.CountQuery(ctx, ctx.from_int(2), ctx.from_int(3), ctx.from_int(2), 0, 3)
    print("  gamma=2, c=3, d=2, window [0, 3]:",
          ct.count_exp_linear(qr), "solutions (i = 0, 2, 3)")


if __name__ == "__main__":
    main()
