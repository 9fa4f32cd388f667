#!/usr/bin/env python3
"""Sweep alphabet growth q = n^alpha and report how the guaranteed code size
closes the gap to the Singleton log-size: eta should fall as alpha grows."""

import argparse

from delcode import singleton_report, size_lower_bound


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=16)
    parser.add_argument("--t", type=int, default=2)
    parser.add_argument("--alphas", type=str, default="2.5,3,4,6,8")
    args = parser.parse_args()

    print(f"{'alpha':>6} {'q':>12} {'eta':>9} {'red. actual':>12} {'red. bound':>11}")
    for alpha in (float(v) for v in args.alphas.split(",")):
        q = round(args.n**alpha)
        exact, _ = size_lower_bound(q, args.n, args.t)
        report = singleton_report(q, args.n, args.t, code_size=exact)
        print(
            f"{alpha:>6.2f} {q:>12} {report['eta']:>9.4f} "
            f"{report['redundancy_actual']:>12.3f} {report['redundancy_bound']:>11.3f}"
        )


if __name__ == "__main__":
    main()
