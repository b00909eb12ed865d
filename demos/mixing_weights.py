"""Mixing-weight story: cannot-links reshape the class priors.

Without cannot-links the class weights α are just normalized counts.
Each cannot-link divides its pair prior by (1 − Σα²), so the concentrated
objective gains a −n_cannot·log(1 − Σα²) term that *rewards concentrated*
weights — a rich-get-richer force.  With two classes 1 − Σα² = 2α₁α₂, so
the optimum has a closed form, α ∝ c − n_cannot, reported as steps=0.
Three or more classes take the projected-Newton solver.  When the force
wins outright (tiny counts, many links: some c_m ≤ n_cannot) the optimum
is a simplex vertex; projected Newton rails the weights there and says so.

Run:  python demos/mixing_weights.py
"""

import numpy as np

from pairmix import optimize_mixing_info


def show(counts, n_cannot):
    alpha, info = optimize_mixing_info(np.asarray(counts, float), n_cannot)
    flag = "  [railed to the boundary]" if info.railed else ""
    print(
        f"  counts={counts!s:<14} cannot-links={n_cannot:<3} -> "
        f"alpha=({', '.join(f'{a:.4f}' for a in alpha)})  "
        f"steps={info.n_steps} kkt={info.kkt_residual:.1e}{flag}"
    )


def main():
    print("no cannot-links: weights are count proportions (closed form)")
    show([30.0, 10.0], 0)
    print()

    print("adding cannot-links pulls weight toward the largest class")
    print("(two classes: closed form alpha ~ counts - cannot-links, steps=0):")
    for n_cannot in (1, 2, 4, 6):
        show([30.0, 10.0], n_cannot)
    print()

    print("three classes, same effect — the smallest class pays first")
    print("(projected Newton once there are cannot-links):")
    for n_cannot in (0, 4, 8):
        show([24.0, 12.0, 4.0], n_cannot)
    print()

    print("when links dominate the counts, the optimum leaves the interior;")
    print("the two-class closed form does not apply and Newton rails:")
    show([30.0, 10.0], 40)
    show([0.5, 0.3], 25)
    print()
    print("Inside EM the counts are responsibility masses (hundreds of")
    print("points), so the interior case is the one that occurs in practice:")
    print("two-class fits take the closed form (steps=0) except when they")
    print("rail, and fits with more classes a handful of Newton steps.")


if __name__ == "__main__":
    main()
