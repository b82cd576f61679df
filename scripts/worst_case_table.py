"""Compare theoretical worst-case efficiencies with measured walk ratios.

For each curvature, prints the closed-form guarantees next to the adversarial
walk ratio realized on the matching tight construction.  The chain's column
divides by its reference allocation, which is the optimum only for C >= 1/2.
"""
from resgames import (
    build_common_interest_chain,
    build_two_agent_worst_case,
    design_one_round,
    measured_ratio,
    theory_bounds,
)


def main():
    print(f"{'C':>5} | {'1-C/2':>8} {'measured':>9} | {'1/(1+C)':>8} {'walk/ref':>9} | {'1-C/e':>8}")
    for i in range(5):
        c = i * 0.25
        two = build_two_agent_worst_case(c, design_one_round(c))
        chain = build_common_interest_chain(200, c)
        print(
            f"{c:5.2f} | {theory_bounds(c, 'one', 'optimal'):8.5f} {measured_ratio(two, 1):9.5f}"
            f" | {theory_bounds(c, 'one', 'common_interest'):8.5f} {measured_ratio(chain, 1):9.5f}"
            f" | {theory_bounds(c, 'infinity', 'optimal'):8.5f}"
        )


if __name__ == "__main__":
    main()
