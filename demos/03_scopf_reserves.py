"""Security-constrained OPF with reserves over all eight pole outages.

One coupled program holds the pre-contingency state plus a post-contingency
state per converter-pole outage; generator reserves link them.  Allowing
asymmetric operation as a post-contingency corrective action lowers the
total (energy + reserve) cost.
"""

from hvdcopf import (OpfOptions, compile_program, load_builtin_case, objective_in_currency, reserve_cost_in_currency,
                     solve_minlp)

grid = load_builtin_case()
contingencies = grid.pole_converter_ids()
print(f"contingencies: {', '.join(contingencies)}\n")

print(f"{'N_b':>4} {'total EUR/h':>12} {'reserves EUR/h':>15}")
totals = {}
for n_b in (3, 0):
    opts = OpfOptions(n_b=n_b)
    template = compile_program(grid, opts, contingencies)  # one SCOPF shape; B&B nodes select rows
    res = solve_minlp(template.program, template.catalogue)
    reserve = reserve_cost_in_currency(res.solution.problem, res.solution.x)
    totals[n_b] = objective_in_currency(res.solution.problem, res.objective)
    print(f"{n_b:>4} {totals[n_b]:>12,.0f} {reserve:>15,.0f}")

print()
red = 100 * (totals[3] - totals[0]) / totals[3]
print(f"letting every station act asymmetrically post-contingency cuts the total by {red:.2f}%")
print("(the intermediate budgets N_b=2,1 run through branch-and-bound over the")
print(" per-scenario station choices; see the scopf study in the CLI for the full sweep)")
