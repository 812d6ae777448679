"""Post-contingency OPF: how the symmetric-station budget moves the cost.

After the positive-pole converter of station Cb-A1 trips, its healthy pole
can only keep importing if some other station runs asymmetrically and
absorbs the return current.  Sweeping the number of stations forced to
stay symmetric (N_b) prices that flexibility.
"""

from hvdcopf import OpfOptions, compile_program, load_builtin_case, objective_in_currency, solve_minlp

grid = load_builtin_case()
outage = "Cb-A1.a"

print(f"outage: {outage} (positive-pole converter)\n")
print(f"{'N_b':>4} {'cost EUR/h':>12}  asymmetric stations")
rows = []
for n_b in (3, 2, 1, 0):
    opts = OpfOptions(n_b=n_b, outage=outage)
    template = compile_program(grid, opts)  # every assignment's program selects rows of it
    res = solve_minlp(template.program, template.catalogue)
    eur = objective_in_currency(res.solution.problem, res.objective)
    asym = sorted(s for s, v in res.assignment.state(0, "beta").items() if v == 0)
    rows.append((n_b, eur))
    print(f"{n_b:>4} {eur:>12,.0f}  {', '.join(asym)}")

print()
drop = 100 * (rows[0][1] - rows[-1][1]) / rows[0][1]
print(f"full asymmetric freedom is {drop:.1f}% cheaper than the most constrained case;")
print("the selection consistently prefers the onshore stations as asymmetric partners,")
print("since pushing offshore stations off their symmetric point costs wind export.")
