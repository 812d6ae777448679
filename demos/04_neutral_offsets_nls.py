"""Neutral-bus voltage offsets and their mitigation by neutral line switching.

Under full asymmetry the return currents flowing through metallic-return
conductors and grounding electrodes lift the station neutral points several
kilovolts off earth.  Capping those offsets costs dispatch freedom; opening
selected return conductors decouples the neutral points and buys some of it
back at zero cost.
"""

from hvdcopf import (OpfOptions, compile_program, load_builtin_case, neutral_offsets, objective_in_currency,
                     solve_minlp)

grid = load_builtin_case()
outage = "Cb-A1.a"
candidates = ("LD-2", "LD-5", "LD-7", "LD-9")  # every metallic-return conductor


def run(offset_limit_kv, nls):
    opts = OpfOptions(
        n_b=0, outage=outage,
        offset_limit_kv=offset_limit_kv,
        nls_candidates=candidates if nls else (),
    )
    template = compile_program(grid, opts)  # each switching plan's program selects rows of it
    res = solve_minlp(template.program, template.catalogue)
    values = res.solution.values()
    eur = objective_in_currency(res.solution.problem, res.objective)
    opened = sorted(bd for bd, v in res.assignment.state(0, "gamma").items() if v == 0)
    return eur, neutral_offsets(grid, values), opened


print("full asymmetry after the Cb-A1.a outage, no offset limit:")
eur_u, offsets, _ = run(None, False)
for st, (_, kv) in offsets.items():
    print(f"  {st}: {kv:+7.2f} kV")
print(f"  cost {eur_u:,.0f} EUR/h\n")

print(f"{'limit':>12} {'base EUR/h':>12} {'with NLS':>12}  lines opened")
print(f"{'unrestricted':>12} {eur_u:>12,.0f} {'-':>12}")
for limit in (8.0, 4.0):
    base, _, _ = run(limit, False)
    nls, _, opened = run(limit, True)
    print(f"{limit:>10.0f} kV {base:>12,.0f} {nls:>12,.0f}  {', '.join(opened) or '-'}")

print()
print("tightening the offset limit raises the cost; switching return conductors")
print("out recovers part of it while every station keeps a grounded reference")
print("(the guard rejects any plan that would strand a neutral point).")
