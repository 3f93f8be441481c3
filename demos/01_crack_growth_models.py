"""Crack-growth closed forms: evaluation, inversion, equivalent stress.

Walks the Paris-law machinery: the closed-form length profile against a
brute-force ODE integration, the exact m = 2 exponential branch, algebraic
cycles-to-failure inversion, and the power-mean equivalent amplitude for
two-block loading.
"""

import math

from scipy.integrate import solve_ivp

from hbprog.models import CrackGeometry, LoadingSpec, ParisCrackModel, equivalent_stress

geometry = CrackGeometry(a0=1.0, n0=0.0, a_f=25.0)
loading = LoadingSpec("constant", delta_sigma=60.0)
model = ParisCrackModel(geometry, loading)  # default nominals m0 = 2, log C0 = -18.6

print("== closed form vs adaptive ODE integration ==")
for theta1 in (0.8, 1.0, 1.2, 1.5):
    theta = (theta1, 1.0)
    m, c = theta1 * model.m0, math.exp(model.log_c0)
    nf = model.cycles_to_failure(theta)
    dn = 0.5 * nf
    closed = model.predict(theta, dn)[0]

    def rate(_, a, m=m, c=c):
        return c * (60.0 * math.sqrt(math.pi * a[0])) ** m

    ode = solve_ivp(rate, (0, dn), [1.0], rtol=1e-11, atol=1e-13).y[0, -1]
    print(
        f"  m={m:4.1f}: a({dn:9.1f}) closed={closed:10.6f} mm  "
        f"ode={ode:10.6f} mm  rel.err={abs(closed - ode) / ode:.2e}"
    )

print("\n== cycles to failure and round trip ==")
for theta in [(1.0, 1.05), (1.1, 1.02), (0.9, 1.1)]:
    nf = model.cycles_to_failure(theta)
    a_back = model.predict(theta, nf)[0]
    print(f"  theta={theta}: N_f={nf:10.1f} cycles, a(N_f)={a_back:.9f} mm")

print("\n== m ~ 2 singular branch ==")
nf2 = model.cycles_to_failure((1.0, 1.0))  # exactly m = 2 with the default nominals
rate2 = math.exp(model.log_c0) * (60.0 * math.sqrt(math.pi)) ** 2
print(f"  exponential branch N_f = {nf2:.3f}")
print(f"  hand formula ln(a_f/a0)/rate = {math.log(25.0) / rate2:.3f}")

print("\n== equivalent stress amplitude for two-block loading ==")
two_block = LoadingSpec("two-block", delta_sigma1=60.0, n1=50, delta_sigma2=80.0, n2=50)
for m in (1.0, 2.0, 3.0, 6.0):
    print(f"  m={m}: equivalent amplitude = {equivalent_stress(two_block, m):.4f} MPa")
print("  (m=1 gives the arithmetic mean 70; larger m weights the heavy block)")
