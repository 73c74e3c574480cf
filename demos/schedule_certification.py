"""Certify stepsize schedules before trusting them.

The accelerated loop is only as good as its extrapolation sequence
t_1 <= t_2 <= ...: every guarantee hangs on the growth condition
(t_{k+1}^2 - t_k^2) / t_{k+1} <= rho for some rho <= 1.  This script
measures that constant for each shipped rule, shows the dual-stepsize
range eta it buys, and does the same for a scaled variant.

Run:  python3 demos/schedule_certification.py
"""

from dataclasses import replace

import numpy as np

from aalm.schedule import (ScheduleError, attouch_cabot, certify_rho,
                           chambolle_dossal, custom_schedule, generate,
                           nesterov, resolve)

K_MAX = 100_000

print("== growth constants (measured over k <= %d) ==" % K_MAX)
rules = [
    ("nesterov", nesterov()),
    ("chambolle-dossal(10)", chambolle_dossal(10.0)),
    ("chambolle-dossal(5)", chambolle_dossal(5.0)),
    ("attouch-cabot(4)", attouch_cabot(4.0)),
]
for name, sched in rules:
    rho_hat = certify_rho(sched, K_MAX)
    print(f"  {name:22s} rho_hat = {rho_hat:.12f}  "
          f"eta in [{min(rho_hat, 1.0):.6f}, 1]")

# The classical rule sits exactly at the critical edge rho = 1: the
# recurrence t_{k+1}^2 - t_k^2 = t_{k+1} holds to extended precision.
t = generate(nesterov(), 10_000)
defect = float(np.max(np.abs(t[1:] ** 2 - t[:-1] ** 2 - t[1:])))
print(f"\nnesterov recurrence defect sup_k |t_k+1^2 - t_k^2 - t_k+1| ="
      f" {defect:.2e}")

# Noncritical schedules (rho < 1) leave room to pick eta strictly inside
# (rho, 1), which upgrades O(1/t^2) rates to little-o and adds iterate
# convergence.  resolve() pins the keywords to numbers:
for eta in (None, "critical", "noncritical", 0.5):
    sched = resolve(chambolle_dossal(10.0, eta=eta))
    print(f"  cd(10) eta={eta!r:14} -> rho={sched.rho:.9f} "
          f"eta={sched.eta:.9f}")

print("\n== schedules that fail certification ==")
for name, bad in [
    ("attouch-cabot(2)  [ratio -> 2/(alpha-1) = 2 > 1]", attouch_cabot(2.0)),
    ("constant t_k = 1  [never grows]",
     custom_schedule(lambda k: 1.0)),
]:
    try:
        certify_rho(bad, 1000)
    except ScheduleError as e:
        print(f"  {name}: rejected ({e})")

print("\n== scaled variants ==")
base = chambolle_dossal(10.0)
for label, xi in [("xi = sqrt(t)", np.sqrt), ("xi = t", lambda t: t)]:
    rho_s = certify_rho(replace(base, xi=xi), K_MAX)
    print(f"  cd(10) with {label:12s} rho_scaled = {rho_s:.9f}  (certified)")
try:
    certify_rho(replace(base, xi=lambda t: t ** 8), 1000)
except ScheduleError as e:
    print(f"  cd(10) with xi = t^8: rejected ({e})")
