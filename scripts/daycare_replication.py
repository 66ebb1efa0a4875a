#!/usr/bin/env python3
"""Optional validation against the published daycare-regulation figures.

The reference numbers below come from a published state-by-year analysis of
center-based daycare regulations (1987/1992/1997 panel) regressing family
daycare revenue on four regulation variables. That panel is not bundled with
this package; supply it yourself as a long-format CSV with columns

    g,t,y,n,d1,d2,d3,d4

where y is family daycare revenue, d1 the minimum years of schooling required
of center directors, d2 an indicator for no schooling requirement, d3 the
minimum staff-child ratio, and d4 an indicator for no ratio requirement.
Control variables used in the published regression are not part of this
check; the regression here includes the four treatments and two-way fixed
effects only, so compare with the corresponding specification.

Usage: python scripts/daycare_replication.py PANEL.csv

Exits non-zero if any reproduced figure differs from its reference value by
more than 0.001. Not part of the test suite (needs external data).

d1 and d3 are not binary, and ``decompose`` refuses a non-binary treatment
until ROADMAP item 13 lifts that refusal. So on a panel of the documented
shape the script stops before its comparison: it prints
``error: NonBinaryTreatment: <message>`` to standard error and exits 3. Any
other refusal by the library is reported the same way, with its class name
and exit code (listed in ``multidid --help``).
"""

import sys

import multidid as m

REFERENCE = {
    "beta_fe": -0.445,
    "didm": -0.066,
    "own_cells": 127,
    "own_positive_count": 63,
    "own_negative_count": 64,
    "own_positive_sum": 10.022,
    "own_negative_sum": -9.022,
}
TOLERANCE = 1e-3


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        panel = m.read_panel_csv(argv[1])
        decomp = m.decompose(panel, 0)
        summary = m.summarize(decomp, panel)
        didm_result = m.didm(panel, 0)
    except m.MultiDidError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code

    produced = {
        "beta_fe": decomp.beta_fe,
        "didm": didm_result.estimate,
        "own_cells": len(decomp.own),
        "own_positive_count": summary.own_positive_count,
        "own_negative_count": summary.own_negative_count,
        "own_positive_sum": summary.own_positive_sum,
        "own_negative_sum": summary.own_negative_sum,
    }
    failures = 0
    for key, expected in REFERENCE.items():
        got = produced[key]
        ok = abs(got - expected) <= TOLERANCE
        failures += not ok
        print(f"{key:22s} reference {expected:>10} produced {got:>12.4f} "
              f"{'ok' if ok else 'MISMATCH'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
