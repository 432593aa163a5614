#!/usr/bin/env python3
"""Analyze every bundled empirical model: no-signalling audit, global
sections, contextual fraction, decomposition/certificate, CHSH value,
and the size and exactness method of the one LP that gives the last
three."""

import sys

from sllab.contextuality import (
    ScenarioError,
    check_no_signalling,
    chsh_value,
    contextual_fraction,
    enumerate_global_sections,
    load_model,
)
from sllab.fixtures import FIXTURE_NAMES, fixture_path


def _lp(lp):
    """LP size and how its answer was made exact."""
    return f"LP {lp['rows']}x{lp['cols']}, {lp['method']}"


def main():
    for name in FIXTURE_NAMES:
        model = load_model(fixture_path(name))
        ns = check_no_signalling(model)
        sections = enumerate_global_sections(model)
        cf = contextual_fraction(model)
        dec = cf.decomposition
        try:
            chsh = f"{chsh_value(model):.4f}"
        except ScenarioError:  # not a CHSH scenario
            chsh = "n/a"
        print(f"{name}:")
        print(f"  no-signalling max violation: {ns.max_violation:.2e}")
        print(f"  global sections: {len(sections)}")
        print(f"  {_lp(cf.lp)}")
        print(f"  contextual fraction: {float(cf.fraction):.6f} "
              f"(dual gap {cf.dual_gap:.1e})")
        if dec.feasible:
            print("  noncontextual decomposition: feasible")
        else:
            cert = dec.certificate
            print(f"  certificate: value {float(cert.value):.4f} > "
                  f"classical bound {float(cert.classical_bound):.4f}")
        print(f"  CHSH: {chsh}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
