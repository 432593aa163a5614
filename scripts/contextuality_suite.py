#!/usr/bin/env python3
"""Analyze every bundled empirical model: no-signalling audit, global
sections, contextual fraction, decomposition/certificate, CHSH value,
and the size and exactness method of each LP."""

import sys

from sllab.contextuality import (
    check_no_signalling,
    chsh_value,
    contextual_fraction,
    enumerate_global_sections,
    load_model,
    noncontextual_decompose,
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
        dec = noncontextual_decompose(model)
        try:
            chsh = f"{chsh_value(model):.4f}"
        except Exception:
            chsh = "n/a"
        print(f"{name}:")
        print(f"  no-signalling max violation: {ns.max_violation:.2e}")
        print(f"  global sections: {len(sections)}")
        print(f"  contextual fraction: {float(cf.fraction):.6f} "
              f"(dual gap {cf.dual_gap:.1e}; {_lp(cf.lp)})")
        if dec.feasible:
            print(f"  noncontextual decomposition: feasible ({_lp(dec.lp)})")
        else:
            cert = dec.certificate
            print(f"  certificate: value {float(cert.value):.4f} > "
                  f"classical bound {float(cert.classical_bound):.4f} "
                  f"({_lp(dec.lp)})")
        print(f"  CHSH: {chsh}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
