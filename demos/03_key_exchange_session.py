#!/usr/bin/env python3
"""A full key-exchange session: random choices, classification, secure bits.

Each bit period both parties connect a randomly chosen resistor; each then
reads the wire's mean-square voltage and infers the partner's choice from
the level table.  LH/HL bits are kept for the key, LL/HH discarded.
"""

import numpy as np

from kljnsim import Sampling, SessionConfig, classic_kljn, level_table, run_session
from kljnsim.protocol import CASES, secure_bit_value


def main() -> None:
    scheme = classic_kljn(1e3, 1e4, 1.0, 500.0)
    config = SessionConfig(
        scheme=scheme,
        sampling=Sampling(samples_per_bit=16384, oversample=16.0),
        bits_per_run=500,
        runs=2,
        master_seed=7,
    )
    print(f"simulating {config.runs} runs x {config.bits_per_run} bits "
          f"({config.sampling.samples_per_bit} samples/bit "
          f"at {2 * scheme.bandwidth * config.sampling.oversample:g} Hz)")
    session = run_session(config)

    bits = session.bits
    secure = bits.secure
    errors = session.misclassified.sum()
    print(f"secure fraction: {secure.sum()/secure.size:.3f} (expected 0.5)")
    print(f"classification errors: {errors} of {secure.size} bits")

    lt = level_table(scheme)
    print("\nmeasured wire mean-square voltage by case (vs analytic level):")
    for tag, case in enumerate(CASES):
        vals = bits.u2[bits.case == tag]
        print(f"  {case}: {np.mean(vals):.4f} V^2 over {len(vals):3d} bits "
              f"(level {lt[case].u2:.4f})")

    key = [secure_bit_value(CASES[c]) for c in bits.case[secure][:32]]
    print(f"\nfirst {len(key)} key bits (HL=1 convention): {''.join(map(str, key))}")
    agreed = not session.misclassified[secure].any()
    print(f"every secure bit classified correctly by both parties: {agreed}")


if __name__ == "__main__":
    main()
