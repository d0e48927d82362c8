"""Where the RRM and RHS weights put their radiated power.

Splits each weight matrix W into its mean and the rest,
sum W^2 = M*N*mean(W)^2 + sum (W - mean(W))^2, and prints the share of
sum W^2 in the constant mean term, and the ratio of RRM's per-path
amplitude power sum |alpha|^2 to RHS's on the same draws. The setup is
acceptance criterion 9's: Rician channel, L = 5, absolute normalization,
seed 909, default recording (10 dB over 5 symbols) and mean-subtracted RRM
weights.

    PYTHONPATH=src python docs/weight_power_split.py [trials]
"""

from __future__ import annotations

import sys

import numpy as np

from rrmsim import link
from rrmsim.channel import ChannelConfig
from rrmsim.link import LinkScenario, PulseSpec
from rrmsim.surface import ReferenceWaveSpec, SurfaceGeometry


def main(trials: int = 500) -> None:
    channel = ChannelConfig("rician_random", L=5)
    paths, seeds = link.draw_trials(channel, trials, 909)
    ref = ReferenceWaveSpec(2.0)
    print("size   rrm_mean_share  rhs_mean_share  alpha_power_rrm/rhs")
    for size in (8, 16, 32):
        geom = SurfaceGeometry.half_wavelength(size, size, 30.0e9)
        share, power, terms = {}, {}, None
        for system in ("rrm", "rhs"):
            scenario = LinkScenario(
                geom=geom, ref=ref, pulse=PulseSpec(), channel=channel,
                system=system, normalization="absolute",
            )
            terms = terms or link.path_terms(scenario, paths)  # one geometry for both
            w = link.weight_stack_for(scenario, terms, seeds).values
            total = np.sum(w**2, axis=(-2, -1))
            share[system] = np.mean(size * size * np.mean(w, axis=(-2, -1)) ** 2 / total)
            alpha = link.alpha_stack(geom, w, terms.ax, terms.ay, terms.gains)
            power[system] = np.sum(np.abs(alpha) ** 2, axis=-1)
        ratio = np.mean(power["rrm"] / power["rhs"])
        print(f"{size:2d}x{size:<2d}  {share['rrm']:14.3f}  {share['rhs']:14.3f}  {ratio:19.3f}")


if __name__ == "__main__":
    main(*(int(a) for a in sys.argv[1:]))
