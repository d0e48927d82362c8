"""The load boundary: a config that loads runs, and one that does not exits 2.

Draws the amplitude and gain fields and ``recording.snr_db`` inside, at and
beyond their load-time bounds (docs/config.md), and runs ``record`` and
``mi-sweep --reps 1`` on a 4x4 surface. A config that ``config_from_dict``
accepts must exit 0 from both, without a numeric warning; one it rejects
must exit 2 from both, never 4.
"""

import json
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.harness.cli import main
from rrmsim.harness.config import ConfigError, config_from_dict

LIMIT = 1.0e4  # the amplitude bound A of docs/config.md
DB_LIMIT = 300.0


def _beyond(value: float) -> float:
    """The next float past value, away from zero."""
    return math.nextafter(value, math.copysign(math.inf, value))


def _log_scale(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


def _signed(magnitudes):
    return magnitudes.flatmap(lambda v: st.sampled_from([v, -v]))


# (within, beyond) strategies of each drawn field. The beyond values that
# name a mid-run failure loaded before the bounds and then exited 4; they
# come first, where the derandomized search draws most often.
FIELDS = {
    "user_amplitude": (
        st.one_of(st.sampled_from([1.0 / LIMIT, LIMIT]), _log_scale(-4.0, 4.0)),
        # 1e-20: all-zero weights; 1e160: the noise power overflowed
        st.sampled_from([1e160, 1e-20, 0.0, math.nextafter(1.0 / LIMIT, 0.0), _beyond(LIMIT)]),
    ),
    "amplitude": (
        st.one_of(st.sampled_from([1.0 / LIMIT, LIMIT]), _log_scale(-4.0, 4.0)),
        # 1e150: all-zero weights; 1e200: infinite recorded power
        st.sampled_from([1e200, 1e150, math.nextafter(1.0 / LIMIT, 0.0), _beyond(LIMIT)]),
    ),
    "snr_db": (
        st.one_of(st.sampled_from([None, DB_LIMIT, -DB_LIMIT]), st.floats(-DB_LIMIT, DB_LIMIT)),
        st.sampled_from([-3100.0, 3100.0, _beyond(DB_LIMIT), _beyond(-DB_LIMIT)]),
    ),
    # Components below 1/A are within their own bound; a path set made only
    # of them falls short of the total-power bound.
    "gain_real": (
        _signed(st.one_of(st.sampled_from([LIMIT, 1.0 / LIMIT, 0.0]), _log_scale(-6.0, 4.0))),
        # 1e200: a non-finite channel matrix; 1e-100: all-zero weights
        _signed(st.sampled_from([1e200, 1e-100, _beyond(LIMIT)])),
    ),
    "gain_imag": (
        _signed(st.one_of(st.sampled_from([LIMIT, 0.0]), _log_scale(-6.0, 4.0))),
        _signed(st.sampled_from([1e200, _beyond(LIMIT)])),
    ),
}
ANGLES = ((20.0, 30.0), (40.0, 200.0))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_config_that_loads_runs_and_one_that_does_not_exits_2(tmp_path_factory, data):
    # Half the examples keep every field within its bounds; the other half
    # push one field (in every path, for a gain) beyond them.
    names = list(FIELDS)
    pick = data.draw(st.integers(0, 2 * len(names) - 1), label="past")
    past = names[pick] if pick < len(names) else None

    def draw(name):
        within, beyond = FIELDS[name]
        return data.draw(beyond if name == past else within, label=name)

    n_paths = data.draw(st.integers(1, 2), label="paths")
    paths = [
        {"theta_deg": theta, "phi_deg": phi, "gain_real": draw("gain_real"),
         "gain_imag": draw("gain_imag")}
        for theta, phi in ANGLES[:n_paths]
    ]
    config = {
        "surface": {"M": 4, "N": 4},
        "recording": {"user_amplitude": draw("user_amplitude"), "snr_db": draw("snr_db")},
        "reference": {"amplitude": draw("amplitude")},
        "channel": {"paths": paths},
    }
    try:
        config_from_dict(config)
        want = 0
    except ConfigError:
        want = 2
    tmp = tmp_path_factory.mktemp("boundary")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    for command in (["record"], ["mi-sweep", "--reps", "1"]):
        out = tmp / command[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == want, (command[0], config)
        assert out.exists() == (want == 0)
