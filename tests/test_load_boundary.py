"""The load boundary: a config that loads runs, and one that does not exits 2.

Draws the amplitude and gain fields, ``recording.snr_db`` and
``link.snr_db`` inside, at and beyond their load-time bounds
(docs/config.md), ``link.normalization``, and a second manual path that is
another direction or the first path with its gain negated (the two cancel).
It runs ``record``, ``mi-sweep --reps 1`` and ``outage`` (two trials) on a
4x4 surface. A config that ``config_from_dict`` accepts must exit 0 from
each, without a numeric warning; one it rejects must exit 2 from each,
never 4.

A second property draws one leaf key of the schema and gives it a value of
a JSON type it does not accept, or adds an unknown key beside it: the
``ConfigError`` must name the dotted key and ``record`` must exit 2.
"""

import contextlib
import dataclasses
import io
import json
import math
import string
import types
import typing
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim.harness.cli import main
from rrmsim.harness.config import ConfigError, ExperimentConfig, config_from_dict

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
    # one or two SNRs; 3100 dB overflowed the MI
    "link_snr_db": (
        st.lists(
            st.one_of(st.sampled_from([DB_LIMIT, -DB_LIMIT]), st.floats(-DB_LIMIT, DB_LIMIT)),
            min_size=1,
            max_size=2,
        ),
        st.sampled_from([3100.0, -3100.0, _beyond(DB_LIMIT), _beyond(-DB_LIMIT)]).map(
            lambda db: [0.0, db]
        ),
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

    def path(theta, phi):
        return {"theta_deg": theta, "phi_deg": phi, "gain_real": draw("gain_real"),
                "gain_imag": draw("gain_imag")}

    paths = [path(20.0, 30.0)]
    second = data.draw(st.sampled_from(["none", "other", "cancelling"]), label="second path")
    if second == "other":
        paths.append(path(40.0, 200.0))
    elif second == "cancelling":
        first = paths[0]
        paths.append({**first, "gain_real": -first["gain_real"], "gain_imag": -first["gain_imag"]})
    config = {
        "surface": {"M": 4, "N": 4},
        "recording": {"user_amplitude": draw("user_amplitude"), "snr_db": draw("snr_db")},
        "reference": {"amplitude": draw("amplitude")},
        "channel": {"paths": paths},
        "link": {
            "snr_db": draw("link_snr_db"),
            "normalization": data.draw(st.sampled_from(["normalized", "absolute"]), label="mode"),
        },
        "outage": {"trials": 2},
    }
    try:
        config_from_dict(config)
        want = 0
    except ConfigError:
        want = 2
    tmp = tmp_path_factory.mktemp("boundary")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    for command in (["record"], ["mi-sweep", "--reps", "1"], ["outage"]):
        out = tmp / command[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if second == "cancelling":
                # paths that cancel send nothing to record: with little noise the
                # hologram is constant, and record warns of its all-zero weights
                warnings.filterwarnings("ignore", "weight matrix is all zero", RuntimeWarning)
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == want, (command[0], config)
        assert out.exists() == (want == 0)


def _leaves(cls, prefix=""):
    """(dotted key, type hint, owning class) of every leaf field; a list of objects as entry [0]."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        key, hint = prefix + f.name, hints[f.name]
        if dataclasses.is_dataclass(hint):
            yield from _leaves(hint, key + ".")
            continue
        yield key, hint, cls
        args = typing.get_args(hint)
        if typing.get_origin(hint) is tuple and args and dataclasses.is_dataclass(args[0]):
            yield from _leaves(args[0], key + "[0].")


LEAVES = tuple(_leaves(ExperimentConfig))
# One value of each JSON type.
JSON_VALUES = {
    "null": None, "bool": True, "int": 3, "float": 2.5, "string": "x", "list": [1.0], "object": {},
}
ENTRY = {"theta_deg": 10.0, "phi_deg": 0.0}  # a valid list entry [0] (a manual path)


def _accepted(hint) -> set:
    """The JSON types a field of this type hint accepts."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = (a for a in typing.get_args(hint) if a is not type(None))
        return {"null"} | _accepted(inner)
    if typing.get_origin(hint) is tuple:
        return {"list"}
    return {int: {"int"}, float: {"int", "float"}, str: {"string"}}[hint]


def _config_with(key: str, value) -> dict:
    """A config object that sets only the dotted key, inside a valid list entry [0]."""
    head, _, rest = key.partition(".")
    if not rest:
        return {head: value}
    if head.endswith("[0]"):
        return {head[:-3]: [{**ENTRY, **_config_with(rest, value)}]}
    return {head: _config_with(rest, value)}


def test_leaves_cover_the_schema():
    keys = [key for key, _, _ in LEAVES]
    assert "surface.M" in keys and "link.snr_db" in keys and "seed" in keys
    assert "channel.paths" in keys and "channel.paths[0].gain_imag" in keys
    assert len(keys) == len(set(keys))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_rejected_key_is_named_and_exits_2(tmp_path_factory, data):
    key, hint, owner = data.draw(st.sampled_from(LEAVES), label="leaf")
    if data.draw(st.booleans(), label="unknown sibling"):
        names = {f.name for f in dataclasses.fields(owner)}
        name = data.draw(
            st.text(string.ascii_letters + "_", min_size=1, max_size=8).filter(
                lambda n: n not in names
            ),
            label="name",
        )
        key = key.rpartition(".")[0] + "." + name if "." in key else name
        config, want = _config_with(key, 1.0), f"unknown key {key}"
    else:
        wrong = sorted(set(JSON_VALUES) - _accepted(hint))
        kind = data.draw(st.sampled_from(wrong), label="type")
        config, want = _config_with(key, JSON_VALUES[kind]), f"{key}: "
    with pytest.raises(ConfigError) as info:
        config_from_dict(config)
    message = str(info.value)
    assert message == want if want.startswith("unknown") else message.startswith(want)
    tmp = tmp_path_factory.mktemp("rejected")
    path, out = tmp / "cfg.json", tmp / "out"
    path.write_text(json.dumps(config))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["record", "--config", str(path), "--out", str(out), "--quiet"])
    assert code == 2 and not out.exists()
    assert err.getvalue() == f"config error: {message}\n"
