"""The load boundary: a config that loads runs, and one that does not exits 2.

Draws the reference amplitude and the gain fields, ``recording.snr_db`` and
``link.snr_db`` inside, at and beyond their load-time bounds (their
``LEAF_RULES`` rows), ``link.normalization``, and a second manual path that
is another direction or the first path with its gain negated (the two
cancel).
It runs ``record``, ``mi-sweep --reps 1`` and ``outage`` (two trials) on a
4x4 surface. A config that ``config_from_dict`` accepts must exit 0 from
each, without a numeric warning; one it rejects must exit 2 from each,
never 4.

Two more properties draw the carrier, spacing, substrate-index, delay and
symbol-period leaves and the normalized delay of a cluster-profile row
(``PHYSICAL``), on a manual, Rician or cluster-profile channel with K = 8.
With every leaf inside or at its bounds, the three commands exit 0 without
a numeric warning; with one leaf beyond, they exit 2 and the error names
that leaf.

A third property draws one leaf key of the schema and gives it a value of
a JSON type it does not accept, or adds an unknown key beside it: the
``ConfigError`` must name the dotted key and ``record`` must exit 2.

Loading builds no domain object to check a config, so a fourth property
draws every leaf and choice (``DOMAIN``, ``PHYSICAL``, ``FIELDS``), all
within their rules or one beyond: a config that loads must build its
channel and each system's scenario. A fifth draws cluster-profile files
with defective rows: one that loads must draw trials, and one that does
not must name ``channel.profile_path``. A sixth draws the leaves that no
other property runs (``RUNS``: reference phase, channel kind and Rician
leaves, ``link.K``, rolloff, outage leaves, seed) within, at and beyond
their rules: the three commands exit 0 without a numeric warning, or 2
naming the leaf.

Every numeric leaf has one ``LEAF_RULES`` row, and docs/config.md lists
each row with the same numbers. Each leaf without an upper end runs at an
extreme value.
"""

import contextlib
import dataclasses
import io
import itertools
import json
import math
import pathlib
import re
import string
import types
import typing
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrmsim import channel
from rrmsim.harness.cli import main
from rrmsim.harness.config import (
    LEAF_RULES,
    ConfigError,
    ExperimentConfig,
    _deep_merge,
    config_from_dict,
    load_config,
)
from rrmsim.link import draw_trials


def _rule(key: str):
    """The ``LEAF_RULES`` row of a dotted key; a list entry [0] reads the row of []."""
    return LEAF_RULES[key.replace("[0]", "[]")]


def _from_row(key: str, pair):
    """(within, beyond) strategies ``pair(row)`` of key's ``LEAF_RULES`` row, built on first draw.

    The row is read in a deferred strategy, not at import, so a deleted row
    fails the tests that draw it and the row-coverage tests, not the
    collection of this module.
    """
    return tuple(st.deferred(lambda i=i: pair(_rule(key))[i]) for i in (0, 1))


def _beyond(value: float) -> float:
    """The next float past value, away from zero."""
    return math.nextafter(value, math.copysign(math.inf, value))


def _log_scale(low_exp: float, high_exp: float):
    return st.floats(low_exp, high_exp).map(lambda e: 10.0**e)


def _signed(magnitudes):
    return magnitudes.flatmap(lambda v: st.sampled_from([v, -v]))


def _range(lo: float, hi: float):
    """Both edges of [lo, hi] and values log-uniform between them (lo > 0)."""
    return st.one_of(st.sampled_from([lo, hi]), _log_scale(math.log10(lo), math.log10(hi)))


# (within, beyond) strategies of each drawn field. The beyond values that
# name a mid-run failure loaded before the bounds and then exited 4; they
# come first, where the derandomized search draws most often.
FIELDS = {
    # [1/A^2, A^2] for the amplitude bound A of docs/config.md
    "amplitude": _from_row(
        "reference.amplitude",
        lambda a_r: (
            _range(a_r.lo, a_r.hi),
            # 1e150: all-zero weights; 1e200: infinite recorded power
            st.sampled_from([1e200, 1e150, math.nextafter(a_r.lo, 0.0), _beyond(a_r.hi)]),
        ),
    ),
    "snr_db": _from_row(
        "recording.snr_db",
        lambda db: (
            st.one_of(st.sampled_from([None, db.hi, db.lo]), st.floats(db.lo, db.hi)),
            st.sampled_from([-3100.0, 3100.0, _beyond(db.hi), _beyond(db.lo)]),
        ),
    ),
    # one or two SNRs; 3100 dB overflowed the MI
    "link_snr_db": _from_row(
        "link.snr_db[]",
        lambda db: (
            st.lists(
                st.one_of(st.sampled_from([db.hi, db.lo]), st.floats(db.lo, db.hi)),
                min_size=1,
                max_size=2,
            ),
            st.sampled_from([3100.0, -3100.0, _beyond(db.hi), _beyond(db.lo)]).map(
                lambda v: [0.0, v]
            ),
        ),
    ),
    # Components below 1/A are within their own bound; a path set made only
    # of them falls short of the total-power bound.
    "gain_real": _from_row(
        "channel.paths[].gain_real",
        lambda g: (
            _signed(
                st.one_of(
                    st.sampled_from([g.hi, 1.0 / g.hi, 0.0]), _log_scale(-6.0, math.log10(g.hi))
                )
            ),
            # 1e200: a non-finite channel matrix; 1e-100: all-zero weights
            _signed(st.sampled_from([1e200, 1e-100, _beyond(g.hi)])),
        ),
    ),
    "gain_imag": _from_row(
        "channel.paths[].gain_imag",
        lambda g: (
            _signed(st.one_of(st.sampled_from([g.hi, 0.0]), _log_scale(-6.0, math.log10(g.hi)))),
            _signed(st.sampled_from([1e200, _beyond(g.hi)])),
        ),
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
        "recording": {"snr_db": draw("snr_db")},
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
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == want, (command[0], config)
        assert out.exists() == (want == 0)


def _drawn(key: str, lo: float, hi: float, *far: float, open_lo=False, optional=False):
    """(key, within, beyond) strategies of a leaf bounded to [lo, hi], or (lo, hi] when open_lo.

    Within: ``_range``, where a lower edge at 0 becomes 1e-15 (and 0 itself
    is drawn too unless the end is open), and None for an optional leaf.
    Beyond: the far values that failed before the bounds, then one float
    past each edge (lo itself when the end is open).
    """
    within = _range(max(lo, 1e-15), hi)
    if lo == 0.0 and not open_lo:
        within = st.one_of(st.just(0.0), within)
    if optional:
        within = st.one_of(st.none(), within)
    below = lo if open_lo else math.nextafter(lo, -math.inf)
    return key, within, st.sampled_from([*far, below, _beyond(hi)])


def _physical(key: str, *far: float, optional=False):
    """``_drawn`` over the leaf's ``LEAF_RULES`` row (``_from_row``)."""
    return key, *_from_row(
        key, lambda r: _drawn(key, r.lo, r.hi, *far, open_lo=r.open_lo, optional=optional)[1:]
    )


# (dotted key, within, beyond) of the carrier, spacing, index, delay and
# symbol-period leaves, and of a profile row's normalized delay, a rule of
# the profile parser. The far beyond values loaded before the bounds and
# then exited 4, or overflowed with a warning (symbol_period, the profile
# delay).
PHYSICAL = (
    _physical("surface.fc", 1e-300),
    _physical("surface.dx", 1e307, optional=True),
    _physical("surface.dy", optional=True),
    _physical("surface.substrate_index", 1e307),
    _physical("channel.paths[0].delay", 1e300),
    _physical("channel.max_delay", 1e300),
    _physical("channel.delay_spread", 1e300),
    _physical("link.symbol_period", 1e-300),
    _drawn("channel.profile_path", 0.0, channel._NORMALIZED_DELAY_LIMIT, 1e300),
)


def _physical_case(tmp_path_factory, data, past):
    """Draw the PHYSICAL leaves, past's beyond its bound; run the three commands.

    A config that loads must exit 0 from each without a numeric warning; one
    that does not must name past and exit 2 from each, leaving no output.
    """
    value = {
        key: data.draw(beyond if key == past else within, label=key)
        for key, within, beyond in PHYSICAL
    }
    kind = data.draw(st.sampled_from(["manual", "rician_random", "cdl_profile"]), label="kind")
    tmp = tmp_path_factory.mktemp("physical")
    surface = {"M": 4, "N": 4, "fc": value["surface.fc"]}
    surface.update({k: value[f"surface.{k}"] for k in ("dx", "dy", "substrate_index")})
    channel = {
        "kind": kind,
        "max_delay": value["channel.max_delay"],
        "delay_spread": value["channel.delay_spread"],
        "paths": [{"theta_deg": 20.0, "phi_deg": 30.0, "delay": value["channel.paths[0].delay"]}],
    }
    if past == "channel.profile_path" or (kind == "cdl_profile" and data.draw(st.booleans())):
        profile = tmp / "rows.profile"
        delay = value["channel.profile_path"]
        profile.write_text(f"0.0, 0.0, 0.0, 90.0\n{delay!r}, -3.0, 40.0, 80.0\n")
        channel.update(kind="cdl_profile", profile_path=str(profile))
    config = {
        "surface": {k: v for k, v in surface.items() if v is not None},
        "channel": channel,
        "link": {
            "K": 8,
            "symbol_period": value["link.symbol_period"],
            "normalization": data.draw(st.sampled_from(["normalized", "absolute"]), label="mode"),
        },
        "outage": {"trials": 2},
    }
    want = 0 if past is None else 2
    if want:
        with pytest.raises(ConfigError, match="^" + re.escape(past) + ": "):
            config_from_dict(config)
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    for command in (["record"], ["mi-sweep", "--reps", "1"], ["outage"]):
        out = tmp / command[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == want, (command[0], config)
        assert out.exists() == (want == 0)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_carrier_spacing_and_delays_within_their_bounds_run(tmp_path_factory, data):
    _physical_case(tmp_path_factory, data, None)


@pytest.mark.parametrize("past", [key for key, _, _ in PHYSICAL])
@settings(max_examples=8, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_carrier_spacing_or_delay_beyond_its_bound_exits_2(tmp_path_factory, data, past):
    _physical_case(tmp_path_factory, data, past)


LEAF_PHYSICAL = PHYSICAL[:-1]  # without the profile row's delay, which is no config leaf

# (within, beyond) of the leaves and choices that FIELDS and PHYSICAL do
# not draw: the sizes, the Rician leaves and the three rules that loading
# checked by building the domain objects (kind, normalization, a manual
# channel's nonempty paths).
DOMAIN = {
    "surface.M": (st.integers(1, 8), st.sampled_from([0, 10001])),
    "surface.N": (st.integers(1, 8), st.sampled_from([0, 10001])),
    "recording.duration_symbols": (st.integers(1, 3), st.just(0)),
    "channel.kind": (st.sampled_from(channel.CHANNEL_KINDS), st.sampled_from(["ray_traced", ""])),
    "channel.L": (st.integers(1, 6), st.just(0)),
    "channel.k_factor_db": _from_row(
        "channel.k_factor_db",
        lambda k: (st.floats(k.lo, k.hi), st.sampled_from([-3100.0, _beyond(k.hi)])),
    ),
    "channel.theta_range_deg": (
        st.lists(st.floats(0.0, 90.0), min_size=2, max_size=2).map(sorted),
        st.sampled_from([[60.0, 5.0], [-1.0, 10.0], [10.0, 90.5]]),
    ),
    "channel.phi_range_deg": (
        st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2).map(sorted),
        st.just([10.0, 5.0]),
    ),
    "channel.paths": (st.integers(1, 2), st.just(0)),  # a count
    "link.K": (st.integers(1, 8), st.just(0)),
    "link.rolloff": (st.floats(0.0, 1.0), st.sampled_from([-0.1, _beyond(1.0)])),
    "link.normalization": (
        st.sampled_from(["normalized", "absolute"]),
        st.sampled_from(["peak", ""]),
    ),
    "weights.strategy": (st.sampled_from(["none", "mean", "min"]), st.just("max")),
}


def _domain_case(data, past):
    """Draw the DOMAIN, PHYSICAL and FIELDS leaves, past's beyond its rule.

    Loading checks only the blocks, so their rules must imply every rule of
    the domain objects built from them: a config that loads must build its
    channel, and each system's scenario at its own size and at 8x8.
    """

    def draw(key, strategies):
        within, beyond = strategies
        return data.draw(beyond if key == past else within, label=key)

    flat = {key: draw(key, DOMAIN[key]) for key in DOMAIN}
    flat.update((key, draw(key, (within, beyond))) for key, within, beyond in LEAF_PHYSICAL)
    field = {name: draw(name, FIELDS[name]) for name in FIELDS}
    paths = [
        {"theta_deg": 10.0 * (i + 1), "phi_deg": 30.0, "gain_real": field["gain_real"],
         "gain_imag": field["gain_imag"], "delay": flat["channel.paths[0].delay"]}
        for i in range(flat.pop("channel.paths"))
    ]
    del flat["channel.paths[0].delay"]
    config = {"channel": {"paths": paths}}
    for key, value in flat.items():
        if value is not None:
            config = _deep_merge(config, _config_with(key, value))
    config["reference"] = {"amplitude": field["amplitude"]}
    config["recording"]["snr_db"] = field["snr_db"]
    config["link"]["snr_db"] = field["link_snr_db"]
    try:
        cfg = config_from_dict(config)
    except ConfigError:
        return
    for system in ("rrm", "rhs"):  # the first builds the channel too
        cfg.scenario(system)
        cfg.scenario(system, rows=8, cols=8)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_config_that_loads_builds_its_domain_objects(data):
    _domain_case(data, None)


@pytest.mark.parametrize(
    "past", [*DOMAIN, *(key for key, _, _ in LEAF_PHYSICAL), *FIELDS]
)
@settings(max_examples=4, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_config_with_a_leaf_beyond_its_rule_loads_only_if_it_builds(data, past):
    _domain_case(data, past)


# Defects of a cluster-profile row (normalized_delay, power_db, aod_deg,
# zod_deg): too few or too many fields, a value that is not a number or not
# finite, a delay outside [0, 1e3], and powers whose linear value or sum
# leaves the float range.
VALID_ROW = st.tuples(
    st.floats(0.0, channel._NORMALIZED_DELAY_LIMIT),
    st.floats(-300.0, 30.0),
    st.floats(-720.0, 720.0),
    st.floats(-180.0, 180.0),
).map(lambda row: ", ".join(map(repr, row)))
BAD_ROW = st.sampled_from([
    "0.0, 0.0, 90.0",
    "0.0, 0.0, 0.0, 90.0, 1.0",
    "0.0, x, 0.0, 90.0",
    "0.0, 0.0, nan, 90.0",
    "0.0, -inf, 0.0, 90.0",
    "inf, 0.0, 0.0, 90.0",
    "-1e-9, 0.0, 0.0, 90.0",
    "1000.5, 0.0, 0.0, 90.0",
    "0.0, 3090.0, 0.0, 90.0",  # 10^309: the linear power overflows
    "0.0, 3080.0, 0.0, 90.0",  # finite alone
    "0.0, 3080.0, 0.0, 90.0\n1.0, 3080.0, 40.0, 80.0",  # two such rows sum past the float range
    "0.0, -3300.0, 0.0, 90.0",  # underflows to 0
    "0.0, -3200.0, 0.0, 90.0",  # subnormal
    "# a comment only",
    "",
])


@st.composite
def _profile_bytes(draw):
    """Profile file bytes: valid and defective rows, comments, maybe a byte that is not UTF-8."""
    rows = draw(st.lists(st.one_of(VALID_ROW, BAD_ROW), min_size=0, max_size=4), label="rows")
    text = "\n".join(row + draw(st.sampled_from(["", "  # note"])) for row in rows).encode()
    if draw(st.integers(0, 3), label="not UTF-8") == 0:  # about a quarter of the files
        at = draw(st.integers(0, len(text)), label="at")
        text = text[:at] + b"\xff" + text[at:]
    return text


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_profile_that_loads_draws_and_one_that_does_not_names_its_key(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("profile")
    profile, path = tmp / "rows.profile", tmp / "cfg.json"
    profile.write_bytes(data.draw(_profile_bytes(), label="profile"))
    path.write_text(
        json.dumps({"channel": {"kind": "cdl_profile", "profile_path": str(profile)}})
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = load_config(path)
        except ConfigError as exc:
            assert str(exc).startswith("channel.profile_path: "), exc
            return
        paths, seeds = draw_trials(cfg.channel_config, 3, cfg.seed)
    assert paths.gain.shape[0] == len(seeds) == 3


@pytest.mark.parametrize(
    "profile, want",
    [
        (b"0.0, 0.0, 0.0, 90.0\n1.0, -3.0, 40.0, 80.0\n", 0),
        (b"0.0, 3080.0, 0.0, 90.0\n1.0, 3080.0, 40.0, 80.0\n", 2),  # was a zero channel
        (b"0.0, 0.0, 0.0\xff, 90.0\n", 2),
        (b"# nothing\n", 2),
        (None, 3),  # the file is missing
    ],
)
def test_profile_contents_exit_0_2_or_3(tmp_path, capsys, profile, want):
    prof = tmp_path / "rows.profile"
    if profile is not None:
        prof.write_bytes(profile)
    config = {
        "surface": {"M": 4, "N": 4},
        "channel": {"kind": "cdl_profile", "profile_path": str(prof)},
        "link": {"K": 4},
        "outage": {"trials": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for command in (["record"], ["outage"]):
        out = tmp_path / command[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == want, command[0]
        assert out.exists() == (want == 0)
    err = capsys.readouterr().err
    assert err.startswith({0: "", 2: "config error: channel.profile_path: ", 3: "i/o error: "}[want])
    assert (err == "") == (want == 0)


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
    assert "reference.sign" not in keys and "recording.samples_per_symbol" not in keys
    assert "recording.user_amplitude" not in keys
    assert len(keys) == len(set(keys)) == 35


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


# Numeric leaves that take no row: the schema version is one exact value,
# and the angle ranges' rules order their two ends (ChannelBlock).
NO_ROW = {"schema_version", "channel.theta_range_deg", "channel.phi_range_deg"}


def _row_key(key: str, hint):
    """The ``LEAF_RULES`` key of a numeric leaf, else None (a list of numbers: its entries' row)."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (hint,) = (a for a in typing.get_args(hint) if a is not type(None))
    key, args = key.replace("[0]", "[]"), typing.get_args(hint)
    if args[1:] == (Ellipsis,):
        hint, key = args[0], key + "[]"
    elif args and all(a in (int, float) for a in args):
        hint = float  # a fixed-length list of numbers: the angle ranges
    return key if hint in (int, float) else None


def test_every_numeric_leaf_has_one_rule_row():
    assert NO_ROW <= {key for key, _, _ in LEAVES}
    rows = {_row_key(key, hint) for key, hint, _ in LEAVES if key not in NO_ROW} - {None}
    assert rows == set(LEAF_RULES)
    assert "link.snr_db[]" in rows and "channel.paths[].delay" in rows
    for key, rule in LEAF_RULES.items():
        assert rule.lo < rule.hi, key
        assert bool(rule.why) == (rule.hi == math.inf), key  # a reason exactly where hi is open
        assert not rule.open_lo or rule.lo == 0.0, key


DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "config.md"


def _docs_rules() -> dict:
    """key -> (lo, hi, open_lo, unit, why) of each row of the leaf-rules table in docs/config.md."""
    lines = DOCS.read_text("utf-8").partition("\n## Leaf rules\n")[2].splitlines()
    head = lines.index("| key | rule | unit | why no upper end |")
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[head + 2 :]):
        key, rule, unit, why = (cell.strip() for cell in line.strip("|").split("|"))
        rule = rule.replace("−", "-")
        if rule == "any":
            bounds = (-math.inf, math.inf, False)
        elif rule.startswith(">"):
            bounds = (float(rule.lstrip(">= ")), math.inf, not rule.startswith(">="))
        else:
            lo, hi = rule[1:-1].split(",")
            bounds = (float(lo), float(hi), rule[0] == "(")
        rows[key.strip("`")] = (*bounds, unit, why)
    return rows


def test_docs_list_each_rule_row_with_the_same_numbers():
    docs = _docs_rules()
    assert list(docs) == list(LEAF_RULES)
    for key, rule in LEAF_RULES.items():
        assert docs[key] == (rule.lo, rule.hi, rule.open_lo, rule.unit, rule.why), key


# Leaves with no upper end (and the angle range, whose rule only orders its
# ends) at an extreme value: the reasons in LEAF_RULES say why each runs.
EXTREMES = {
    "reference.phase_offset": {"reference": {"phase_offset": 1e300}},
    "channel.paths[0].phi_deg": {"channel": {"paths": [{"theta_deg": 20.0, "phi_deg": 1e300}]}},
    "outage.r_th": {"outage": {"r_th": 1e300}},
    "channel.phi_range_deg": {
        "channel": {"kind": "rician_random", "phi_range_deg": [-1e300, 1e300]}
    },
    "seed": {"seed": 2**128 + 1},
}


@pytest.mark.parametrize("key", list(EXTREMES))
def test_an_unbounded_leaf_at_an_extreme_value_runs(tmp_path, key):
    config = {"surface": {"M": 4, "N": 4}, "link": {"K": 4}, "outage": {"trials": 2}}
    config = _deep_merge(config, EXTREMES[key])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    for command in (["record"], ["mi-sweep", "--reps", "1"], ["outage"]):
        out = tmp_path / command[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == 0, command[0]


# (within, beyond) of the leaves that no property above runs: the reference
# phase, the channel kind and its Rician leaves, the block length, the
# rolloff, the outage leaves and the seed. Within draws each edge and values
# between; beyond is one value past each edge (a non-finite JSON number for
# a leaf with no end). The sizes (L, K, trials) stay small.
RUNS = {
    "reference.phase_offset": (
        st.one_of(st.sampled_from([0.0, -1e300, 1e300]), st.floats(-1e300, 1e300)),
        st.sampled_from([math.inf, -math.inf, math.nan]),
    ),
    "channel.kind": (st.sampled_from(channel.CHANNEL_KINDS), st.sampled_from(["ray_traced", ""])),
    "channel.L": (st.integers(1, 4), st.just(0)),
    "channel.k_factor_db": _from_row(
        "channel.k_factor_db",
        lambda k: (
            st.one_of(st.sampled_from([k.lo, k.hi]), st.floats(k.lo, k.hi)),
            st.sampled_from([_beyond(k.lo), _beyond(k.hi)]),
        ),
    ),
    "channel.theta_range_deg": (
        st.one_of(
            st.sampled_from([[0.0, 0.0], [0.0, 90.0], [90.0, 90.0]]),
            st.lists(st.floats(0.0, 90.0), min_size=2, max_size=2).map(sorted),
        ),
        st.sampled_from([[math.nextafter(0.0, -1.0), 10.0], [10.0, _beyond(90.0)], [60.0, 5.0]]),
    ),
    "channel.phi_range_deg": (
        st.one_of(
            st.sampled_from([[-1e300, 1e300], [30.0, 30.0]]),
            st.lists(st.floats(-1e300, 1e300), min_size=2, max_size=2).map(sorted),
        ),
        st.sampled_from([[10.0, math.nextafter(10.0, 0.0)], [0.0, math.inf]]),
    ),
    "link.K": (st.integers(1, 6), st.just(0)),
    "link.rolloff": (
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.sampled_from([math.nextafter(0.0, -1.0), _beyond(1.0)]),
    ),
    "outage.r_th": (
        st.one_of(st.sampled_from([5e-324, 1e300]), _log_scale(-300.0, 300.0)),
        st.sampled_from([0.0, -5e-324, math.inf]),
    ),
    "outage.trials": (st.integers(1, 3), st.just(0)),
    "seed": (st.one_of(st.sampled_from([0, 2**128 + 1]), st.integers(0, 2**64)), st.just(-1)),
}


@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_the_remaining_leaves_load_then_run_or_exit_2(tmp_path_factory, data):
    # Half the examples keep every leaf within its rule; the other half push
    # one leaf beyond it, which must exit 2 and name it.
    names = list(RUNS)
    pick = data.draw(st.integers(0, 2 * len(names) - 1), label="past")
    past = names[pick] if pick < len(names) else None
    config = {"surface": {"M": 4, "N": 4}}
    for key, (within, beyond) in RUNS.items():
        value = data.draw(beyond if key == past else within, label=key)
        config = _deep_merge(config, _config_with(key, value))
    want = 0 if past is None else 2
    if want:
        with pytest.raises(ConfigError, match="^" + re.escape(past) + r"(\[\d\])?: "):
            config_from_dict(config)
    tmp = tmp_path_factory.mktemp("runs")
    path = tmp / "cfg.json"
    path.write_text(json.dumps(config))
    for command in (["record"], ["mi-sweep", "--reps", "1"], ["outage"]):
        out = tmp / command[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*command, "--config", str(path), "--out", str(out), "--quiet"])
        assert code == want, (command[0], config)
        assert out.exists() == (want == 0)
