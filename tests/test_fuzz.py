"""The trust boundaries under random input: a sweep config, a gwlab-run/1
realization and a binary trajectory each either load or raise
ValidationError, never another exception."""

import copy
import json
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gwlab import (
    CONSTRUCTIONS,
    ProcessSpec,
    ValidationError,
    generate,
    load_config,
    realization_from_dict,
    realization_to_dict,
    trajectory_from_binary,
)
from gwlab.processes import CONSTRUCTION_PARAMS

FUZZ = settings(max_examples=300, deadline=None)

# any JSON value, nested a little
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=4)
# numbers near and far from every parameter's domain, big integers included
NUMBER = (st.sampled_from([0.0, 0.3, 0.5, 1.0, 5.0, 50.0, math.pi / 3,
                           10**400, -(10**400)])
          | st.integers() | st.floats())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _load_or_reject(load, *args):
    try:
        return load(*args)
    except ValidationError:
        return None


@st.composite
def mutated(draw, starts, values):
    """One of starts, deep-copied, with up to three keys deleted or set to a
    value drawn from values[path]; a path runs through nested objects."""
    d = copy.deepcopy(draw(st.sampled_from(starts)))
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(sorted(values)))
        obj = d
        for key in path[:-1]:
            obj = obj.get(key) if isinstance(obj, dict) else None
        if not isinstance(obj, dict):
            continue
        if draw(st.booleans()):
            obj.pop(path[-1], None)
        else:
            obj[path[-1]] = draw(values[path])
    return d


# the valid configs and exports the fuzzers start from, one per construction
PARAMS = dict(window_L=4.0, separation_r=1.0, alpha=math.pi / 3,
              thinning_p=0.5, shift_s=0.3)
_CONFIGS = [{"name": c, "construction": c, "n_runs": 1, "base_seed": 0,
             "window_L": 4.0, **{k: PARAMS[k] for k in CONSTRUCTION_PARAMS[c]
                                 if k in PARAMS}}
            for c in CONSTRUCTIONS]
_EXPORTS = [realization_to_dict(generate(ProcessSpec.build(c, **PARAMS), 7))
            for c in CONSTRUCTIONS]

_CONFIG_VALUES = {
    "name": st.sampled_from(["run", "", ".", "..", "a/b", "../up", "a\0b"])
    | st.text(max_size=6),
    "construction": st.sampled_from(CONSTRUCTIONS) | st.text(max_size=6),
    "n_runs": st.integers(-1, 3),
    "base_seed": st.integers(),
    "rate_lambda": NUMBER,
    "window_L": NUMBER,
    "separation_r": NUMBER,
    "alpha": NUMBER,
    "thinning_p": NUMBER,
    "shift_s": NUMBER,
    "allow_unproven_shift": st.booleans(),
    "audit": st.booleans(),
    "detect_events": st.booleans(),
    "workers": st.integers(-1, 3),
    "mystery_knob": JSON,
}
CONFIGS = JSON | mutated(_CONFIGS, {
    (k,): v | st.none() | JSON for k, v in _CONFIG_VALUES.items()})


@FUZZ
@given(config=CONFIGS)
@example(config={**_CONFIGS[0], "window_L": 10**400})
def test_sweep_config_loads_or_is_rejected(scratch, config):
    path = scratch / "config.json"
    path.write_text(json.dumps(config))
    cfg = _load_or_reject(load_config, path)
    if cfg is not None:
        _load_or_reject(cfg.to_spec)


_RUN_PATHS = [
    ("spec",), ("seed",), ("base_points",), ("line0",), ("line1",), ("flags",),
    ("windows",), ("provenance",), ("spec", "construction"),
    ("spec", "space"), ("spec", "rate_lambda"), ("spec", "thinning_p"),
    ("spec", "shift_s"), ("spec", "allow_unproven_shift"),
    ("spec", "rate_lambda_line1"),
    ("spec", "space", "kind"), ("spec", "space", "window_L"),
    ("spec", "space", "alpha"), ("spec", "space", "separation_r")]
_RUN_VALUES = (JSON | NUMBER | st.lists(NUMBER, max_size=4)
               | st.lists(st.lists(NUMBER, max_size=3), max_size=3)
               | st.sampled_from(["parallel", "intersecting", *CONSTRUCTIONS]))
RUNS = mutated(_EXPORTS, dict.fromkeys(_RUN_PATHS, _RUN_VALUES))


def _edited(d, path, value):
    """A deep copy of d with the key at path set to value."""
    d = copy.deepcopy(d)
    obj = d
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = value
    return d


@FUZZ
@given(d=RUNS)
@example(d=_edited(_EXPORTS[0], ("spec", "space", "window_L"), None))
@example(d=_edited(_EXPORTS[0], ("spec", "rate_lambda"), None))
@example(d=_edited(_EXPORTS[0], ("spec", "rate_lambda"), 10**400))
@example(d=_edited(_EXPORTS[0], ("line0",), [10**400]))
@example(d=_edited(_edited(_edited(
    _EXPORTS[CONSTRUCTIONS.index("parallel-shifted")], ("bogus",), 1),
    ("spec", "thining_p"), 0.9), ("spec", "allow_unproven_shfit"), True))
def test_run_import_loads_or_is_rejected(d):
    real = _load_or_reject(realization_from_dict, d)
    if real is not None:
        again = realization_to_dict(real)
        # no key given is dropped unread
        assert set(d) <= set(again)
        assert set(d["spec"]) <= set(again["spec"])
        assert set(d["spec"]["space"]) <= set(again["spec"]["space"])
        assert realization_to_dict(realization_from_dict(again)) == again


_MAGIC = b"GWTRAJ01"
# bodies whose size matches the header, so the content checks are reached
_SIZED = st.lists(st.sampled_from([0.0, 1.0, -1.0]) | st.floats(),
                  max_size=9).map(lambda xs: _MAGIC + struct.pack(
                      f"<Q{len(xs) // 3 * 3}d", len(xs) // 3,
                      *xs[:len(xs) // 3 * 3]))
DUMPS = (st.binary(max_size=80)
         | st.builds(lambda n, body: _MAGIC + struct.pack("<Q", n) + body,
                     st.integers(0, 2**64 - 1) | st.integers(0, 3),
                     st.binary(max_size=80))
         | _SIZED)


@FUZZ
@given(raw=DUMPS)
def test_binary_trajectory_loads_or_is_rejected(scratch, raw):
    path = scratch / "traj.bin"
    path.write_bytes(raw)
    _load_or_reject(trajectory_from_binary, path)
