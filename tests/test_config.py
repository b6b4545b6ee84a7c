"""Config parsing: any JSON value in any field either parses or is a ConfigError.

``RunConfig`` alone is exercised, so no grid is built.  A parsed config holds
only finite floats and exact ints.
"""

import copy
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rrspectra.cli import RunConfig  # noqa: E402
from rrspectra.errors import ConfigError  # noqa: E402

BLOCKS = {
    "grid": {"x_max": 20.0, "n": 4096},
    "scan": {"a_range": [2.0, 3.0], "b_range": [0.0, 1.0], "na": 3, "nb": 3, "m": 2},
    "partner": {"kind": "d", "m": 0},
}
POTENTIALS = {
    "gendenshtein": {"a": 2.5, "b": 0.5},
    "milson": {"h0_re": 7.75, "h0_im": 3.0, "kappa_plus": 2.0},
}
SHARED_PATHS = [(), ("potential",), ("grid",), ("scan",), ("partner",)]
SHARED_PATHS += [(b, k) for b in BLOCKS for k in BLOCKS[b]]
SHARED_PATHS += [("scan", r, i) for r in ("a_range", "b_range") for i in (0, 1)]
CASES = [
    ({"potential": {kind: params}, **BLOCKS}, path)
    for kind, params in POTENTIALS.items()
    for path in SHARED_PATHS + [("potential", kind, k) for k in params]
]
DELETE = object()
EDGES = st.sampled_from([10 ** 400, 1e300, -1e300, 1e-300, 300.7, "1e400", "nan", "300", "-inf"])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6) | EDGES,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def _finite(*values):
    return all(isinstance(v, float) and math.isfinite(v) for v in values)


def _with(base, path, value):
    """A copy of ``base`` with ``value`` at ``path`` (the key removed for DELETE)."""
    if not path:
        return base if value is DELETE else value
    raw = copy.deepcopy(base)
    node = raw
    for key in path[:-1]:
        node = node[key]
    if value is not DELETE:
        node[path[-1]] = value
    elif path[-1] in node:
        del node[path[-1]]
    return raw


def _check(raw):
    try:
        config = RunConfig(raw)
    except ConfigError:
        return
    spec = config.spec
    assert _finite(spec.h0.real, spec.h0.imag, spec.kappa_plus)
    assert config.x_max is None or _finite(config.x_max)
    assert config.n is None or type(config.n) is int
    try:
        a_range, b_range, m, na, nb = config.scan_params()
    except ConfigError:
        pass
    else:
        assert _finite(*a_range, *b_range) and all(type(v) is int for v in (m, na, nb))
    try:
        _kind, m = config.partner_params()
    except ConfigError:
        pass
    else:
        assert type(m) is int


@settings(derandomize=True, max_examples=150, deadline=None)
@given(value=EDGES | json_values | st.just(DELETE))
def test_every_value_parses_or_is_a_config_error(value):
    # the drawn value goes into every field of both base configs in turn
    for base, path in CASES:
        _check(_with(base, path, value))


@pytest.mark.parametrize("path, value", [
    (("potential", "gendenshtein", "a"), "2.5"),
    (("potential", "gendenshtein", "b"), True),
    (("grid", "n"), "4096"),
    (("grid", "x_max"), True),
    (("partner", "m"), True),
    (("scan", "m"), "2"),
    # a string or an object iterates, so each would read as [2.0, 4.0]
    (("scan", "a_range"), "24"),
    (("scan", "a_range"), {"2": 0, "4": 0}),
])
def test_only_json_numbers_are_numbers(path, value):
    base = {"potential": {"gendenshtein": POTENTIALS["gendenshtein"]}, **BLOCKS}
    config = RunConfig(base)
    config.scan_params(), config.partner_params()  # the base config is valid
    with pytest.raises(ConfigError, match="must be a finite number|malformed"):
        config = RunConfig(_with(base, path, value))
        config.scan_params(), config.partner_params()


def test_both_base_configs_parse():
    # a refused base config would pass every fuzz case without reading its value
    for kind, params in POTENTIALS.items():
        config = RunConfig({"potential": {kind: params}, **BLOCKS})
        config.scan_params(), config.partner_params()
    # keys outside the blocks are free
    RunConfig({"potential": {"gendenshtein": POTENTIALS["gendenshtein"]}, "note": "free"})


@pytest.mark.parametrize("path", [
    ("potential", "gendenshtein", "kappa_plus"),
    ("potential", "milson", "a"),
    ("potential", "milson", "h0_imag"),
    ("grid", "xmax"),
    ("scan", "n"),
    ("partner", "order"),
])
def test_unknown_block_key_is_a_config_error(path):
    kind = path[1] if path[0] == "potential" else "gendenshtein"
    base = {"potential": {kind: POTENTIALS[kind]}, **BLOCKS}
    with pytest.raises(ConfigError, match="unknown %s key '%s' " % path[-2:]):
        config = RunConfig(_with(base, path, 1.0))
        config.scan_params(), config.partner_params()
