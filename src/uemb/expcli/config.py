"""Experiment configuration files and CSV output.

Config format: one `key = value` per line, `#` comments, lists comma-
separated.  Unknown and duplicate keys are hard errors (no silent typos),
reported with their line number.  Map selectors follow the catalog syntax,
e.g. ``square``, ``multibit:B=2``, ``mixture:1:0.7071,10:0.7071``,
``quantized:mixture:1:0.7071,10:0.7071:B=4``.

Each kind's keys, types and defaults (``SCHEMAS``) and each key's value
rule (``_RULES``) are stated here once; an ``ExperimentConfig`` is checked
against them when it is made, however it is made, before any output; the
map a ``map`` key names is built there, and its spectrum computed, once,
for the run.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field

from ..maps import (
    _MAX_QUANTIZER_BITS,
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)
from ..randproj import FAMILIES, MAX_ELEMENTS
from ..theory import POINTCLOUD_FLAVORS

# Fig-3-style default design map: sin(2 pi t) + sin(20 pi t), scaled.
DEFAULT_MIXTURE = "mixture:1:0.7071067811865476,10:0.7071067811865476"


class ConfigError(ValueError):
    """Configuration file or value rejected."""


def parse_map(selector):
    """Build a PeriodicMap from its config selector string."""
    try:
        return _selected_map(selector.strip())
    except ValueError as e:  # a ConfigError of the syntax, or a factory's own check
        raise ConfigError(str(e)) from None


def _selected_map(sel):
    if sel == "square":
        return make_square_wave()
    if sel == "sawtooth":
        return make_sawtooth()
    if sel.startswith("multibit:"):
        rest = sel[len("multibit:"):]
        if not rest.startswith("B="):
            raise ConfigError("multibit selector must be multibit:B=<bits>")
        return make_multibit(_parse_int(rest[2:], "multibit bits"))
    if sel.startswith("mixture:"):
        terms = []
        for item in sel[len("mixture:"):].split(","):
            parts = item.split(":")
            if len(parts) != 2:
                raise ConfigError("mixture term %r is not freq:amplitude" % item)
            terms.append((_parse_int(parts[0], "mixture frequency"),
                          _parse_float(parts[1], "mixture amplitude")))
        return make_fourier_mixture(terms)
    if sel.startswith("quantized:"):
        body = sel[len("quantized:"):]
        idx = body.rfind(":B=")
        if idx < 0:
            raise ConfigError("quantized selector must end with :B=<bits>")
        bits = _parse_int(body[idx + 3:], "quantized bits")
        return quantize_map(_selected_map(body[:idx]), bits)
    raise ConfigError("unknown map selector %r" % sel)


def _parse_int(s, what):
    try:
        return int(s.strip())
    except ValueError:
        raise ConfigError("%s: %r is not an integer" % (what, s)) from None


def _parse_float(s, what):
    try:
        v = float(s.strip())
    except ValueError:
        raise ConfigError("%s: %r is not a number" % (what, s)) from None
    if not math.isfinite(v):
        raise ConfigError("%s: %r is not a finite number" % (what, s))
    return v


def _is_int(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _is_number(v):
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


# schema type -> (parse of a file's text, test of a value, what a value must be)
_TYPES = {
    "int": (_parse_int, _is_int, "an integer"),
    "float": (_parse_float, _is_number, "a finite number"),
    "str": ((lambda raw, key: raw.strip()), (lambda v: isinstance(v, str)), "a string"),
}
_LISTS = {"ints": "int", "floats": "float"}  # list type -> its entries' type


# Per-experiment key schemas: key -> (type, default); REQUIRED means the
# config must provide it.
REQUIRED = object()

_COMMON = {"seed": ("int", 0)}

SCHEMAS = {
    "design_sim": {
        "N": ("int", 1000),
        "M": ("int", 2000),
        "pairs": ("int", 500),
        "d_min": ("float", 0.0),
        "d_max": ("float", 2.0),
        "map": ("str", DEFAULT_MIXTURE),
        "family": ("str", "gaussian"),
        "sigma_list": ("floats", [0.2, 0.4]),
    },
    "quantization_sim": {
        "N": ("int", 1000),
        "M": ("int", 2000),
        "pairs": ("int", 500),
        "d_min": ("float", 0.0),
        "d_max": ("float", 2.0),
        "variant": ("str", "mixture"),  # mixture | universal
        "map": ("str", DEFAULT_MIXTURE),
        "b_list": ("ints", [1, 2, 4]),
        "family": ("str", "gaussian"),
        "sigma": ("float", 0.2),
        "delta": ("float", 1.0),
    },
    "universal_scatter": {
        "N": ("int", 1000),
        "pairs": ("int", 500),
        "d_min": ("float", 0.0),
        "d_max": ("float", 3.0),
        "delta_list": ("floats", [0.5, 1.5]),
        "m_list": ("ints", [256, 2048]),
        "family": ("str", "gaussian"),
        "sigma": ("float", 1.0),
    },
    "retrieval": {
        "N": ("int", 64),
        "clusters": ("int", 50),
        "points_per_cluster": ("int", 5),
        "cluster_radius": ("float", 0.08),
        "center_scale": ("float", 1.0),
        "margin_factor": ("float", 4.0),
        "reps": ("int", 1),
        "delta_list": ("floats", REQUIRED),
        "rate_list": ("ints", REQUIRED),
        "family": ("str", "gaussian"),
        "sigma": ("float", 1.0),
        "candidates": ("int", 20),
    },
    "bounds_sweep": {
        "calculator": ("str", REQUIRED),  # pointcloud | binary_infinite | ball_crossing
        "q": ("int", 2),
        "hbar": ("float", 1.0),
        "flavor": ("str", "sq_l2"),
        "m_list": ("ints", [1000]),
        "eps_list": ("floats", [0.1]),
        "e_r_half": ("float", 0.0),
        "c0": ("float", 0.0),
        "c": ("float", 1.0),
        "n_list": ("ints", [100]),
        "r_list": ("floats", [0.1]),
        "sigma": ("float", 1.0),
        "delta": ("float", 1.0),
    },
    "map_eval": {
        "map": ("str", "square"),
        "family": ("str", "gaussian"),
        "scale": ("float", 0.0),   # 0 -> derive from sigma/delta
        "sigma": ("float", 1.0),
        "delta": ("float", 1.0),
        "d_min": ("float", 1e-3),
        "d_max": ("float", 10.0),
        "d_count": ("int", 100),
        "log_grid": ("int", 1),
    },
}


def _rule(test, requirement):
    """A value rule: None where ``test`` holds, else what the value must do."""
    return lambda v: None if test(v) else "%s, got %s" % (requirement, v)


def _within(least, greatest=math.inf):
    return _rule(lambda v: least <= v <= greatest, "lie in [%s, %s]" % (least, greatest))


def _one_of(*choices):
    return _rule(lambda v: v in choices, "be one of %s" % ", ".join(choices))


def _checked_map(selector):
    try:
        map_ = parse_map(selector)
    except ConfigError as e:
        raise ConfigError("map must be a catalog selector: %s" % e) from None
    # hbar^4 divides the Hoeffding bounds; a constant map (hbar = 0) gives
    # every signal the same embedding.  Products, unlike **, cannot raise
    # OverflowError.
    square = map_.hbar * map_.hbar
    if not 0.0 < square * square < math.inf:
        raise ConfigError("map must have a positive, finite hbar^4, got %s" % selector)
    # every kind with a map key draws its theory curve from the spectrum
    try:
        map_.power_coeffs()
    except ValueError as e:
        raise ConfigError("map must have a computable spectrum: %s" % e) from None
    return map_


# value rule of each config key, for every entry of a list key
_RULES = {
    **dict.fromkeys(("N", "M", "pairs", "d_count", "candidates", "reps", "m_list",
                     "rate_list", "n_list"), _within(1)),
    **dict.fromkeys(("clusters", "points_per_cluster", "q"), _within(2)),
    "b_list": _within(1, _MAX_QUANTIZER_BITS),
    # scales and distances; a map-eval scale of 0 derives it from sigma, delta
    **dict.fromkeys(("sigma", "sigma_list", "delta", "delta_list", "hbar", "c",
                     "center_scale", "eps_list", "r_list"), _rule(lambda v: v > 0, "be positive")),
    **dict.fromkeys(("scale", "d_min", "d_max", "cluster_radius", "margin_factor",
                     "e_r_half", "c0"), _within(0.0)),
    "family": _one_of(*FAMILIES),
    "variant": _one_of("mixture", "universal"),
    "calculator": _one_of("pointcloud", "binary_infinite", "ball_crossing"),
    "flavor": _one_of(*POINTCLOUD_FLAVORS),
    "log_grid": _within(0, 1),
}


def _schema(kind):
    if kind not in SCHEMAS:
        raise ConfigError("unknown experiment kind %r" % (kind,))
    return {**_COMMON, **SCHEMAS[kind]}


@dataclass
class ExperimentConfig:
    """Declarative description of one simulation run.

    Made with every key of its kind (a missing one at its default), each
    value checked by its type and rule: a fault is "<key> must ...".  The
    map a ``map`` key names, as that check built it, is kept as ``map``
    for the runner; ``params["map"]`` stays the selector.  ``map`` is None
    for a kind without that key and for quant-sim's universal variant,
    which never builds it.
    """

    kind: str
    params: dict = field(default_factory=dict)
    map: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        schema = _schema(self.kind)
        for key in self.params:
            if key not in schema:
                raise ConfigError("unknown key %r for kind %r" % (key, self.kind))
        params = {}
        for key, (typ, default) in schema.items():
            value = self.params.get(key, default)
            if value is REQUIRED:
                raise ConfigError("missing required key %r" % key)
            _, test, what = _TYPES[_LISTS.get(typ, typ)]
            entries = value if typ in _LISTS else [value]
            if not (isinstance(entries, (list, tuple)) and entries and all(map(test, entries))):
                what = "a nonempty list, each %s" % what if typ in _LISTS else what
                raise ConfigError("%s must be %s, got %r" % (key, what, value))
            for fault in map(_RULES[key], entries) if key in _RULES else ():
                if fault is not None:
                    raise ConfigError("%s must %s" % (key, fault))
            params[key] = list(value) if typ in _LISTS else value  # a list of its own
        if self.kind == "map_eval" and params["log_grid"] and params["d_min"] <= 0:
            raise ConfigError("d_min must be positive on a log grid, got %s" % params["d_min"])
        if self.kind == "bounds_sweep" and params["calculator"] == "binary_infinite":
            for eps in params["eps_list"]:  # the runner's w = 2 eps^2 is a bound input
                if not 0.0 < 2.0 * eps * eps < math.inf:
                    raise ConfigError("eps_list must keep w = 2 eps^2 positive and finite"
                                      " for binary_infinite, got %s" % eps)
        for key in ("M", "m_list", "rate_list") if "N" in params else ():  # the M-list
            M = params.get(key, 0) if key == "M" else max(params.get(key, [0]))
            if M * params["N"] > MAX_ELEMENTS:  # randproj's cap on one M x N projection
                raise ConfigError("%s must keep M x N within %d elements, got %d x %d"
                                  % (key, MAX_ELEMENTS, M, params["N"]))
        if "pairs" in params:  # the 2 pairs x N signal block and its 2 pairs x M embedding
            width = max(params["N"], params.get("M", 0), max(params.get("m_list", [0])))
            if 2 * params["pairs"] * width > MAX_ELEMENTS:
                raise ConfigError("pairs must keep 2 pairs x max(N, M) within %d elements,"
                                  " got 2 x %d x %d" % (MAX_ELEMENTS, params["pairs"], width))
        if "clusters" in params:  # the l2 baseline's queries x database x N differences
            shape = (params["clusters"], params["clusters"] * (params["points_per_cluster"] - 1),
                     params["N"])
            if math.prod(shape) > MAX_ELEMENTS:
                raise ConfigError("clusters must keep clusters x clusters (points_per_cluster - 1)"
                                  " x N within %d elements, got %d x %d x %d"
                                  % ((MAX_ELEMENTS,) + shape))
        self.params = params
        # quant-sim's universal variant runs the sawtooth, not its map key's map
        uses_map = "map" in params and params.get("variant") != "universal"
        self.map = _checked_map(params["map"]) if uses_map else None

    def __getitem__(self, key):
        return self.params[key]

    @property
    def seed(self):
        return self.params["seed"]


def make_config(kind, **overrides):
    """Programmatic config: the schema's defaults updated by ``overrides``."""
    return ExperimentConfig(kind, overrides)


def parse_config(path):
    """Parse a config file; errors carry line numbers."""
    entries = {}
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as e:
        raise ConfigError("cannot read config %s: %s" % (path, e)) from None
    with handle as f:
        for lineno, line in enumerate(f, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError("%s:%d: expected `key = value`" % (path, lineno))
            key, _, raw = stripped.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError("%s:%d: empty key" % (path, lineno))
            if key in entries:
                raise ConfigError("%s:%d: duplicate key %r" % (path, lineno, key))
            entries[key] = (raw.strip(), lineno)

    if "kind" not in entries:
        raise ConfigError("%s: missing required key 'kind'" % path)
    kind, _ = entries.pop("kind")
    try:
        schema = _schema(kind)
    except ConfigError as e:
        raise ConfigError("%s: %s" % (path, e)) from None
    params = {}
    for key, (raw, lineno) in entries.items():
        if key not in schema:
            raise ConfigError("%s:%d: unknown key %r for kind %r" % (path, lineno, key, kind))
        typ = schema[key][0]
        parse = _TYPES[_LISTS.get(typ, typ)][0]
        try:
            params[key] = ([parse(x, key) for x in raw.split(",")] if typ in _LISTS
                           else parse(raw, key))
        except ConfigError as e:
            raise ConfigError("%s:%d: %s" % (path, lineno, e)) from None
    try:
        return ExperimentConfig(kind, params)
    except ConfigError as e:
        raise ConfigError("%s: %s" % (path, e)) from None


def format_cell(v):
    """Deterministic CSV cell text: shortest round-trip floats, plain ints."""
    import numpy as np

    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def emit_csv(path, header, rows):
    """CSV with a header row, RFC-style quoting, LF line endings."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n", quoting=csv.QUOTE_MINIMAL)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_cell(v) for v in row])
