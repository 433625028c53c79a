"""Experiment configuration files and CSV output.

Config format: one `key = value` per line, `#` comments, lists comma-
separated.  Unknown and duplicate keys are hard errors (no silent typos),
reported with their line number.  Map selectors follow the catalog syntax,
e.g. ``square``, ``multibit:B=2``, ``mixture:1:0.7071,10:0.7071``,
``quantized:mixture:1:0.7071,10:0.7071:B=4``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

from ..maps import (
    make_fourier_mixture,
    make_multibit,
    make_sawtooth,
    make_square_wave,
    quantize_map,
)

# Fig-3-style default design map: sin(2 pi t) + sin(20 pi t), scaled.
DEFAULT_MIXTURE = "mixture:1:0.7071067811865476,10:0.7071067811865476"


class ConfigError(ValueError):
    """Configuration file or value rejected."""


def parse_map(selector):
    """Build a PeriodicMap from its config selector string."""
    sel = selector.strip()
    if sel == "square":
        return make_square_wave()
    if sel == "sawtooth":
        return make_sawtooth()
    if sel.startswith("multibit:"):
        rest = sel[len("multibit:"):]
        if not rest.startswith("B="):
            raise ConfigError("multibit selector must be multibit:B=<bits>")
        bits = _parse_int(rest[2:], "multibit bits")
        try:
            return make_multibit(bits)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if sel.startswith("mixture:"):
        body = sel[len("mixture:"):]
        terms = []
        for item in body.split(","):
            parts = item.split(":")
            if len(parts) != 2:
                raise ConfigError("mixture term %r is not freq:amplitude" % item)
            terms.append((_parse_int(parts[0], "mixture frequency"),
                          _parse_float(parts[1], "mixture amplitude")))
        try:
            return make_fourier_mixture(terms)
        except ValueError as e:
            raise ConfigError(str(e)) from e
    if sel.startswith("quantized:"):
        body = sel[len("quantized:"):]
        idx = body.rfind(":B=")
        if idx < 0:
            raise ConfigError("quantized selector must end with :B=<bits>")
        inner = parse_map(body[:idx])
        try:
            return quantize_map(inner, _parse_int(body[idx + 3:], "quantized bits"))
        except ValueError as e:
            raise ConfigError(str(e)) from e
    raise ConfigError("unknown map selector %r" % selector)


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


def _coerce(raw, typ, key):
    if typ == "int":
        return _parse_int(raw, key)
    if typ == "float":
        return _parse_float(raw, key)
    if typ == "str":
        return raw.strip()
    if typ == "ints":
        return [_parse_int(x, key) for x in raw.split(",")]
    if typ == "floats":
        return [_parse_float(x, key) for x in raw.split(",")]
    raise AssertionError(typ)


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


@dataclass
class ExperimentConfig:
    """Declarative description of one simulation run."""

    kind: str
    params: dict = field(default_factory=dict)

    def __getitem__(self, key):
        return self.params[key]

    @property
    def seed(self):
        return self.params["seed"]


def _schema(kind, where):
    if kind not in SCHEMAS:
        raise ConfigError("%sunknown experiment kind %r" % (where, kind))
    return {**_COMMON, **SCHEMAS[kind]}


def _with_defaults(kind, schema, params, where):
    """The config of ``params`` with every key it omits set to its default."""
    for key, (_, default) in schema.items():
        if key not in params:
            if default is REQUIRED:
                raise ConfigError("%smissing required key %r" % (where, key))
            params[key] = default
    return ExperimentConfig(kind=kind, params=params)


def make_config(kind, **overrides):
    """Programmatic config with schema validation and defaults."""
    schema = _schema(kind, "")
    for key in overrides:
        if key not in schema:
            raise ConfigError("unknown key %r for kind %r" % (key, kind))
    return _with_defaults(kind, schema, dict(overrides), "")


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
    schema = _schema(kind, "%s: " % path)

    params = {}
    for key, (raw, lineno) in entries.items():
        if key not in schema:
            raise ConfigError(
                "%s:%d: unknown key %r for kind %r" % (path, lineno, key, kind)
            )
        typ, _ = schema[key]
        try:
            params[key] = _coerce(raw, typ, key)
        except ConfigError as e:
            raise ConfigError("%s:%d: %s" % (path, lineno, e)) from None
    return _with_defaults(kind, schema, params, "%s: " % path)


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
