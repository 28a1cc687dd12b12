"""Config-file and kernel-specification parsing for the CLI.

Kernel grammar: ``none`` (empty kernel), ``geometric:<ratio>``
(alpha_n = ratio^n, truncated), or ``lags:[a1,a2,...]`` (explicit finite
kernel). Monte Carlo configs are flat JSON objects; unknown keys are
rejected by name so typos fail loudly.

This module reads format only: JSON, keys, the type of each value, the
kernel grammar and the 64-bit seed. A value of the right type but out of
range is refused by the library function that owns its rule
(:func:`~inar.model.geometric_kernel`, the model check, ``McConfig``), with
the class and message it raises from Python or from a CLI flag.
"""

from __future__ import annotations

import json

from .errors import ParseError, ValidationError
from .model import ModelParams, _as_float, geometric_kernel
from .montecarlo import McConfig
from .simulate import DEFAULT_LAMBDA_CAP

__all__ = ["parse_kernel_spec", "parse_config", "require_seed", "require_stream_id", "CONFIG_KEYS"]

CONFIG_KEYS = {
    "nu": True,
    "kernel": True,
    "T": True,
    "p": True,
    "n_experiments": True,
    "seed": True,
    "cap_negatives": False,
    "lambda_cap": False,
    "case": False,
}  # key -> required

_SEED_LIMIT = 1 << 64


def parse_kernel_spec(spec: str) -> tuple[float, ...]:
    """Parse the kernel grammar into a coefficient tuple. A geometric ratio
    outside (0, 1) is refused by :func:`~inar.model.geometric_kernel`; lag
    values are left to the model check."""
    if not isinstance(spec, str):
        raise ParseError(f"kernel spec must be a string, got {type(spec).__name__}")
    text = spec.strip()
    if text == "none":
        return ()
    if text.startswith("geometric:"):
        arg = text[len("geometric:"):]
        try:
            ratio = float(arg)
        except ValueError:
            raise ParseError(f"bad geometric ratio {arg!r} in kernel spec") from None
        return geometric_kernel(ratio)
    if text.startswith("lags:[") and text.endswith("]"):
        body = text[len("lags:[") : -1].strip()
        if not body:
            return ()
        values = []
        for tok in body.split(","):
            try:
                values.append(float(tok))
            except ValueError:
                raise ParseError(f"bad lag value {tok!r} in kernel spec") from None
        return tuple(values)
    raise ParseError(
        f"unrecognized kernel spec {spec!r}; expected 'none', "
        f"'geometric:<ratio>', or 'lags:[a1,a2,...]'"
    )


def _require_number(raw, key: str) -> float:
    # A number as a float: an integer lambda_cap is the float the study
    # records (and digests), an integer past the float range is inf.
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ValidationError(f"{key}: expected a number, got {raw!r}")
    return _as_float(raw)


def _require_int(raw, key: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ValidationError(f"{key}: expected an integer, got {raw!r}")
    return raw


def require_seed(raw) -> int:
    """A base seed: an integer that fits in 64 bits, signed or unsigned."""
    _require_int(raw, "seed")
    if not -_SEED_LIMIT < raw < _SEED_LIMIT:
        raise ValidationError(f"seed: must fit in 64 bits, got {raw}")
    return raw


def require_stream_id(raw: int) -> int:
    """A stream id: an integer in [0, 2**64)."""
    if not 0 <= raw < _SEED_LIMIT:
        raise ValidationError(f"stream_id: must be in [0, 2**64), got {raw}")
    return raw


def parse_config(text: str) -> McConfig:
    """Parse a Monte Carlo config document (a JSON object) into a
    ``McConfig``, which checks its values."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed config: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("config must be a JSON object of key-value pairs")

    unknown = sorted(set(doc) - set(CONFIG_KEYS))
    if unknown:
        raise ParseError(f"unknown config key {unknown[0]!r}")
    missing = sorted(k for k, req in CONFIG_KEYS.items() if req and k not in doc)
    if missing:
        raise ParseError(f"missing required config key {missing[0]!r}")

    nu = _require_number(doc["nu"], "nu")
    t = _require_int(doc["T"], "T")
    p = _require_int(doc["p"], "p")
    n_experiments = _require_int(doc["n_experiments"], "n_experiments")
    seed = require_seed(doc["seed"])

    cap_negatives = doc.get("cap_negatives", True)
    if not isinstance(cap_negatives, bool):
        raise ValidationError(
            f"cap_negatives: expected true/false, got {cap_negatives!r}"
        )
    lam_cap = _require_number(doc.get("lambda_cap", DEFAULT_LAMBDA_CAP), "lambda_cap")
    kernel = parse_kernel_spec(doc["kernel"])
    case = doc.get("case", doc["kernel"])
    if not isinstance(case, str):
        raise ValidationError(f"case: expected a string label, got {case!r}")

    params = ModelParams(nu=nu, kernel=kernel, kernel_tail=str(doc["kernel"]))
    return McConfig(
        params=params,
        T=t,
        p=p,
        n_experiments=n_experiments,
        base_seed=seed,
        cap_negatives=cap_negatives,
        lam_cap=lam_cap,
        case=case,
    )
