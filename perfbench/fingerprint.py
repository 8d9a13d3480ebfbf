"""Compact numeric fingerprints of outputs, and their comparison.

A digest of an array holds its size, its L2 norm and its projections onto
three fixed pseudo-random unit directions seeded by a key. A change of the
array by e times its norm moves the norm by up to that much and each
projection by about e times norm / sqrt(size), so two digests match when
the norms agree to RTOL times the recorded norm and the projections to RTOL
times norm / sqrt(size). Two scalars match to within RTOL of the recorded
value. That absorbs the last-digit changes of reordered float64 sums but
not a wrong gradient, attention weight or Euler update.
"""

import math
import zlib

import numpy as np

RTOL = 1e-6
_DIRECTIONS = 3
_DIGEST_KEYS = {"size", "norm", "proj"}


def digest(values, key: str) -> dict:
    x = np.ravel(np.asarray(values, dtype=np.float64))
    rng = np.random.default_rng([zlib.crc32(key.encode()), x.size])
    directions = rng.standard_normal((_DIRECTIONS, x.size)) / math.sqrt(max(x.size, 1))
    return {"size": int(x.size), "norm": float(np.linalg.norm(x)),
            "proj": [float(v) for v in directions @ x]}


def params_digest(params: dict) -> dict:
    return {name: digest(values, name) for name, values in params.items()}


def compare(recorded, observed, path: str = "fingerprint") -> list:
    """Mismatches between a recorded fingerprint and an observed one.

    Fingerprints are nested dicts and lists whose leaves are numbers or
    digests. Returns one message per mismatch; empty means they agree.
    """
    if isinstance(recorded, dict) and set(recorded) == _DIGEST_KEYS:
        if not isinstance(observed, dict) or set(observed) != _DIGEST_KEYS \
                or observed["size"] != recorded["size"]:
            return [f"{path}: not a digest of the same size"]
        tol = RTOL * recorded["norm"]
        out = [] if abs(observed["norm"] - recorded["norm"]) <= tol else \
            [f"{path}: norm {observed['norm']!r} != recorded {recorded['norm']!r}"]
        tol /= math.sqrt(max(recorded["size"], 1))
        worst = max(abs(o - r) for r, o in zip(recorded["proj"], observed["proj"]))
        return out if worst <= tol else \
            out + [f"{path}: projection off by {worst:.3e} (tolerance {tol:.3e})"]
    if isinstance(recorded, dict):
        if not isinstance(observed, dict) or set(observed) != set(recorded):
            return [f"{path}: keys differ"]
        return [m for key in recorded
                for m in compare(recorded[key], observed[key], f"{path}.{key}")]
    if isinstance(recorded, list):
        if not isinstance(observed, list) or len(observed) != len(recorded):
            return [f"{path}: length differs"]
        return [m for i, (r, o) in enumerate(zip(recorded, observed))
                for m in compare(r, o, f"{path}[{i}]")]
    if not abs(observed - recorded) <= RTOL * abs(recorded):
        return [f"{path}: {observed!r} != recorded {recorded!r}"]
    return []
