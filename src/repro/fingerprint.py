"""Structural fingerprints: the one content-address notion in the repo.

A fingerprint is the SHA-256 of a dict's canonical JSON (sorted keys,
no whitespace), so two structurally equal descriptors address the same
object and any field change addresses a different one.  The result
store keys its records by it, defenses fingerprint their structural
identity with it, and the batched timing path keys its memo by the
machine configuration's.  A leaf module (stdlib only), so every layer
can import it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json


def canonical_json(data: dict) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def fingerprint(descriptor: dict) -> str:
    """SHA-256 content address of a descriptor dict."""
    return hashlib.sha256(canonical_json(descriptor).encode()).hexdigest()


def config_fingerprint(config) -> str | None:
    """Structural identity of a machine configuration (``None`` for
    ``None``): the fingerprint of every config field, recursively."""
    if config is None:
        return None
    return fingerprint(dataclasses.asdict(config))
