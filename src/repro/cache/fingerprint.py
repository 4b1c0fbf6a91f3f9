"""Context fingerprinting for the persistent translation cache.

A persisted rules-tier TB is only reusable when *everything* that went
into translating it is unchanged: the rulebook (learned rules +
structural restrictions), the optimization configuration (which decides
sync elision, scheduling, inter-TB behaviour), the cost model (persisted
blocks re-charge the same modelled translation cost, so the constants
are part of the contract), and the on-disk format itself.  The
fingerprint binds a store directory to that context plus the loaded
guest image; on top of that, the *guest code bytes* are bound per entry
(each entry records its exact machine words and is re-validated against
guest memory at load, see :mod:`repro.cache.loader`), which is what
makes runtime self-modification safe across runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Dict

#: Bump on any incompatible change to the serialized entry layout.
FORMAT_VERSION = 2

#: Store manifest schema tag.
SCHEMA = "repro-tb-cache"


def cost_model_digest() -> str:
    """Digest of every cost-model constant (persisted TBs re-charge the
    modelled translation cost, so a recalibration invalidates stores)."""
    from ..common import costmodel

    constants = sorted(
        (name, value) for name, value in vars(costmodel).items()
        if name.isupper() and isinstance(value, (int, float)))
    return _digest(constants)[:16]


def rulebook_identity(rulebook: Any) -> str:
    """The static identity of a rulebook (filter chain included).

    Runtime quarantine state is deliberately excluded: it starts empty
    every run, and quarantined rules are re-checked per entry at load
    time (see ``CacheLoader.fetch``).
    """
    return str(getattr(rulebook, "name", type(rulebook).__name__))


def guest_image_digest(data: bytes) -> str:
    """Digest of the loaded guest image (initial RAM contents).

    Part of the store key: different programs loaded at overlapping
    addresses must not share per-pc entries.  *Runtime* self-modification
    is invisible here by design — it is caught by the per-entry guest
    byte validation at load time instead."""
    return hashlib.sha256(data).hexdigest()[:16]


def context_fingerprint(rulebook: Any, config: Any,
                        image: str = "") -> Dict[str, Any]:
    """The full store-keying context as a JSON-able dict."""
    return {
        "format_version": FORMAT_VERSION,
        "rulebook": rulebook_identity(rulebook),
        "opt_config": asdict(config),
        "cost_model": cost_model_digest(),
        "guest_image": image,
    }


def fingerprint_key(fp: Dict[str, Any]) -> str:
    """Stable directory name for one context fingerprint."""
    return _digest(fp)[:16]


def _digest(obj: Any) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"),
                         default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def entry_checksum(entry: Dict[str, Any]) -> str:
    """Integrity checksum over one serialized entry (minus the checksum
    field itself): ``repro cache verify`` and the load path both use it
    to reject tampered or corrupted stores."""
    scrubbed = {key: value for key, value in entry.items()
                if key != "sha256"}
    return _digest(scrubbed)
