"""Content-addressed on-disk cache for computed series.

Each entry is one JSON file named after the hash of its key.  The payload
hash is stored alongside and re-verified on every load, so a corrupted or
hand-edited entry is reported instead of silently used.  Entries carry the
serialization format version; gc removes entries from other versions and
temp files left by writers that died before renaming them into place.

The module needs only the standard library, so a cache command loads none of
the math layers, and OpenSSL (behind hashlib) loads only when a command hashes.
"""

from __future__ import annotations

import json
import os
import time

FORMAT_VERSION = 1
# a writer renames its temp file within moments; one older than this is left
# over from a writer that died, and gc removes it
STALE_TMP_SECONDS = 600


class CacheError(Exception):
    """Cache corruption: payload hash mismatch, unreadable entry, or a payload
    that is not an object naming its key's series, params and order with a
    list of entries."""


class CacheEntry:
    """An entry file as read: its key, its payload, the payload's canonical
    text (the one its hash was checked on) and the stored payload hash."""

    __slots__ = ("key", "payload", "text", "sha256")

    def __init__(self, key, payload, text: str, sha256: str):
        self.key = key
        self.payload = payload
        self.text = text
        self.sha256 = sha256


def canonical_json(obj) -> str:
    """Sorted keys, no spaces: byte-stable across runs, which the hashes rely on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def payload_hash(text: str) -> str:
    """The hash stored beside a payload, taken over its canonical text."""
    return _sha256(text)


def make_key(series: str, params: dict, order: int) -> dict:
    return {
        "series": series,
        "params": params,
        "order": order,
        "version": FORMAT_VERSION,
    }


def key_hash(key: dict) -> str:
    return _sha256(canonical_json(key))


def entry_path(directory: str, key: dict) -> str:
    return os.path.join(directory, f"{key['series']}-{key_hash(key)[:16]}.json")


def store(directory: str, key: dict, text: str) -> str:
    """Write the entry of a payload given as its canonical_json text, which
    the caller encodes once for the entry and for its own output."""
    os.makedirs(directory, exist_ok=True)
    path = entry_path(directory, key)
    # a per-process name (not ending in .json) so concurrent writers never
    # share a temp file; os.replace makes the entry appear whole
    tmp = f"{path}.{os.getpid()}.tmp"
    # the text is written in pieces as canonical_json({"key", "payload",
    # "sha256"}) + "\n" would lay them out, so no second full-size copy is built
    with open(tmp, "w") as fh:
        fh.write(f'{{"key":{canonical_json(key)},"payload":')
        fh.write(text)
        fh.write(f',"sha256":"{payload_hash(text)}"}}\n')
    os.replace(tmp, path)
    return path


def load(directory: str, key: dict) -> tuple[dict, str] | None:
    """Return the cached payload and its canonical text, or None if absent;
    raise on corruption."""
    path = entry_path(directory, key)
    if not os.path.exists(path):
        return None
    entry = _read_entry(path)
    if entry.key != key:
        raise CacheError(f"{path}: stored key does not match the request")
    return entry.payload, entry.text


def _read_entry(path: str) -> CacheEntry:
    try:
        with open(path) as fh:
            raw = json.load(fh)
        entry = CacheEntry(raw["key"], raw["payload"], canonical_json(raw["payload"]),
                           raw["sha256"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CacheError(f"{path}: unreadable cache entry ({exc})") from exc
    if not isinstance(entry.key, dict):
        raise CacheError(f"{path}: key is not a JSON object")
    if payload_hash(entry.text) != entry.sha256:
        raise CacheError(f"{path}: payload hash mismatch")
    payload = entry.payload
    if not (isinstance(payload, dict) and isinstance(payload.get("entries"), list)
            and all(f in payload and payload[f] == entry.key.get(f)
                    for f in ("series", "params", "order"))):
        raise CacheError(f"{path}: payload does not match its key")
    return entry


def scan(directory: str):
    """Yield (file name, CacheEntry or CacheError) for each *.json file of the
    directory, sorted by name; one entry is held at a time."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            try:
                yield name, _read_entry(os.path.join(directory, name))
            except CacheError as exc:
                yield name, exc


def gc(directory: str) -> int:
    """Remove entries whose format version differs from the current one,
    corrupt entries, and temp files older than STALE_TMP_SECONDS."""
    removed = 0
    if not os.path.isdir(directory):
        return removed
    now = time.time()
    for name in os.listdir(directory):
        if name.endswith(".tmp"):
            path = os.path.join(directory, name)
            try:
                if os.path.isfile(path) and now - os.path.getmtime(path) > STALE_TMP_SECONDS:
                    os.remove(path)
                    removed += 1
            except FileNotFoundError:
                pass  # renamed or removed meanwhile by its writer
    for name, entry in scan(directory):
        if isinstance(entry, CacheError) or entry.key.get("version") != FORMAT_VERSION:
            os.remove(os.path.join(directory, name))
            removed += 1
    return removed
