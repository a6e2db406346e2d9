"""Content-addressed on-disk cache for computed series.

Each entry is one JSON file named after the hash of its key.  The payload
hash is stored alongside and re-verified on every load, so a corrupted or
hand-edited entry is reported instead of silently used.  Entries carry the
serialization format version; gc removes entries from other versions and
temp files left by writers that died before renaming them into place.

The payload is never held whole as Python objects.  payload_text encodes it
one entry at a time, and a file laid out exactly as store writes it is read
the same way: the payload is sliced out of the file text, and each of its
entries is decoded, checked to be canonical and dropped, so the hash is
checked on the slice itself.  A file with any other layout (spacing, another
key order, a non-canonical entry, or no JSON at all) is parsed whole, and the
checks that follow are the same for both readings, so every corrupt entry is
reported as it would be on a whole parse.  A load hands back the checked
text; iter_entries decodes its entries again, one at a time, for a caller
that needs the values.

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
    """An entry file as read: its key, the payload's header (its order, params
    and series; None when the payload is not an object with a list of
    entries), the payload's canonical text (the one its hash was checked on)
    and the stored payload hash.  The entries stay in the text."""

    __slots__ = ("key", "header", "text", "sha256")

    def __init__(self, key, header: dict | None, text: str, sha256: str):
        self.key = key
        self.header = header
        self.text = text
        self.sha256 = sha256


# the layout store writes: _KEY_OPEN key _PAYLOAD_OPEN payload _SHA_OPEN hash
# _CLOSE, where the payload is _ENTRIES_OPEN entries "]" then the _HEADER
# fields, as canonical_json sorts the keys of both objects
_KEY_OPEN, _PAYLOAD_OPEN, _SHA_OPEN, _CLOSE = '{"key":', ',"payload":', ',"sha256":"', '"}\n'
_ENTRIES_OPEN = '{"entries":['
_HEADER = ("order", "params", "series")
_SHA_LEN = 64
_DECODER = json.JSONDecoder()


def canonical_json(obj) -> str:
    """Sorted keys, no spaces: byte-stable across runs, which the hashes rely on."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def payload_hash(text: str) -> str:
    """The hash stored beside a payload, taken over its canonical text."""
    return _sha256(text)


def payload_text(series: str, params: dict, order: int, entries) -> str:
    """canonical_json of the payload {"series", "params", "order", "entries"},
    encoded one entry at a time as the iterable yields them, so the entries
    are never all held as objects."""
    body = ",".join(map(canonical_json, entries))
    header = "".join(f',"{name}":{canonical_json(value)}'
                     for name, value in zip(_HEADER, (order, params, series)))
    return f"{_ENTRIES_OPEN}{body}]{header}}}"


def iter_entries(text: str):
    """Yield the entries of a checked payload text one at a time."""
    if text.startswith(_ENTRIES_OPEN):
        for entry, _, _ in _scan_entries(text):
            yield entry
    else:  # a key sorts before "entries": a payload that store did not write
        yield from json.loads(text)["entries"]


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
        fh.write(f"{_KEY_OPEN}{canonical_json(key)}{_PAYLOAD_OPEN}")
        fh.write(text)
        fh.write(f"{_SHA_OPEN}{payload_hash(text)}{_CLOSE}")
    os.replace(tmp, path)
    return path


def load(directory: str, key: dict) -> CacheEntry | None:
    """Return the checked entry of the key, or None if absent; raise on
    corruption."""
    path = entry_path(directory, key)
    if not os.path.exists(path):
        return None
    entry = _read_entry(path)
    if entry.key != key:
        raise CacheError(f"{path}: stored key does not match the request")
    return entry


def _read_entry(path: str) -> CacheEntry:
    try:
        with open(path) as fh:
            raw = fh.read()
        entry = _read_stored(raw) or _read_whole(raw)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CacheError(f"{path}: unreadable cache entry ({exc})") from exc
    if not isinstance(entry.key, dict):
        raise CacheError(f"{path}: key is not a JSON object")
    if payload_hash(entry.text) != entry.sha256:
        raise CacheError(f"{path}: payload hash mismatch")
    header = entry.header
    if header is None or not all(f in header and header[f] == entry.key.get(f)
                                 for f in _HEADER):
        raise CacheError(f"{path}: payload does not match its key")
    return entry


def _read_whole(raw: str) -> CacheEntry:
    """Parse an entry file whole: the reading of a file that store did not
    lay out, which gives what _read_stored gives on one it did."""
    obj = json.loads(raw)
    key, payload = obj["key"], obj["payload"]
    text = canonical_json(payload)
    header = None
    if isinstance(payload, dict) and isinstance(payload.get("entries"), list):
        header = {f: payload[f] for f in _HEADER if f in payload}
    return CacheEntry(key, header, text, obj["sha256"])


def _read_stored(raw: str) -> CacheEntry | None:
    """The entry of a file laid out exactly as store writes it, its payload
    read one entry at a time; None on any departure from that layout."""
    try:
        if not raw.startswith(_KEY_OPEN):
            return None
        key, i = _DECODER.raw_decode(raw, len(_KEY_OPEN))
        start = i + len(_PAYLOAD_OPEN)
        end = len(raw) - len(_SHA_OPEN) - _SHA_LEN - len(_CLOSE)
        if not (start <= end and raw.startswith(_PAYLOAD_OPEN, i)
                and raw.startswith(_SHA_OPEN, end) and raw.endswith(_CLOSE)):
            return None
        text = raw[start:end]
        header = _read_payload(text)
    except (ValueError, IndexError):  # not JSON where the layout puts it
        return None
    if header is None:
        return None
    return CacheEntry(key, header, text, raw[end + len(_SHA_OPEN):-len(_CLOSE)])


def _read_payload(text: str) -> dict | None:
    """The header of a payload text laid out as payload_text writes it, after
    decoding each entry in turn and checking that it is canonical; None on
    any departure.  A value that is not JSON raises ValueError."""
    if not text.startswith(_ENTRIES_OPEN):
        return None
    i = len(_ENTRIES_OPEN)
    for entry, start, i in _scan_entries(text):
        if canonical_json(entry) != text[start:i]:
            return None
    if text[i] != "]":
        return None
    i += 1
    header = {}
    for name in _HEADER:
        field = f',"{name}":'
        if not text.startswith(field, i):
            return None
        i += len(field)
        header[name], end = _DECODER.raw_decode(text, i)
        if canonical_json(header[name]) != text[i:end]:
            return None
        i = end
    return header if text[i:] == "}" else None


def _scan_entries(text: str):
    """Yield (entry, start, end) for each entry of the list that _ENTRIES_OPEN
    opens, decoded one at a time; the list closes at the end of the last."""
    i = len(_ENTRIES_OPEN)
    if text[i] == "]":
        return
    while True:
        entry, end = _DECODER.raw_decode(text, i)
        yield entry, i, end
        if text[end] != ",":
            return
        i = end + 1


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
