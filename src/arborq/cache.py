"""Content-addressed on-disk cache for computed series.

Each entry is one JSON file named after the hash of its key.  The payload
hash is stored alongside and re-verified on every load, so a corrupted or
hand-edited entry is reported instead of silently used.  Entries carry the
serialization format version; gc removes entries from other versions and
temp files left by writers that died before renaming them into place.

The payload is never held whole as Python objects.  store takes it as
pieces of canonical text and writes them to a temp file as they come, with
an incremental hash; copy_payload then copies it back out of the entry in
chunks.  A file laid out exactly as store writes it is read as bytes: the
payload hash is taken over the bytes where the layout puts the payload, and
the payload's entries are decoded from its text one at a time, checked to be
canonical and handed to the caller's each.  A file with any other layout
(spacing, another key order, a non-canonical entry, or no JSON at all) is
parsed whole, and the checks that follow are the same for both readings, so
every corrupt entry is reported as it would be on a whole parse.

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
    entries), the payload's canonical text, the stored payload hash and the
    hash of the payload as read.  The entries stay in the text; items lists
    what the load's each returned for each of them."""

    __slots__ = ("key", "header", "text", "sha256", "digest", "items")

    def __init__(self, key, header: dict | None, text: str, sha256: str, digest: str,
                 items: list):
        self.key = key
        self.header = header
        self.text = text
        self.sha256 = sha256
        self.digest = digest
        self.items = items


# the layout store writes: _KEY_OPEN key _PAYLOAD_OPEN payload _SHA_OPEN hash
# _CLOSE, where the payload is _ENTRIES_OPEN entries "]" then the _HEADER
# fields, as canonical_json sorts the keys of both objects
_KEY_OPEN, _PAYLOAD_OPEN, _SHA_OPEN, _CLOSE = '{"key":', ',"payload":', ',"sha256":"', '"}\n'
_ENTRIES_OPEN = '{"entries":['
_HEADER = ("order", "params", "series")
_SHA_LEN = 64
_TAIL = len(_SHA_OPEN) + _SHA_LEN + len(_CLOSE)
_DECODER = json.JSONDecoder()
_CHUNK = 1 << 16


# json.dumps(obj, sort_keys=True, separators=(",", ":")) without the cycle
# check: what it encodes is decoded JSON or made of literals, with no cycle
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    """Sorted keys, no spaces: byte-stable across runs, which the hashes rely on."""
    return _ENCODER.encode(obj)


def _sha256(data) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


def payload_hash(text: str) -> str:
    """The hash stored beside a payload, taken over its canonical text."""
    return _sha256(text.encode())


def payload_pieces(series: str, params: dict, order: int, entries):
    """Yield canonical_json of the payload {"series", "params", "order",
    "entries"} in pieces, given the canonical text of each entry in turn."""
    yield _ENTRIES_OPEN
    sep = ""
    for entry in entries:
        yield sep + entry
        sep = ","
    header = "".join(f',"{name}":{canonical_json(value)}'
                     for name, value in zip(_HEADER, (order, params, series)))
    yield f"]{header}}}"


def make_key(series: str, params: dict, order: int) -> dict:
    return {
        "series": series,
        "params": params,
        "order": order,
        "version": FORMAT_VERSION,
    }


def key_hash(key: dict) -> str:
    return _sha256(canonical_json(key).encode())


def entry_path(directory: str, key: dict) -> str:
    return os.path.join(directory, f"{key['series']}-{key_hash(key)[:16]}.json")


def store(directory: str, key: dict, pieces) -> str:
    """Write the entry of a payload given as the pieces of its canonical text
    (an iterable of str, such as [text]), each written and hashed as it comes,
    so the payload is never held whole.  A temp file left by a failure is
    removed."""
    import hashlib

    os.makedirs(directory, exist_ok=True)
    path = entry_path(directory, key)
    # a per-process name (not ending in .json) so concurrent writers never
    # share a temp file; os.replace makes the entry appear whole
    tmp = f"{path}.{os.getpid()}.tmp"
    digest = hashlib.sha256()
    try:
        # laid out as canonical_json({"key", "payload", "sha256"}) + "\n"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(f"{_KEY_OPEN}{canonical_json(key)}{_PAYLOAD_OPEN}")
            for piece in pieces:
                fh.write(piece)
                digest.update(piece.encode())
            fh.write(f"{_SHA_OPEN}{digest.hexdigest()}{_CLOSE}")
    except BaseException:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)
    return path


def copy_payload(path: str, key: dict, out) -> None:
    """Write the payload of the entry store wrote for key at path to the text
    stream out, a chunk at a time."""
    start = len(_KEY_OPEN) + len(canonical_json(key)) + len(_PAYLOAD_OPEN)
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size - _TAIL - start
        fh.seek(start)
        while left > 0:
            chunk = fh.read(min(_CHUNK, left))
            if not chunk:
                raise OSError(f"{path}: the entry ended early")
            out.write(chunk.decode())
            left -= len(chunk)


def load(directory: str, key: dict, each=None) -> CacheEntry | None:
    """Return the checked entry of the key, or None if absent; raise on
    corruption.  each, if given, is called on every entry of the payload as
    it is read, before the last checks, and entry.items lists what it
    returned."""
    path = entry_path(directory, key)
    if not os.path.exists(path):
        return None
    entry = _read_entry(path, each)
    if entry.key != key:
        raise CacheError(f"{path}: stored key does not match the request")
    return entry


def _read_entry(path: str, each=None) -> CacheEntry:
    try:
        entry = _read_stored(path, each) or _read_whole(path, each)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CacheError(f"{path}: unreadable cache entry ({exc})") from exc
    if not isinstance(entry.key, dict):
        raise CacheError(f"{path}: key is not a JSON object")
    if entry.digest != entry.sha256:
        raise CacheError(f"{path}: payload hash mismatch")
    header = entry.header
    if header is None or not all(f in header and header[f] == entry.key.get(f)
                                 for f in _HEADER):
        raise CacheError(f"{path}: payload does not match its key")
    return entry


def _read_whole(path: str, each) -> CacheEntry:
    """Parse an entry file whole: the reading of a file that store did not
    lay out, which gives what _read_stored gives on one it did."""
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    key, payload = obj["key"], obj["payload"]
    text = canonical_json(payload)
    header = None
    items = []
    if isinstance(payload, dict) and isinstance(payload.get("entries"), list):
        header = {f: payload[f] for f in _HEADER if f in payload}
        if each is not None:
            items = [each(entry) for entry in payload["entries"]]
    return CacheEntry(key, header, text, obj["sha256"], payload_hash(text), items)


def _read_stored(path: str, each) -> CacheEntry | None:
    """The entry of a file laid out exactly as store writes it, read as bytes:
    its payload hashed where the layout puts it, then decoded and read one
    entry at a time.  None on any departure from that layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    opening = _KEY_OPEN.encode()
    try:
        if not data.startswith(opening):
            return None
        i = data.find(_PAYLOAD_OPEN.encode(), len(opening))
        start = i + len(_PAYLOAD_OPEN)
        end = len(data) - _TAIL
        if not (0 <= i and start <= end and data.startswith(_SHA_OPEN.encode(), end)
                and data.endswith(_CLOSE.encode())):
            return None
        key_text = data[len(opening):i].decode()
        key, k = _DECODER.raw_decode(key_text)
        if k != len(key_text):
            return None
        sha256 = data[end + len(_SHA_OPEN):-len(_CLOSE)].decode()
        with memoryview(data)[start:end] as payload:
            digest = _sha256(payload)
            text = str(payload, "utf-8")
        del data  # the bytes go before the entries are read
        read = _read_payload(text, each)
    except (ValueError, IndexError):  # not JSON where the layout puts it
        return None
    if read is None:
        return None
    header, items = read
    return CacheEntry(key, header, text, sha256, digest, items)


def _read_payload(text: str, each) -> tuple[dict, list] | None:
    """The header of a payload text laid out as payload_pieces writes it, and
    each on its entries, after decoding each entry in turn and checking that
    it is canonical; None on any departure.  A value that is not JSON raises
    ValueError."""
    if not text.startswith(_ENTRIES_OPEN):
        return None
    items = []
    i = len(_ENTRIES_OPEN)
    for entry, start, i in _scan_entries(text):
        if canonical_json(entry) != text[start:i]:
            return None
        if each is not None:
            items.append(each(entry))
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
    return (header, items) if text[i:] == "}" else None


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
