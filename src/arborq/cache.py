"""Content-addressed on-disk cache for computed series.

Each entry is one JSON file named after the hash of its key.  The payload
hash is stored alongside and re-verified on every load, so a corrupted or
hand-edited entry is reported instead of silently used.  Entries carry the
serialization format version; gc removes entries from other versions and
temp files left by writers that died before renaming them into place.

The payload is never held whole.  store takes it as pieces of canonical text
and writes them to a temp file as they come, with an incremental hash;
copy_payload then copies it back out of the entry in chunks.  A file laid
out exactly as store writes it is read in one pass over the open file: the
stored hash from its fixed-length tail, the key from its head, then the
payload a chunk at a time, each chunk hashed and decoded as UTF-8, and each
of the payload's entries checked to be canonical as soon as it is complete
and its text handed to the caller's each.  An entry of the form arborq
writes is checked by one match of the entry grammar (_ENTRY_GRAMMAR, a
subset of canonical JSON) and is not decoded; any other entry is decoded
and must re-encode to its own text.  That grammar is the one description of
a stored entry: serialize.value_from_text reads values by its value
patterns, QRAT_VALUE and XPOLY_VALUE.  So a json hit, list and
verify-hashes decode only the key and the payload's header of a file arborq
wrote.  A loaded entry keeps that file open, so a json hit copies out the
very bytes the load checked.  A file with any other layout (spacing, another
key order, a non-canonical entry, or no JSON at all) is parsed whole, each
gets the canonical text of each of its entries too, and the checks that
follow are the same for both readings, so every corrupt entry is reported
as it would be on a whole parse.

The module needs only the standard library, so a cache command loads none of
the math layers.  It hashes with the interpreter's built-in SHA-256 (_sha2,
or _sha256 before Python 3.12), so no command loads OpenSSL, which hashlib
would: that costs a process 3.3-3.6 MB of memory and a few ms to start.  The
built-in hash is slower, 4.5 against 0.8 ms per MB (2 vCPU, CPython 3.11-3.13),
which adds about 3 ms to each hash of an order-8 pawn entry and about 35 ms
to one of order 10.
"""

from __future__ import annotations

import codecs
import io
import json
import os
import time

try:  # the interpreter's own SHA-256: Python 3.12 on, then before
    from _sha2 import sha256 as _new_hash
except ImportError:
    try:
        from _sha256 import sha256 as _new_hash
    except ImportError:  # a build without either module
        from hashlib import sha256 as _new_hash

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
    entries), the stored payload hash and the hash of the payload as read.
    The entries are not kept; items lists what the load's each returned for
    the canonical text of each of them.

    The payload itself is either text, the canonical text of a payload that
    was parsed whole, or the bytes at span of file, the entry file the load
    read in store's layout and left open; write_payload writes it either way.
    An entry from load is closed by close or by leaving a with block."""

    __slots__ = ("key", "header", "sha256", "digest", "items", "text", "file", "span")

    def __init__(self, key, header: dict | None, sha256: str, digest: str, items: list,
                 text: str | None = None, file=None, span: tuple[int, int] = (0, 0)):
        self.key = key
        self.header = header
        self.sha256 = sha256
        self.digest = digest
        self.items = items
        self.text = text
        self.file = file
        self.span = span

    def write_payload(self, out) -> None:
        """Write the payload's text, as the load checked it, to the text
        stream out."""
        if self.file is None:
            out.write(self.text)
        else:
            _copy(self.file, *self.span, out)

    def close(self) -> None:
        if self.file is not None:
            self.file.close()

    def __enter__(self) -> CacheEntry:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


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
# what _Text.value gives for a value whose text its pattern matched
_MATCHED = object()
# the match method of the compiled _ENTRY_GRAMMAR, set on first use
_ENTRY_MATCH = None
# the characters that may go on a number that ends where the text read so far
# does: it is complete only once a character not among them follows
_NUMBER_GOES_ON = frozenset("0123456789.eE+-")


# The one grammar of the entries arborq writes, ["E",V].  E is a tree
# encoding and V a value: a rational function {"den":P,"num":P}
# (QRAT_VALUE), or an x-polynomial [[J,{"den":P,"num":P}],...] or []
# (XPOLY_VALUE).  P is a pair list [[K,"k/1"],...] or [], with J and K below
# EXPONENT_BOUND and k of at most 640 digits (the least limit Python may put
# on converting a decimal int).  Every text it matches is canonical JSON: the
# keys are sorted, there are no spaces, an int has no leading zero and no
# string needs an escape.  No alternation is ambiguous and every repetition
# starts with a literal, so a text it fails on fails in linear time.  The
# patterns capture nothing: groups took the match of the 200 order-8 pawn
# entries in a fresh process from 6.9 to 11.2 ms (2 vCPU, CPython 3.11).
EXPONENT_BOUND = 10**6
_EXP = r"(?:0|[1-9][0-9]{0,5})"
_PAIR = rf'\[{_EXP},"-?[0-9]{{1,640}}/1"\]'
_PAIRS = rf"\[(?:{_PAIR}(?:,{_PAIR})*)?\]"
QRAT_VALUE = rf'\{{"den":{_PAIRS},"num":{_PAIRS}\}}'
XPOLY_VALUE = rf"\[(?:\[{_EXP},{QRAT_VALUE}\](?:,\[{_EXP},{QRAT_VALUE}\])*)?\]"
_ENTRY_GRAMMAR = rf'\["[()]+",(?:{QRAT_VALUE}|{XPOLY_VALUE})\]'


def _entry_match():
    global _ENTRY_MATCH
    if _ENTRY_MATCH is None:
        import re

        _ENTRY_MATCH = re.compile(_ENTRY_GRAMMAR).match
    return _ENTRY_MATCH


# json.dumps(obj, sort_keys=True, separators=(",", ":")) without the cycle
# check: what it encodes is decoded JSON or made of literals, with no cycle
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)


def canonical_json(obj) -> str:
    """Sorted keys, no spaces: byte-stable across runs, which the hashes rely on."""
    return _ENCODER.encode(obj)


def payload_hash(text: str) -> str:
    """The hash stored beside a payload, taken over its canonical text."""
    return _new_hash(text.encode()).hexdigest()


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
    return _new_hash(canonical_json(key).encode()).hexdigest()


def entry_path(directory: str, key: dict) -> str:
    return os.path.join(directory, f"{key['series']}-{key_hash(key)[:16]}.json")


def store(directory: str, key: dict, pieces) -> str:
    """Write the entry of a payload given as the pieces of its canonical text
    (an iterable of str, such as [text]), each written and hashed as it comes,
    so the payload is never held whole.  A temp file left by a failure is
    removed."""
    os.makedirs(directory, exist_ok=True)
    path = entry_path(directory, key)
    # a per-process name (not ending in .json) so concurrent writers never
    # share a temp file; os.replace makes the entry appear whole
    tmp = f"{path}.{os.getpid()}.tmp"
    digest = _new_hash()
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
        _copy(fh, start, os.fstat(fh.fileno()).st_size - _TAIL, out)


def _copy(fh, start: int, end: int, out) -> None:
    """Write bytes start to end of the binary file fh, decoded, to out."""
    fh.seek(start)
    for text in _decoded(fh, end - start):
        out.write(text)


def _decoded(fh, size: int, digest=None):
    """Yield the text of the next size bytes of fh, read and decoded as UTF-8
    a _CHUNK at a time; digest, if given, is updated with each chunk."""
    decode = codecs.getincrementaldecoder("utf-8")().decode
    while size > 0:
        chunk = fh.read(min(_CHUNK, size))
        if not chunk:
            raise OSError(f"{fh.name}: the entry ended early")
        size -= len(chunk)
        if digest is not None:
            digest.update(chunk)
        yield decode(chunk, not size)


def load(directory: str, key: dict, each=None) -> CacheEntry | None:
    """Return the checked entry of the key, or None if absent; raise on
    corruption.  each, if given, is called on the canonical text of every
    entry of the payload as it is read, before the last checks, and
    entry.items lists what it returned.  The entry may hold its file open:
    close it, or use it in a with block."""
    path = entry_path(directory, key)
    entry = _read_entry(path, each) if os.path.exists(path) else None
    if entry is None:
        return None
    if entry.key != key:
        entry.close()
        raise CacheError(f"{path}: stored key does not match the request")
    return entry


def _read_entry(path: str, each=None) -> CacheEntry | None:
    """The checked entry of the file at path, holding the file open when it
    was read in store's layout, or None if there is no file to open (one
    removed meanwhile, by a gc); raise CacheError on any corruption."""
    fh = None
    try:
        try:
            try:
                fh = open(path, "rb")
            except FileNotFoundError:
                return None
            entry = _read_stored(fh, each) or _read_whole(fh, each)
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
        if entry.file is not None:
            fh = None  # the entry holds it
        return entry
    finally:
        if fh is not None:
            fh.close()


def _read_whole(fh, each) -> CacheEntry:
    """Parse the binary file fh whole, as UTF-8 text from its start: the
    reading of a file that store did not lay out, which gives what
    _read_stored gives on one it did.  fh stays open, for its opener to
    close."""
    fh.seek(0)
    reader = io.TextIOWrapper(fh, encoding="utf-8")
    try:
        obj = json.load(reader)
    finally:
        reader.detach()
    key, payload = obj["key"], obj["payload"]
    text = canonical_json(payload)
    header = None
    items = []
    if isinstance(payload, dict) and isinstance(payload.get("entries"), list):
        header = {f: payload[f] for f in _HEADER if f in payload}
        if each is not None:
            items = [each(canonical_json(entry)) for entry in payload["entries"]]
    return CacheEntry(key, header, obj["sha256"], payload_hash(text), items, text=text)


def _read_stored(fh, each) -> CacheEntry | None:
    """The entry of the binary file fh laid out exactly as store writes it,
    in one pass: the stored hash from the tail, the key from the head, then
    the payload hashed and read one entry at a time as its chunks come.  None
    on any departure from that layout."""
    end = os.fstat(fh.fileno()).st_size - _TAIL
    try:
        head = _read_head(fh)
        if head is None or len(head) > end:
            return None
        fh.seek(end)
        tail = fh.read(_TAIL)
        if not (tail.startswith(_SHA_OPEN.encode()) and tail.endswith(_CLOSE.encode())):
            return None
        sha256 = tail[len(_SHA_OPEN):-len(_CLOSE)].decode()
        key_text = head[len(_KEY_OPEN):-len(_PAYLOAD_OPEN)].decode()
        key, k = _DECODER.raw_decode(key_text)
        if k != len(key_text):
            return None
        fh.seek(len(head))
        digest = _new_hash()
        read = _read_payload(_Text(_decoded(fh, end - len(head), digest)), each)
    except ValueError:  # not UTF-8, or not JSON, where the layout puts it
        return None
    if read is None:
        return None
    header, items = read
    return CacheEntry(key, header, sha256, digest.hexdigest(), items, file=fh,
                      span=(len(head), end))


def _read_head(fh) -> bytes | None:
    """The bytes of fh up to and including the first _PAYLOAD_OPEN after
    _KEY_OPEN, read a _CHUNK at a time; None if fh does not start with
    _KEY_OPEN or has no _PAYLOAD_OPEN."""
    opening, closing = _KEY_OPEN.encode(), _PAYLOAD_OPEN.encode()
    head = b""
    while True:
        chunk = fh.read(_CHUNK)
        if not chunk:
            return None
        start = max(len(opening), len(head) - len(closing) + 1)
        head += chunk
        if not head.startswith(opening[:len(head)]):
            return None
        i = head.find(closing, start)
        if i >= 0:
            return head[:i + len(closing)]


class _Text:
    """Text that arrives in pieces from an iterator of str: the part not yet
    read is text[at:], and more is taken from the pieces as it is needed."""

    __slots__ = ("pieces", "text", "at")

    def __init__(self, pieces):
        self.pieces = pieces
        self.text = ""
        self.at = 0

    def _more(self, n: int) -> bool:
        """Take pieces until n characters are unread, and at least one
        nonempty piece in any case; return whether any text came."""
        grown = False
        while not grown or len(self.text) - self.at < n:
            piece = next(self.pieces, None)
            if piece is None:
                return grown
            self.text = self.text[self.at:] + piece
            self.at = 0
            grown = grown or bool(piece)
        return True

    def take(self, prefix: str) -> bool:
        """Read prefix if the unread text starts with it."""
        if len(self.text) - self.at < len(prefix):
            self._more(len(prefix))
        if self.text.startswith(prefix, self.at):
            self.at += len(prefix)
            return True
        return False

    def at_end(self) -> bool:
        return self.at == len(self.text) and not self._more(1)

    def keep(self, n: int) -> None:
        """Take pieces, if there are any, until n characters are unread."""
        if len(self.text) - self.at < n:
            self._more(n)

    def value(self, match=None) -> tuple[object, str]:
        """Read one JSON value; return it and its text.  A value whose text
        match (a compiled pattern's match method) matches where the unread
        text starts is not decoded, and is returned as _MATCHED.  Text that
        is not JSON once the pieces end raises ValueError."""
        while True:
            found = match and match(self.text, self.at)
            if found:
                self.at = found.end()
                return _MATCHED, found.group()
            try:
                obj, end = _DECODER.raw_decode(self.text, self.at)
            except ValueError:
                # the value may go on past the text read so far: read as
                # much again, so a long value is matched and decoded a
                # bounded number of times
                if self._more(2 * (len(self.text) - self.at)):
                    continue
                raise
            if (type(obj) in (int, float) and (end == len(self.text)
                                               or self.text[end] in _NUMBER_GOES_ON)
                    and self._more(2 * (len(self.text) - self.at))):
                continue
            raw = self.text[self.at:end]
            self.at = end
            return obj, raw


def _read_payload(text: _Text, each) -> tuple[dict, list] | None:
    """The header of a payload text laid out as payload_pieces writes it, and
    each on the text of its entries, after checking that each entry in turn
    is canonical; None on any departure.  An entry the entry grammar matches
    is canonical as it stands; any other is decoded and re-encoded.  A value
    that is not JSON raises ValueError."""
    if not text.take(_ENTRIES_OPEN):
        return None
    items = []
    if not text.take("]"):
        match = _entry_match()
        longest = 0
        while True:
            # an entry at most twice as long as every one before it is whole
            # in the text it is matched on; a longer one is read on
            text.keep(2 * longest)
            entry, raw = text.value(match)
            if entry is not _MATCHED and canonical_json(entry) != raw:
                return None
            longest = max(longest, len(raw))
            if each is not None:
                items.append(each(raw))
            if not text.take(","):
                break
        if not text.take("]"):
            return None
    header = {}
    for name in _HEADER:
        if not text.take(f',"{name}":'):
            return None
        header[name], raw = text.value()
        if canonical_json(header[name]) != raw:
            return None
    return (header, items) if text.take("}") and text.at_end() else None


def scan(directory: str):
    """Yield (file name, CacheEntry or CacheError) for each *.json file of the
    directory, sorted by name, skipping one removed since it was listed; one
    entry is read at a time, and its file is closed."""
    if not os.path.isdir(directory):
        return
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            try:
                entry = _read_entry(os.path.join(directory, name))
            except CacheError as exc:
                yield name, exc
            else:
                if entry is not None:  # else removed meanwhile, by a gc
                    entry.close()
                    yield name, entry


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
            try:
                os.remove(os.path.join(directory, name))
            except FileNotFoundError:
                continue  # removed meanwhile, by another gc
            removed += 1
    return removed
