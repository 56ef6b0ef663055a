"""SAX-style streaming XML tokenizer for bounded-memory ingest.

:func:`stream_events` turns an XML source — a string, a file-like object, or
an iterable of string chunks — into a flat event stream without ever
materializing a DOM:

    ``("start", name, [(attr_name, value), ...])``
    ``("text", value)``
    ``("comment", value)``
    ``("pi", target, value)``
    ``("end", name)``

Adjacent character data (including expanded entity references) is merged
into a single ``text`` event, with a ``<![CDATA[`` open acting as a node
boundary — exactly the text-node structure the DOM parser produces — so
shredding the event stream yields the same rows and containment labels as
shredding a parsed tree.

Names are local names: namespace declarations (``xmlns``/``xmlns:*``) are
dropped and prefixes stripped, matching what the relational shredders store.

Memory is bounded by the input chunk size plus the largest single token
(one tag, one run of character data): the internal buffer is compacted as
tokens are consumed, and its high-water mark is exposed as
:attr:`StreamParser.peak_buffered_bytes` so ingest paths can report
``stats.peak_ingest_buffered_bytes``.
"""

from __future__ import annotations

from repro.errors import XmlSyntaxError
from repro.xmlmodel.parser import (
    _NAME_CHARS, _NAME_START, _PREDEFINED_ENTITIES, _lexical,
)

DEFAULT_CHUNK_SIZE = 65536

_COMPACT_THRESHOLD = 8192


def stream_events(source, strip_whitespace=False, chunk_size=DEFAULT_CHUNK_SIZE):
    """Yield parse events from *source* (see module docstring)."""
    parser = StreamParser(
        source, strip_whitespace=strip_whitespace, chunk_size=chunk_size)
    return parser.events()


class StreamParser:
    """Incremental tokenizer over a chunked XML source."""

    def __init__(self, source, strip_whitespace=False,
                 chunk_size=DEFAULT_CHUNK_SIZE):
        self._chunks = _chunked(source, chunk_size)
        self.strip_whitespace = strip_whitespace
        self.internal_subset = None
        self.peak_buffered_bytes = 0
        self._buf = ""
        self._pos = 0
        self._eof = False

    # -- buffer management -------------------------------------------------

    def _fill(self):
        """Append one more chunk; False at end of input."""
        if self._eof:
            return False
        try:
            chunk = next(self._chunks)
        except StopIteration:
            self._eof = True
            return False
        if self._pos > _COMPACT_THRESHOLD:
            self._buf = self._buf[self._pos:]
            self._pos = 0
        self._buf += chunk
        if len(self._buf) > self.peak_buffered_bytes:
            self.peak_buffered_bytes = len(self._buf)
        return True

    def _compact(self):
        if self._pos > _COMPACT_THRESHOLD:
            self._buf = self._buf[self._pos:]
            self._pos = 0

    def _has(self, count):
        while len(self._buf) - self._pos < count:
            if not self._fill():
                return False
        return True

    def _peek(self, offset=0):
        if self._has(offset + 1):
            return self._buf[self._pos + offset]
        return ""

    def _starts_with(self, token):
        if not self._has(len(token)):
            return False
        return self._buf.startswith(token, self._pos)

    def _expect(self, token):
        if not self._starts_with(token):
            raise XmlSyntaxError("expected %r" % token)
        self._pos += len(token)

    def _skip_space(self):
        while True:
            while self._pos < len(self._buf) and self._buf[self._pos] in " \t\r\n":
                self._pos += 1
            if self._pos < len(self._buf) or not self._fill():
                return

    def _read_until(self, token, error):
        """Consume text up to and including *token*; returns the text."""
        while True:
            end = self._buf.find(token, self._pos)
            if end >= 0:
                content = self._buf[self._pos:end]
                self._pos = end + len(token)
                self._compact()
                return content
            if not self._fill():
                raise XmlSyntaxError(error)

    def _read_name(self):
        if not self._has(1) or self._buf[self._pos] not in _NAME_START:
            raise XmlSyntaxError("expected a name")
        start = self._pos
        self._pos += 1
        while True:
            while self._pos < len(self._buf) and self._buf[self._pos] in _NAME_CHARS:
                self._pos += 1
            if self._pos < len(self._buf) or not self._fill():
                return self._buf[start:self._pos]

    # -- entity expansion ----------------------------------------------------

    def _expand(self, raw):
        if "&" not in raw:
            return raw
        parts = []
        index = 0
        while True:
            amp = raw.find("&", index)
            if amp < 0:
                parts.append(raw[index:])
                break
            parts.append(raw[index:amp])
            semi = raw.find(";", amp + 1)
            if semi < 0:
                raise XmlSyntaxError("unterminated entity reference")
            entity = raw[amp + 1:semi]
            parts.append(self._decode_entity(entity))
            index = semi + 1
        return "".join(parts)

    def _decode_entity(self, entity):
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                return chr(int(entity[2:], 16))
            except ValueError:
                raise XmlSyntaxError("bad character reference &%s;" % entity)
        if entity.startswith("#"):
            try:
                return chr(int(entity[1:]))
            except ValueError:
                raise XmlSyntaxError("bad character reference &%s;" % entity)
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        raise XmlSyntaxError("undefined entity &%s;" % entity)

    # -- event stream --------------------------------------------------------

    def events(self):
        """The generator of parse events for the whole document."""
        self._skip_space()
        if self._starts_with("<?xml"):
            self._read_until("?>", "unterminated XML declaration")
        yield from self._prolog_misc()
        if self._starts_with("<!DOCTYPE"):
            self._parse_doctype()
            yield from self._prolog_misc()

        open_tags = []
        pending_text = []
        elements_seen = 0
        while True:
            if not self._has(1):
                break
            char = self._buf[self._pos]
            if char != "<":
                raw = self._read_text_run()
                if open_tags:
                    pending_text.append(raw)
                elif self._expand(raw).strip():
                    raise XmlSyntaxError(
                        "text content outside the document element")
                continue
            if self._starts_with("<!--"):
                yield from self._flush_text(pending_text)
                self._expect("<!--")
                content = self._read_until("-->", "unterminated comment")
                yield ("comment", content)
            elif self._starts_with("<![CDATA["):
                if not open_tags:
                    raise XmlSyntaxError("CDATA outside the document element")
                # A CDATA open is a text-node boundary (matching the DOM
                # parser): preceding character data becomes its own event,
                # while the section's content merges with what follows.
                yield from self._flush_text(pending_text)
                self._expect("<![CDATA[")
                pending_text.append(
                    _Opaque(self._read_until("]]>", "unterminated CDATA section")))
            elif self._starts_with("<?"):
                yield from self._flush_text(pending_text)
                self._expect("<?")
                target = self._read_name()
                self._skip_space()
                content = self._read_until(
                    "?>", "unterminated processing instruction")
                yield ("pi", target, content)
            elif self._starts_with("</"):
                if not open_tags:
                    raise XmlSyntaxError("unexpected end tag")
                yield from self._flush_text(pending_text)
                self._expect("</")
                name = self._read_local_name()
                self._skip_space()
                self._expect(">")
                expected = open_tags.pop()
                if name != expected:
                    raise XmlSyntaxError(
                        "mismatched end tag </%s>, expected </%s>"
                        % (name, expected))
                yield ("end", name)
            else:
                if not open_tags:
                    if elements_seen:
                        raise XmlSyntaxError("multiple top-level elements")
                    elements_seen += 1
                yield from self._flush_text(pending_text)
                name, attributes, self_closing = self._parse_start_tag()
                yield ("start", name, attributes)
                if self_closing:
                    yield ("end", name)
                else:
                    open_tags.append(name)
        if open_tags:
            raise XmlSyntaxError("unterminated element <%s>" % open_tags[-1])
        if not elements_seen:
            raise XmlSyntaxError("no document element")

    def _prolog_misc(self):
        while True:
            self._skip_space()
            if self._starts_with("<!--"):
                self._expect("<!--")
                yield ("comment",
                       self._read_until("-->", "unterminated comment"))
            elif self._starts_with("<?") and not self._starts_with("<?xml"):
                self._expect("<?")
                target = self._read_name()
                self._skip_space()
                yield ("pi", target, self._read_until(
                    "?>", "unterminated processing instruction"))
            else:
                return

    def _parse_doctype(self):
        self._expect("<!DOCTYPE")
        depth = 0
        subset_parts = None
        while True:
            if not self._has(1):
                raise XmlSyntaxError("unterminated DOCTYPE declaration")
            char = self._buf[self._pos]
            if char == "[":
                if depth == 0 and subset_parts is None:
                    subset_parts = []
                    self._pos += 1
                    subset_parts.append(
                        self._read_until("]", "unterminated DOCTYPE subset"))
                    self.internal_subset = "".join(subset_parts)
                    continue
                depth += 1
            elif char == ">" and depth == 0:
                self._pos += 1
                self._compact()
                return
            elif char == "]":
                depth -= 1
            self._pos += 1

    def _read_text_run(self):
        """Raw character data up to (excluding) the next ``<``."""
        while True:
            lt = self._buf.find("<", self._pos)
            if lt >= 0:
                raw = self._buf[self._pos:lt]
                self._pos = lt
                self._compact()
                return raw
            if not self._fill():
                raw = self._buf[self._pos:]
                self._pos = len(self._buf)
                if raw:
                    return raw
                raise XmlSyntaxError("unexpected end of input")

    def _flush_text(self, pending):
        if not pending:
            return
        value = "".join(
            piece.value if isinstance(piece, _Opaque) else self._expand(piece)
            for piece in pending)
        pending.clear()
        if not value:
            return
        if self.strip_whitespace and not value.strip():
            return
        yield ("text", value)

    def _read_local_name(self):
        name = self._read_name()
        if self._peek() == ":":
            self._pos += 1
            return self._read_name()
        return name

    def _parse_start_tag(self):
        self._expect("<")
        prefix_or_name = self._read_name()
        if self._peek() == ":":
            self._pos += 1
            name = self._read_name()
        else:
            name = prefix_or_name
            prefix_or_name = None
        attributes = []
        seen = set()
        while True:
            self._skip_space()
            if self._starts_with("/>"):
                self._pos += 2
                self._compact()
                return name, attributes, True
            if self._peek() == ">":
                self._pos += 1
                self._compact()
                return name, attributes, False
            if not self._has(1):
                raise XmlSyntaxError("unterminated start tag")
            attr_first = self._read_name()
            attr_prefix = None
            if self._peek() == ":":
                self._pos += 1
                attr_prefix = attr_first
                attr_name = self._read_name()
            else:
                attr_name = attr_first
            self._skip_space()
            self._expect("=")
            self._skip_space()
            value = self._parse_attribute_value()
            if (attr_prefix, attr_name) in seen:
                raise XmlSyntaxError("duplicate attribute %r"
                                     % _lexical(attr_prefix, attr_name))
            seen.add((attr_prefix, attr_name))
            if attr_prefix is None and attr_name == "xmlns":
                continue
            if attr_prefix == "xmlns":
                continue
            attributes.append((attr_name, value))

    def _parse_attribute_value(self):
        quote = self._peek()
        if quote not in ('"', "'"):
            raise XmlSyntaxError("expected quoted attribute value")
        self._pos += 1
        raw = self._read_until(quote, "unterminated attribute value")
        if "<" in raw:
            raise XmlSyntaxError("'<' in attribute value")
        return self._expand(raw)


class _Opaque:
    """CDATA content: merged verbatim, never entity-expanded."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


def _chunked(source, chunk_size):
    """Normalize *source* into an iterator of string chunks."""
    if isinstance(source, str):
        return iter(
            source[index:index + chunk_size]
            for index in range(0, len(source), chunk_size))
    if hasattr(source, "read"):
        def reader():
            while True:
                chunk = source.read(chunk_size)
                if not chunk:
                    return
                yield chunk
        return reader()
    return iter(source)
