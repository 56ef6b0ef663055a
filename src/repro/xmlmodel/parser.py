"""A from-scratch, namespace-aware XML 1.0 parser.

Covers the subset of XML needed by the library and its benchmarks: elements,
attributes, namespace declarations, character data with entity and character
references, CDATA sections, comments, processing instructions, the XML
declaration, and a DOCTYPE declaration whose internal subset is captured as
raw text (the :mod:`repro.schema.dtd` module parses it further).

The parser builds the :mod:`repro.xmlmodel.nodes` DOM directly, attaching
nodes strictly in document order so document-order stamps are correct.
"""

from __future__ import annotations

from repro.errors import XmlSyntaxError
from repro.xmlmodel.nodes import (
    Comment,
    Document,
    Element,
    ProcessingInstruction,
    QName,
    Text,
)

_PREDEFINED_ENTITIES = {
    "amp": "&",
    "lt": "<",
    "gt": ">",
    "quot": '"',
    "apos": "'",
}

_NAME_START = set(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_"
)
_NAME_CHARS = _NAME_START | set("0123456789.-")


def parse_document(source, strip_whitespace=False):
    """Parse a complete XML document string into a :class:`Document`.

    :param source: the XML text.
    :param strip_whitespace: drop text nodes that are entirely whitespace
        (handy for data-oriented documents).
    """
    parser = _Parser(source, strip_whitespace=strip_whitespace)
    return parser.parse(fragment=False)


def parse_fragment(source, strip_whitespace=False):
    """Parse XML content that may have multiple top-level elements.

    Returns a :class:`Document` whose children are the fragment's items.
    """
    parser = _Parser(source, strip_whitespace=strip_whitespace)
    return parser.parse(fragment=True)


class _Parser:
    """Single-pass recursive-descent parser over the source string."""

    def __init__(self, source, strip_whitespace=False):
        self.source = source
        self.pos = 0
        self.length = len(source)
        self.strip_whitespace = strip_whitespace
        self.internal_subset = None
        # Incremental line tracking: newlines counted up to _line_base so
        # far, so _line_at is O(gap) rather than O(pos) per call.
        self._line = 1
        self._line_base = 0

    # -- error reporting -----------------------------------------------------

    def _location(self, pos=None):
        pos = self.pos if pos is None else pos
        line = self.source.count("\n", 0, pos) + 1
        last_newline = self.source.rfind("\n", 0, pos)
        column = pos - last_newline
        return line, column

    def _line_at(self, pos):
        """1-based line number of ``pos``, tracked incrementally.  Parsing
        only moves forward, so each newline is counted exactly once."""
        if pos >= self._line_base:
            self._line += self.source.count("\n", self._line_base, pos)
            self._line_base = pos
            return self._line
        return self.source.count("\n", 0, pos) + 1

    def _fail(self, message, pos=None):
        line, column = self._location(pos)
        raise XmlSyntaxError(message, line=line, column=column)

    # -- low-level scanning ----------------------------------------------------

    def _peek(self, offset=0):
        index = self.pos + offset
        if index < self.length:
            return self.source[index]
        return ""

    def _starts_with(self, token):
        return self.source.startswith(token, self.pos)

    def _expect(self, token):
        if not self._starts_with(token):
            self._fail("expected %r" % token)
        self.pos += len(token)

    def _skip_space(self):
        while self.pos < self.length and self.source[self.pos] in " \t\r\n":
            self.pos += 1

    def _read_until(self, token, error):
        end = self.source.find(token, self.pos)
        if end < 0:
            self._fail(error)
        content = self.source[self.pos:end]
        self.pos = end + len(token)
        return content

    def _read_name(self):
        start = self.pos
        if self.pos >= self.length or self.source[self.pos] not in _NAME_START:
            self._fail("expected a name")
        self.pos += 1
        while self.pos < self.length and self.source[self.pos] in _NAME_CHARS:
            self.pos += 1
        return self.source[start:self.pos]

    def _read_qname(self):
        first = self._read_name()
        if self._peek() == ":":
            self.pos += 1
            second = self._read_name()
            return first, second
        return None, first

    # -- entity / reference expansion -------------------------------------------

    def _expand_references(self, raw, pos_hint):
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
                self._fail("unterminated entity reference", pos=pos_hint)
            entity = raw[amp + 1:semi]
            parts.append(self._decode_entity(entity, pos_hint))
            index = semi + 1
        return "".join(parts)

    def _decode_entity(self, entity, pos_hint):
        if entity.startswith("#x") or entity.startswith("#X"):
            try:
                return chr(int(entity[2:], 16))
            except ValueError:
                self._fail("bad character reference &%s;" % entity, pos=pos_hint)
        if entity.startswith("#"):
            try:
                return chr(int(entity[1:]))
            except ValueError:
                self._fail("bad character reference &%s;" % entity, pos=pos_hint)
        if entity in _PREDEFINED_ENTITIES:
            return _PREDEFINED_ENTITIES[entity]
        self._fail("undefined entity &%s;" % entity, pos=pos_hint)

    # -- grammar ------------------------------------------------------------

    def parse(self, fragment):
        document = Document()
        self._skip_space()
        if self._starts_with("<?xml"):
            self._read_until("?>", "unterminated XML declaration")
        self._parse_misc(document)
        if self._starts_with("<!DOCTYPE"):
            self._parse_doctype()
            self._parse_misc(document)
        document.internal_subset = self.internal_subset

        if fragment:
            self._parse_content_into(document, top_level=True)
            return document

        elements_seen = 0
        while self.pos < self.length:
            self._skip_space()
            if self.pos >= self.length:
                break
            if self._peek() != "<":
                self._fail("text content outside the document element")
            if self._starts_with("<!--"):
                self._parse_comment(document)
            elif self._starts_with("<?"):
                self._parse_pi(document)
            elif self._starts_with("<"):
                if elements_seen and not fragment:
                    self._fail("multiple top-level elements")
                self._parse_element(document, {"xml": "http://www.w3.org/XML/1998/namespace"})
                elements_seen += 1
        if not fragment and elements_seen == 0:
            self._fail("no document element")
        return document

    def _parse_misc(self, parent):
        while True:
            self._skip_space()
            if self._starts_with("<!--"):
                self._parse_comment(parent)
            elif self._starts_with("<?") and not self._starts_with("<?xml"):
                self._parse_pi(parent)
            else:
                return

    def _parse_doctype(self):
        self._expect("<!DOCTYPE")
        depth = 0
        start = self.pos
        subset_start = None
        while self.pos < self.length:
            char = self.source[self.pos]
            if char == "[":
                if depth == 0 and subset_start is None:
                    subset_start = self.pos + 1
                depth += 1
            elif char == "]":
                depth -= 1
                if depth == 0 and subset_start is not None:
                    self.internal_subset = self.source[subset_start:self.pos]
            elif char == ">" and depth == 0:
                self.pos += 1
                return
            self.pos += 1
        self._fail("unterminated DOCTYPE declaration", pos=start)

    def _parse_comment(self, parent):
        self._expect("<!--")
        content = self._read_until("-->", "unterminated comment")
        parent.append(Comment(content))

    def _parse_pi(self, parent):
        self._expect("<?")
        target = self._read_name()
        self._skip_space()
        content = self._read_until("?>", "unterminated processing instruction")
        parent.append(ProcessingInstruction(target, content))

    def _parse_element(self, parent, inherited_ns):
        start_line = self._line_at(self.pos)
        self._expect("<")
        prefix, local = self._read_qname()

        # First pass over attributes: collect raw (prefix, local, value)
        # so namespace declarations can be applied before resolving names.
        raw_attributes = []
        namespaces = {}
        self_closing = False
        while True:
            self._skip_space()
            if self._starts_with("/>"):
                self.pos += 2
                self_closing = True
                break
            if self._peek() == ">":
                self.pos += 1
                break
            if self.pos >= self.length:
                self._fail("unterminated start tag")
            attr_prefix, attr_local = self._read_qname()
            self._skip_space()
            self._expect("=")
            self._skip_space()
            value = self._parse_attribute_value()
            declared = None
            if attr_prefix is None and attr_local == "xmlns":
                declared = ""
            elif attr_prefix == "xmlns":
                declared = attr_local
            if declared is not None:
                if declared in namespaces:
                    self._fail("duplicate attribute %r"
                               % _lexical(attr_prefix, attr_local))
                namespaces[declared] = value
            else:
                raw_attributes.append((attr_prefix, attr_local, value))

        scope = dict(inherited_ns)
        scope.update(namespaces)

        uri = scope.get(prefix if prefix is not None else "")
        if prefix is not None and uri is None:
            self._fail("undeclared namespace prefix %r" % prefix)
        element = Element(QName(local, uri or None, prefix), namespaces=namespaces)
        element.source_line = start_line
        # well-formedness: no two attributes share an expanded name, even
        # when spelled with different prefixes bound to one URI
        expanded_names = set()
        for attr_prefix, attr_local, value in raw_attributes:
            if attr_prefix is None:
                attr_uri = None  # unprefixed attributes are in no namespace
            else:
                attr_uri = scope.get(attr_prefix)
                if attr_uri is None:
                    self._fail("undeclared namespace prefix %r" % attr_prefix)
            if (attr_uri, attr_local) in expanded_names:
                self._fail("duplicate attribute %r"
                           % _lexical(attr_prefix, attr_local))
            expanded_names.add((attr_uri, attr_local))
            element.set_attribute(QName(attr_local, attr_uri, attr_prefix), value)
        parent.append(element)

        if self_closing:
            return
        self._parse_content_into(element, scope=scope)
        # _parse_content_into stops right after consuming the matching
        # </name> tag; verify the name.
        end_prefix, end_local = self._end_tag_name
        if end_local != local or end_prefix != prefix:
            self._fail(
                "mismatched end tag </%s>, expected </%s>"
                % (_lexical(end_prefix, end_local), _lexical(prefix, local))
            )

    def _parse_attribute_value(self):
        quote = self._peek()
        if quote not in ('"', "'"):
            self._fail("expected quoted attribute value")
        self.pos += 1
        start = self.pos
        end = self.source.find(quote, self.pos)
        if end < 0:
            self._fail("unterminated attribute value", pos=start)
        raw = self.source[start:end]
        self.pos = end + 1
        if "<" in raw:
            self._fail("'<' in attribute value", pos=start)
        return self._expand_references(raw, start)

    def _parse_content_into(self, element, scope=None, top_level=False):
        """Parse mixed content until the matching end tag (or, for fragments,
        the end of input)."""
        if scope is None:
            scope = {"xml": "http://www.w3.org/XML/1998/namespace"}
        text_start = self.pos
        while True:
            lt = self.source.find("<", self.pos)
            if lt < 0:
                if not top_level:
                    self._fail("unterminated element content")
                self._emit_text(element, self.source[self.pos:], text_start)
                self.pos = self.length
                return
            self._emit_text(element, self.source[self.pos:lt], text_start)
            self.pos = lt
            if self._starts_with("</"):
                if top_level:
                    self._fail("unexpected end tag at top level")
                self.pos += 2
                self._end_tag_name = self._read_qname()
                self._skip_space()
                self._expect(">")
                return
            if self._starts_with("<!--"):
                self._parse_comment(element)
            elif self._starts_with("<![CDATA["):
                self.pos += len("<![CDATA[")
                cdata = self._read_until("]]>", "unterminated CDATA section")
                element.append(Text(cdata))
            elif self._starts_with("<?"):
                self._parse_pi(element)
            else:
                self._parse_element(element, scope)
            text_start = self.pos

    def _emit_text(self, element, raw, pos_hint):
        if not raw:
            return
        value = self._expand_references(raw, pos_hint)
        if self.strip_whitespace and not value.strip():
            return
        # Merge with a preceding text node so content with entity references
        # still yields a single text node.
        children = element.children
        if children and children[-1].kind == "text":
            children[-1].value += value
        else:
            element.append(Text(value))


def _lexical(prefix, local):
    return "%s:%s" % (prefix, local) if prefix else local
