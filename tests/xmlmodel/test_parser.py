"""Unit tests for the from-scratch XML parser."""

import pytest

from repro.errors import XmlSyntaxError
from repro.xmlmodel import NodeKind, parse_document, parse_fragment, serialize


class TestBasicParsing:
    def test_single_element(self):
        document = parse_document("<a/>")
        assert document.document_element.name.local == "a"

    def test_nested_elements(self):
        document = parse_document("<a><b><c/></b></a>")
        a = document.document_element
        assert a.find("b").find("c") is not None

    def test_text_content(self):
        document = parse_document("<a>hello</a>")
        assert document.document_element.string_value() == "hello"

    def test_mixed_content(self):
        document = parse_document("<a>one<b>two</b>three</a>")
        kinds = [c.kind for c in document.document_element.children]
        assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]
        assert document.document_element.string_value() == "onetwothree"

    def test_attributes(self):
        document = parse_document('<a x="1" y="two"/>')
        element = document.document_element
        assert element.get_attribute("x") == "1"
        assert element.get_attribute("y") == "two"

    def test_single_quoted_attribute(self):
        document = parse_document("<a x='1'/>")
        assert document.document_element.get_attribute("x") == "1"

    def test_xml_declaration(self):
        document = parse_document('<?xml version="1.0" encoding="UTF-8"?><a/>')
        assert document.document_element.name.local == "a"

    def test_whitespace_in_tags(self):
        document = parse_document('<a  x = "1" ></a >')
        assert document.document_element.get_attribute("x") == "1"

    def test_document_order_assigned(self):
        document = parse_document("<a><b/>text<c><d/></c></a>")
        orders = [n.order for n in document.iter_descendants()]
        assert orders == sorted(orders)


class TestEntities:
    def test_predefined_entities(self):
        document = parse_document("<a>&lt;&amp;&gt;&quot;&apos;</a>")
        assert document.document_element.string_value() == "<&>\"'"

    def test_decimal_character_reference(self):
        document = parse_document("<a>&#65;</a>")
        assert document.document_element.string_value() == "A"

    def test_hex_character_reference(self):
        document = parse_document("<a>&#x41;</a>")
        assert document.document_element.string_value() == "A"

    def test_entity_in_attribute(self):
        document = parse_document('<a x="a&amp;b"/>')
        assert document.document_element.get_attribute("x") == "a&b"

    def test_undefined_entity_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<a>&nope;</a>")

    def test_entities_merge_into_single_text_node(self):
        document = parse_document("<a>x&amp;y</a>")
        children = document.document_element.children
        assert len(children) == 1
        assert children[0].value == "x&y"


class TestSpecialConstructs:
    def test_comment(self):
        document = parse_document("<a><!-- note --></a>")
        child = document.document_element.children[0]
        assert child.kind == NodeKind.COMMENT
        assert child.value == " note "

    def test_top_level_comment(self):
        document = parse_document("<!-- before --><a/>")
        assert document.children[0].kind == NodeKind.COMMENT

    def test_processing_instruction(self):
        document = parse_document("<a><?target some data?></a>")
        child = document.document_element.children[0]
        assert child.kind == NodeKind.PI
        assert child.target == "target"
        assert child.value == "some data"

    def test_cdata(self):
        document = parse_document("<a><![CDATA[<raw>&]]></a>")
        assert document.document_element.string_value() == "<raw>&"

    def test_doctype_skipped(self):
        document = parse_document("<!DOCTYPE a><a/>")
        assert document.document_element.name.local == "a"

    def test_doctype_internal_subset_captured(self):
        source = "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a/>"
        document = parse_document(source)
        assert "<!ELEMENT a (#PCDATA)>" in document.internal_subset


class TestNamespaces:
    def test_default_namespace(self):
        document = parse_document('<a xmlns="urn:d"><b/></a>')
        a = document.document_element
        assert a.name.uri == "urn:d"
        assert a.children[0].name.uri == "urn:d"

    def test_prefixed_namespace(self):
        document = parse_document('<p:a xmlns:p="urn:p"/>')
        assert document.document_element.name.uri == "urn:p"
        assert document.document_element.name.prefix == "p"

    def test_unprefixed_attribute_has_no_namespace(self):
        document = parse_document('<a xmlns="urn:d" x="1"/>')
        attribute = document.document_element.attributes[0]
        assert attribute.name.uri is None

    def test_prefixed_attribute(self):
        document = parse_document('<a xmlns:p="urn:p" p:x="1"/>')
        attribute = document.document_element.attributes[0]
        assert attribute.name.uri == "urn:p"

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(XmlSyntaxError):
            parse_document("<p:a/>")

    def test_namespace_shadowing(self):
        source = '<a xmlns:p="urn:outer"><b xmlns:p="urn:inner"><p:c/></b></a>'
        document = parse_document(source)
        c = document.document_element.find("b").children[0]
        assert c.name.uri == "urn:inner"

    def test_duplicate_attribute_rejected(self):
        # a repeat is judged on the expanded name, after resolution
        for source in ("<a x='1' x='2'/>",
                       "<a xmlns:p='urn:u' xmlns:q='urn:u' p:x='1' q:x='2'/>",
                       "<a xmlns:p='urn:u' xmlns:p='urn:v'/>"):
            with pytest.raises(XmlSyntaxError, match="duplicate attribute"):
                parse_document(source)
        distinct = parse_document(
            "<a xmlns:p='urn:u' xmlns:q='urn:v' p:x='1' q:x='2' x='3'/>")
        assert len(distinct.document_element.attributes) == 3

    def test_xml_prefix_predeclared(self):
        document = parse_document('<a xml:lang="en"/>')
        attribute = document.document_element.attributes[0]
        assert attribute.name.uri == "http://www.w3.org/XML/1998/namespace"


class TestErrors:
    @pytest.mark.parametrize(
        "source",
        [
            "<a>",                    # unterminated
            "<a></b>",                # mismatched end tag
            "<a x=1/>",               # unquoted attribute
            "<a><b></a></b>",         # interleaved
            "",                        # empty
            "just text",               # no element
            "<a/><b/>",               # two document elements
            '<a x="<"/>',             # literal < in attribute
            "<a>&#xZZ;</a>",          # bad char ref
            "<!-- unterminated <a/>", # unterminated comment
        ],
    )
    def test_rejects_malformed(self, source):
        with pytest.raises(XmlSyntaxError):
            parse_document(source)

    def test_error_carries_location(self):
        with pytest.raises(XmlSyntaxError) as excinfo:
            parse_document("<a>\n<b></a>")
        assert excinfo.value.line == 2


class TestWhitespaceHandling:
    def test_whitespace_preserved_by_default(self):
        document = parse_document("<a>\n  <b/>\n</a>")
        kinds = [c.kind for c in document.document_element.children]
        assert kinds == [NodeKind.TEXT, NodeKind.ELEMENT, NodeKind.TEXT]

    def test_strip_whitespace_drops_blank_text(self):
        document = parse_document("<a>\n  <b/>\n</a>", strip_whitespace=True)
        kinds = [c.kind for c in document.document_element.children]
        assert kinds == [NodeKind.ELEMENT]

    def test_strip_keeps_significant_text(self):
        document = parse_document("<a> x <b/></a>", strip_whitespace=True)
        assert document.document_element.children[0].value == " x "


class TestFragments:
    def test_multiple_top_level_elements(self):
        document = parse_fragment("<a/><b/>", strip_whitespace=True)
        names = [c.name.local for c in document.children]
        assert names == ["a", "b"]

    def test_fragment_with_text(self):
        document = parse_fragment("one<b/>two")
        assert document.string_value() == "onetwo"

    def test_paper_table4_two_dept_rows(self):
        # The dept_emp view produces two top-level <dept> instances.
        source = (
            "<dept><dname>ACCOUNTING</dname></dept>"
            "<dept><dname>OPERATIONS</dname></dept>"
        )
        document = parse_fragment(source)
        assert len(document.findall("dept") if hasattr(document, "findall")
                   else [c for c in document.children]) == 2


class TestRoundTrip:
    @pytest.mark.parametrize(
        "source",
        [
            "<a/>",
            '<a x="1"/>',
            "<a>text</a>",
            "<a><b>x</b><c/>tail</a>",
            "<a>&lt;escaped&gt;</a>",
            "<a><!--c--><?pi data?></a>",
        ],
    )
    def test_parse_serialize_roundtrip(self, source):
        document = parse_document(source)
        assert serialize(document) == source

    def test_roundtrip_is_stable(self):
        source = '<a q="v&amp;w"><b>x &amp; y</b></a>'
        once = serialize(parse_document(source))
        twice = serialize(parse_document(once))
        assert once == twice
