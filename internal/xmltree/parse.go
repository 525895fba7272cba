package xmltree

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parse reads an XML document and returns its root element. Whitespace-only
// text nodes are dropped (the paper's model ignores inter-element
// whitespace); other text is preserved verbatim, with adjacent character
// data coalesced into one T-node. Comments, processing instructions and
// directives are skipped. Namespace prefixes are kept as written.
func Parse(r io.Reader) (*Node, error) {
	dec := xml.NewDecoder(r)
	var root *Node
	var stack []*Node
	var text strings.Builder

	flushText := func() {
		if text.Len() == 0 {
			return
		}
		s := text.String()
		text.Reset()
		if strings.TrimSpace(s) == "" {
			return
		}
		if len(stack) > 0 {
			top := stack[len(stack)-1]
			top.Children = append(top.Children, TextNode(s))
		}
	}

	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmltree: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			flushText()
			n := &Node{Kind: Element, Name: QName(t.Name)}
			for _, a := range t.Attr {
				name := QName(a.Name)
				if name == "xmlns" || strings.HasPrefix(name, "xmlns:") {
					continue
				}
				n.Attrs = append(n.Attrs, AttrNode(name, a.Value))
			}
			if len(stack) == 0 {
				if root != nil {
					return nil, fmt.Errorf("xmltree: multiple root elements (%s, %s)", root.Name, n.Name)
				}
				root = n
			} else {
				top := stack[len(stack)-1]
				top.Children = append(top.Children, n)
			}
			stack = append(stack, n)
		case xml.EndElement:
			flushText()
			if len(stack) == 0 {
				return nil, fmt.Errorf("xmltree: unbalanced end element %s", QName(t.Name))
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			text.Write(t)
		}
	}
	if len(stack) != 0 {
		return nil, fmt.Errorf("xmltree: unclosed element %s", stack[len(stack)-1].Name)
	}
	if root == nil {
		return nil, fmt.Errorf("xmltree: no root element")
	}
	return root, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) {
	return Parse(strings.NewReader(s))
}

// MustParseString is ParseString that panics on error; for tests and
// literals.
func MustParseString(s string) *Node {
	n, err := ParseString(s)
	if err != nil {
		panic(err)
	}
	return n
}

// QName is the name the archiver gives an element or attribute read by
// encoding/xml. The decoder resolves prefixes to namespace URLs in
// Name.Space; only the local structure matters here, and the T tag
// namespace (§2) is handled at the archive layer, so QName keeps the
// local name, qualifying only true prefixes that did not resolve.
func QName(n xml.Name) string {
	if n.Space == "" {
		return n.Local
	}
	if strings.ContainsAny(n.Space, ":/") {
		// A resolved URL; drop it and keep the local name.
		return n.Local
	}
	return n.Space + ":" + n.Local
}
