package extmem

import (
	"bufio"
	"encoding/binary"
	"encoding/xml"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"xarch/internal/keys"
	"xarch/internal/xmltree"
)

// dictionary maps tag/attribute names to integers (§6.1: "a document with
// tag names replaced by integers"). One dictionary serves the archive and
// every version. It is safe for one writer (the decompose pass) and any
// number of readers (the run-former worker, query snapshots) to use it
// concurrently: entries are immutable once assigned, and a mutex guards
// the growing structures.
type dictionary struct {
	mu    sync.RWMutex
	ids   map[string]int
	names []string
}

func newDictionary() *dictionary {
	return &dictionary{ids: map[string]int{}}
}

func (d *dictionary) id(name string) int {
	d.mu.RLock()
	id, ok := d.ids[name]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[name]; ok {
		return id
	}
	id = len(d.names)
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

func (d *dictionary) name(id int) (string, error) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= len(d.names) {
		return "", fmt.Errorf("extmem: tag id %d outside dictionary", id)
	}
	return d.names[id], nil
}

// snapshot returns the current name table. Entries are immutable and the
// table is append-only, so the returned slice is a consistent point-in-time
// view that later id() calls never mutate.
func (d *dictionary) snapshot() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.names[:len(d.names):len(d.names)]
}

// save writes the dictionary as "id<TAB>name" lines.
func (d *dictionary) save(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 32*1024)
	for i, n := range d.snapshot() {
		if _, err := fmt.Fprintf(bw, "%d\t%s\n", i, escapeNL(n)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func loadDictionary(r io.Reader) (*dictionary, error) {
	d := newDictionary()
	br := bufio.NewReaderSize(r, 32*1024)
	var id int
	var name string
	for {
		n, err := fmt.Fscanf(br, "%d\t%s\n", &id, &name)
		if err == io.EOF || n == 0 {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("extmem: dictionary: %w", err)
		}
		got := d.id(unescapeNL(name))
		if got != id {
			return nil, fmt.Errorf("extmem: dictionary ids out of order: %d != %d", got, id)
		}
	}
	return d, nil
}

func escapeNL(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	s = strings.ReplaceAll(s, "\t", `\t`)
	return s
}

func unescapeNL(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			i++
			switch s[i] {
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				b.WriteByte(s[i])
			}
			continue
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// memo is an in-flight memorization of a key-path value (the (**) steps of
// Annotate Keys, §4.1).
type memo struct {
	rec     *pendingKey
	pathIdx int
	depth   int // element depth at which the memorized subtree began
	b       strings.Builder
}

// pendingKey collects the key-path values of one open keyed node.
type pendingKey struct {
	key    *keys.Key
	depth  int
	filled []bool
	values []string
}

// decomposeBatch is the element interval at which the decomposer invokes
// its sync hook, publishing buffered bytes to the concurrent run former.
const decomposeBatch = 4096

// decomposer turns one document into the internal representation plus
// key files (§6.1), running the stack algorithm of §4.1. It is a state
// machine over start/text/end events with two front ends: decodeXML
// feeds it from an XML stream (documents larger than memory), walkTree
// from an already parsed *xmltree.Node. decodeXML names nodes and
// coalesces text exactly as xmltree.Parse does, so a parsed document
// decomposes to the same bytes through either.
//
// It emits to one of two places. On the external path the tokens go to
// a token file and each keyed node's composite key value, complete only
// when the node closes, to the key file of its pattern. On the in-memory
// path (tree set) the tokens build the run former's partial tree
// directly and a keyed node is handed its key as it closes.
type decomposer struct {
	spec *keys.Spec
	dict *dictionary

	tokens  *tokenWriter
	keyOut  map[string]*tokenWriter // key file per keyed-path pattern
	keyFile func(pattern string) (*tokenWriter, error)
	sync    func() error // periodic flush hook; may be nil
	tree    *runFormer   // in-memory path: replaces tokens and key files

	path     []string
	pendings []*pendingKey
	memos    []*memo
	attrs    [][2]string // front ends' reusable attribute buffer
	textBuf  strings.Builder
	depth    int
	frontier int // depth of the open frontier node, 0 above the frontier

	sinceSync int
}

func newDecomposer(spec *keys.Spec, dict *dictionary, tokens *tokenWriter,
	keyFile func(pattern string) (*tokenWriter, error), sync func() error) *decomposer {
	return &decomposer{
		spec:    spec,
		dict:    dict,
		tokens:  tokens,
		keyOut:  map[string]*tokenWriter{},
		keyFile: keyFile,
		sync:    sync,
	}
}

// decodeXML is the stream front end: it decomposes the XML document read
// from r without ever holding it as a tree. Character data is coalesced
// and whitespace-only text dropped exactly as xmltree.Parse does.
func (d *decomposer) decodeXML(r io.Reader) error {
	dec := xml.NewDecoder(r)
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("extmem: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if err := d.flushText(); err != nil {
				return err
			}
			attrs := d.attrs[:0]
			for _, a := range t.Attr {
				an := xmltree.QName(a.Name)
				if an == "xmlns" || strings.HasPrefix(an, "xmlns:") {
					continue
				}
				attrs = append(attrs, [2]string{an, a.Value})
			}
			d.attrs = attrs
			if err := d.start(xmltree.QName(t.Name), attrs); err != nil {
				return err
			}
		case xml.EndElement:
			if err := d.flushText(); err != nil {
				return err
			}
			if err := d.end(); err != nil {
				return err
			}
		case xml.CharData:
			d.textBuf.Write(t)
		}
	}
	if d.depth != 0 {
		return fmt.Errorf("extmem: unbalanced document")
	}
	return d.finish()
}

// walkTree is the tree front end: it decomposes the document rooted at root
// exactly as the in-memory engine sees it — every text child is one text
// node, verbatim, with no XML round trip in between.
func (d *decomposer) walkTree(root *xmltree.Node) error {
	if err := d.walkElem(root); err != nil {
		return err
	}
	return d.finish()
}

func (d *decomposer) walkElem(n *xmltree.Node) error {
	attrs := d.attrs[:0]
	for _, a := range n.Attrs {
		attrs = append(attrs, [2]string{a.Name, a.Data})
	}
	d.attrs = attrs
	if err := d.start(n.Name, attrs); err != nil {
		return err
	}
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.Text:
			if err := d.text(c.Data); err != nil {
				return err
			}
		case xmltree.Element:
			if err := d.walkElem(c); err != nil {
				return err
			}
		}
	}
	return d.end()
}

// finish flushes every key file the document wrote to.
func (d *decomposer) finish() error {
	for pattern, kw := range d.keyOut {
		if err := kw.flush(); err != nil {
			return fmt.Errorf("extmem: flush key file %s: %w", pattern, err)
		}
	}
	return nil
}

// flushText hands the stream front end's coalesced character data to
// text, dropping whitespace-only runs as xmltree.Parse does.
func (d *decomposer) flushText() error {
	if d.textBuf.Len() == 0 {
		return nil
	}
	s := d.textBuf.String()
	d.textBuf.Reset()
	if strings.TrimSpace(s) == "" {
		return nil
	}
	return d.text(s)
}

// text emits one text node. Whitespace-only text above the frontier is
// not part of the model (the in-memory annotator skips it too); below the
// frontier content is kept verbatim.
func (d *decomposer) text(s string) error {
	if d.frontier == 0 && strings.TrimSpace(s) == "" {
		return nil
	}
	if err := d.emit(token{op: tokText, data: s}); err != nil {
		return err
	}
	for _, m := range d.memos {
		m.b.WriteString("t(")
		xmltree.EscapeCanonical(&m.b, s)
		m.b.WriteByte(')')
	}
	return nil
}

// emit hands one token to the token file or, on the in-memory path, to
// the run former's partial tree.
func (d *decomposer) emit(t token) error {
	if d.tree != nil {
		return d.tree.feed(t)
	}
	d.tokens.writeToken(t)
	return nil
}

// start opens element name with the given attributes. attrs is sorted in
// place and not retained.
func (d *decomposer) start(name string, attrs [][2]string) error {
	d.path = append(d.path, name)
	d.depth++
	if d.sync != nil {
		if d.sinceSync++; d.sinceSync >= decomposeBatch {
			d.sinceSync = 0
			if err := d.sync(); err != nil {
				return err
			}
		}
	}

	// Sorted attributes (canonical order).
	slices.SortFunc(attrs, func(a, b [2]string) int {
		if c := strings.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return strings.Compare(a[1], b[1])
	})

	// Key-path values of enclosing keyed nodes that begin at this element
	// start memorizing here ((**) of §4.1); key paths ending at one of
	// this element's attributes fill directly from the start tag.
	for _, p := range d.pendings {
		rel := keys.Path(d.path[p.depth:])
		for pi, kp := range p.key.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if kp.Matches(rel) {
				d.memos = append(d.memos, &memo{rec: p, pathIdx: pi, depth: d.depth})
			}
			if len(rel) == len(kp)-1 && kp[:len(kp)-1].Matches(rel) {
				if err := fillFromAttrs(p, pi, kp[len(kp)-1], attrs); err != nil {
					return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
				}
			}
		}
	}

	// A keyed element opens its own pending record; an empty key path
	// ({\e}) memorizes the node's whole value, and single-segment key
	// paths may fill from the node's own attributes. Nothing below the
	// frontier is keyed.
	var k *keys.Key
	if d.frontier == 0 {
		k = d.spec.KeyFor(keys.Path(d.path))
	}
	if k != nil {
		p := &pendingKey{
			key:    k,
			depth:  d.depth,
			filled: make([]bool, len(k.KeyPaths)),
			values: make([]string, len(k.KeyPaths)),
		}
		d.pendings = append(d.pendings, p)
		for pi, kp := range k.KeyPaths {
			if len(kp) == 0 {
				d.memos = append(d.memos, &memo{rec: p, pathIdx: pi, depth: d.depth})
				continue
			}
			if len(kp) == 1 {
				if err := fillFromAttrs(p, pi, kp[0], attrs); err != nil {
					return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
				}
			}
		}
		if d.spec.IsFrontier(keys.Path(d.path)) {
			d.frontier = d.depth
		}
	}

	// Every active memorization (old and new) receives this element's
	// canonical fragment: new memos start their value with it.
	for _, m := range d.memos {
		m.b.WriteString("e(")
		xmltree.EscapeCanonical(&m.b, name)
		for _, a := range attrs {
			m.b.WriteString("a(")
			xmltree.EscapeCanonical(&m.b, a[0])
			m.b.WriteByte('=')
			xmltree.EscapeCanonical(&m.b, a[1])
			m.b.WriteByte(')')
		}
	}

	if err := d.emit(token{op: tokOpen, tag: d.dict.id(name)}); err != nil {
		return err
	}
	for _, a := range attrs {
		if err := d.emit(token{op: tokAttr, tag: d.dict.id(a[0]), data: a[1]}); err != nil {
			return err
		}
	}
	return nil
}

func (d *decomposer) end() error {
	// Close canonical fragments; finish memorizations that began here.
	remaining := d.memos[:0]
	for _, m := range d.memos {
		m.b.WriteByte(')')
		if m.depth == d.depth {
			if err := m.rec.fill(m.pathIdx, m.b.String()); err != nil {
				return fmt.Errorf("extmem: %s: %w", pathString(d.path), err)
			}
			continue
		}
		remaining = append(remaining, m)
	}
	d.memos = remaining

	// If the closing node is keyed, its pending record is complete: hand
	// the composite key value to the partial tree's node, or write it to
	// the key file of its path pattern.
	if len(d.pendings) > 0 && d.pendings[len(d.pendings)-1].depth == d.depth {
		p := d.pendings[len(d.pendings)-1]
		d.pendings = d.pendings[:len(d.pendings)-1]
		for pi, kp := range p.key.KeyPaths {
			if !p.filled[pi] {
				return fmt.Errorf("extmem: %s: key path %s of %s resolves to 0 nodes",
					pathString(d.path), kp, p.key)
			}
		}
		if d.tree != nil {
			d.tree.top().key = p.tkey()
		} else {
			pattern := p.key.Pattern()
			kw, ok := d.keyOut[pattern]
			if !ok {
				var err error
				kw, err = d.keyFile(pattern)
				if err != nil {
					return err
				}
				d.keyOut[pattern] = kw
			}
			writeKeyRecord(kw, p)
		}
	}

	if err := d.emit(token{op: tokClose}); err != nil {
		return err
	}
	if d.frontier == d.depth {
		d.frontier = 0
	}
	d.path = d.path[:len(d.path)-1]
	d.depth--
	return nil
}

// fill records one key-path value, rejecting duplicates ("every path Pi
// exists uniquely").
func (p *pendingKey) fill(pi int, canon string) error {
	if p.filled[pi] {
		return fmt.Errorf("key path %s of %s resolves to more than one node", p.key.KeyPaths[pi], p.key)
	}
	p.filled[pi] = true
	p.values[pi] = canon
	return nil
}

// writeKeyRecord appends a composite key value: path names and canonical
// values sorted by path name (§4.2's lexicographic key-path order).
func writeKeyRecord(kw *tokenWriter, p *pendingKey) {
	names, order := p.key.SortedKeyPaths()
	kw.varint(uint64(len(names)))
	for i, name := range names {
		kw.str(name)
		kw.str(p.values[order[i]])
	}
}

// tkey returns the completed composite key value in the order
// writeKeyRecord writes it. The path names are the key's shared,
// read-only slice.
func (p *pendingKey) tkey() *tkey {
	names, order := p.key.SortedKeyPaths()
	canon := make([]string, len(order))
	for i, j := range order {
		canon[i] = p.values[j]
	}
	return &tkey{paths: names, canon: canon}
}

// rawReader reads the varint/string records of key files.
type rawReader struct {
	r   *bufio.Reader
	err error
}

func newRawReader(r io.Reader) *rawReader {
	return &rawReader{r: bufio.NewReaderSize(r, 32*1024)}
}

func (rr *rawReader) varint() (uint64, error) {
	if rr.err != nil {
		return 0, rr.err
	}
	v, err := binary.ReadUvarint(rr.r)
	if err != nil {
		rr.err = err
	}
	return v, err
}

func (rr *rawReader) str() (string, error) {
	n, err := rr.varint()
	if err != nil {
		return "", err
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(rr.r, buf); err != nil {
		rr.err = err
		return "", err
	}
	return string(buf), nil
}

// readKeyRecord pops the next composite key value from a key file.
func readKeyRecord(rr *rawReader) (*tkey, error) {
	n, err := rr.varint()
	if err != nil {
		return nil, err
	}
	k := &tkey{}
	for i := uint64(0); i < n; i++ {
		p, err := rr.str()
		if err != nil {
			return nil, err
		}
		c, err := rr.str()
		if err != nil {
			return nil, err
		}
		k.paths = append(k.paths, p)
		k.canon = append(k.canon, c)
	}
	return k, nil
}

// fillFromAttrs fills key path pi of p from a matching attribute.
func fillFromAttrs(p *pendingKey, pi int, seg string, attrs [][2]string) error {
	for _, a := range attrs {
		if seg == a[0] || seg == keys.Wildcard {
			var b strings.Builder
			b.WriteString("a(")
			xmltree.EscapeCanonical(&b, a[0])
			b.WriteByte('=')
			xmltree.EscapeCanonical(&b, a[1])
			b.WriteByte(')')
			if err := p.fill(pi, b.String()); err != nil {
				return err
			}
		}
	}
	return nil
}

func pathString(p []string) string { return "/" + strings.Join(p, "/") }
