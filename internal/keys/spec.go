package keys

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Key is a relative key (Context, (Target, {KeyPaths...})) — §3 and
// Appendix A.5. Context is an absolute path ("/" = the document root);
// Target is relative to a context node; every node reached by
// Context/Target is identified among its context's targets by the values
// of its KeyPaths. An empty KeyPaths list ({}) asserts that at most one
// target exists per context node. A single empty key path ({\e}) keys the
// node by its own value.
type Key struct {
	Context  Path
	Target   Path
	KeyPaths []Path
	// Implied marks keys added by normalization: for every key
	// (Q, (Q', {P1..Pk})) with non-empty Pi, the key (Q/Q', (Pi, {})) is
	// implied (§3) and always assumed part of the specification.
	Implied bool

	// nodePath and pattern cache Context/Target and its absolute
	// rendering; pathNames and pathOrder cache the rendered key paths in
	// ascending order and their indexes into KeyPaths. Spec.Normalize
	// fills them so lookups and key records never allocate.
	nodePath  Path
	pattern   string
	pathNames []string
	pathOrder []int
}

// compile caches the key's node path, pattern string and sorted key-path
// names.
func (k *Key) compile() {
	k.nodePath = k.Context.Concat(k.Target)
	k.pattern = k.nodePath.Absolute()
	k.pathNames, k.pathOrder = sortKeyPaths(k.KeyPaths)
}

func sortKeyPaths(kps []Path) (names []string, order []int) {
	order = make([]int, len(kps))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return kps[order[a]].String() < kps[order[b]].String()
	})
	names = make([]string, len(kps))
	for i, j := range order {
		names[i] = kps[j].String()
	}
	return names, order
}

// SortedKeyPaths returns the key paths rendered as strings in ascending
// order — the order in which a composite key value lists its parts
// (§4.2) — and, for each, its index into KeyPaths. For a key of a
// normalized Spec both slices are computed once and shared: callers must
// not modify them.
func (k *Key) SortedKeyPaths() (names []string, order []int) {
	if k.nodePath != nil {
		return k.pathNames, k.pathOrder
	}
	return sortKeyPaths(k.KeyPaths)
}

// NodePath returns Context/Target, the keyed path this key defines. For a
// key of a normalized Spec the path is computed once and shared: callers
// must not modify it.
func (k *Key) NodePath() Path {
	if k.nodePath != nil {
		return k.nodePath
	}
	return k.Context.Concat(k.Target)
}

// Pattern returns NodePath rendered as an absolute path pattern
// ("/ROOT/Record"), computed once for a key of a normalized Spec.
func (k *Key) Pattern() string {
	if k.nodePath != nil {
		return k.pattern
	}
	return k.NodePath().Absolute()
}

// String renders the key in the Appendix B syntax.
func (k *Key) String() string {
	var kps []string
	for _, p := range k.KeyPaths {
		kps = append(kps, p.String())
	}
	return fmt.Sprintf("(%s, (%s, {%s}))", k.Context.Absolute(), k.Target.String(), strings.Join(kps, ", "))
}

// Spec is a key specification: the list of keys a document must satisfy.
// Construct via ParseSpec or assemble Keys and call Normalize.
type Spec struct {
	Keys []*Key

	normalized bool
	keyed      []*Key // all keys incl. implied, NodePath patterns
	frontier   []Path
}

// ParseSpec reads a specification in the Appendix B textual format: one
// key per line, e.g.
//
//	(/ROOT/Record, (Contributors, {Name, CNtype, Date/Month}))
//	(/ROOT/Record, (AlternativeTitle, {\e}))
//	# comment lines and blank lines are ignored
func ParseSpec(r io.Reader) (*Spec, error) {
	spec := &Spec{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		k, err := parseKeyLine(line)
		if err != nil {
			return nil, fmt.Errorf("keys: line %d: %w", lineNo, err)
		}
		spec.Keys = append(spec.Keys, k)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("keys: read spec: %w", err)
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseSpecString is ParseSpec over a string.
func ParseSpecString(s string) (*Spec, error) {
	return ParseSpec(strings.NewReader(s))
}

// MustParseSpec panics on error; for tests and embedded specifications.
func MustParseSpec(s string) *Spec {
	spec, err := ParseSpecString(s)
	if err != nil {
		panic(err)
	}
	return spec
}

// parseKeyLine parses "(CONTEXT, (TARGET, {P1, P2, ...}))".
func parseKeyLine(line string) (*Key, error) {
	s := strings.TrimSpace(line)
	if !strings.HasPrefix(s, "(") || !strings.HasSuffix(s, ")") {
		return nil, fmt.Errorf("malformed key %q", line)
	}
	s = s[1 : len(s)-1] // CONTEXT, (TARGET, {...})
	comma := strings.Index(s, ",")
	if comma < 0 {
		return nil, fmt.Errorf("missing context separator in %q", line)
	}
	ctxStr := strings.TrimSpace(s[:comma])
	if !strings.HasPrefix(ctxStr, "/") {
		return nil, fmt.Errorf("context %q must be absolute", ctxStr)
	}
	rest := strings.TrimSpace(s[comma+1:])
	if !strings.HasPrefix(rest, "(") || !strings.HasSuffix(rest, ")") {
		return nil, fmt.Errorf("malformed target part in %q", line)
	}
	rest = rest[1 : len(rest)-1] // TARGET, {...}
	brace := strings.Index(rest, "{")
	if brace < 0 || !strings.HasSuffix(rest, "}") {
		return nil, fmt.Errorf("missing key-path set in %q", line)
	}
	targetStr := strings.TrimSpace(rest[:brace])
	targetStr = strings.TrimSuffix(targetStr, ",")
	targetStr = strings.TrimSpace(targetStr)
	kpList := strings.TrimSpace(rest[brace+1 : len(rest)-1])

	ctx, err := ParsePath(ctxStr)
	if err != nil {
		return nil, err
	}
	target, err := ParsePath(targetStr)
	if err != nil {
		return nil, err
	}
	if len(target) == 0 {
		return nil, fmt.Errorf("empty target in %q", line)
	}
	var kps []Path
	if kpList != "" {
		for _, part := range strings.Split(kpList, ",") {
			p, err := ParsePath(part)
			if err != nil {
				return nil, err
			}
			kps = append(kps, p)
		}
	}
	return &Key{Context: ctx, Target: target, KeyPaths: kps}, nil
}

// Normalize adds the implied keys (§3), deduplicates, checks the spec
// against the structural assumptions of the paper, and computes frontier
// paths. It is idempotent.
func (s *Spec) Normalize() error {
	all := make([]*Key, 0, len(s.Keys)*2)
	seen := map[string]*Key{}
	add := func(k *Key) {
		k.compile()
		id := k.pattern
		if prev, ok := seen[id]; ok {
			// Duplicate keyed path: identical key-path sets are a benign
			// repetition; keep the explicit (non-implied) one.
			if prev.Implied && !k.Implied {
				*prev = *k
			}
			return
		}
		seen[id] = k
		all = append(all, k)
	}
	for _, k := range s.Keys {
		if len(k.Target) == 0 {
			return fmt.Errorf("keys: key %s has empty target", k)
		}
		add(k)
	}
	for _, k := range s.Keys {
		for _, p := range k.KeyPaths {
			if len(p) == 0 {
				continue
			}
			add(&Key{Context: k.NodePath(), Target: p, Implied: true})
		}
	}
	// Deterministic order: shallower paths first, then lexicographic.
	sort.SliceStable(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if len(a.nodePath) != len(b.nodePath) {
			return len(a.nodePath) < len(b.nodePath)
		}
		return a.pattern < b.pattern
	})
	s.keyed = all

	if err := s.checkAssumptions(); err != nil {
		return err
	}

	// Frontier paths: keyed paths that are not compatible proper prefixes
	// of other keyed paths (§3).
	s.frontier = nil
	for _, k := range all {
		np := k.NodePath()
		isPrefix := false
		for _, other := range all {
			if np.CompatiblePrefixOf(other.NodePath()) {
				isPrefix = true
				break
			}
		}
		if !isPrefix {
			s.frontier = append(s.frontier, np)
		}
	}
	s.normalized = true
	return nil
}

// checkAssumptions enforces the §3 restrictions on the key structure.
func (s *Spec) checkAssumptions() error {
	paths := make([]Path, len(s.keyed))
	for i, k := range s.keyed {
		paths[i] = k.NodePath()
	}
	for _, k := range s.keyed {
		// Contexts must themselves be keyed (or the root): keys are
		// "insertion-friendly", defined top-down relative to ancestors.
		if len(k.Context) > 0 {
			found := false
			for _, p := range paths {
				if p.Compatible(k.Context) || p.Equal(k.Context) {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("keys: context %s of key %s is not itself keyed", k.Context.Absolute(), k)
			}
		}
		// Restriction 3: nodes beneath a key path cannot be keyed. A keyed
		// path may equal Context/Target/Pi (that is the implied key) but
		// must not extend strictly beyond it. The empty key path ({\e})
		// keys the node by its whole value, so nothing below the node
		// itself may be keyed.
		for _, p := range k.KeyPaths {
			kp := k.NodePath().Concat(p)
			for _, other := range paths {
				if kp.CompatiblePrefixOf(other) {
					return fmt.Errorf("keys: keyed path %s lies beneath key path %s of %s",
						other.Absolute(), kp.Absolute(), k)
				}
			}
		}
	}
	return nil
}

func (s *Spec) ensureNormalized() {
	if !s.normalized {
		if err := s.Normalize(); err != nil {
			panic(err)
		}
	}
}

// AllKeys returns all keys including implied ones, in deterministic order.
func (s *Spec) AllKeys() []*Key {
	s.ensureNormalized()
	return s.keyed
}

// KeyFor returns the key whose Context/Target pattern matches the concrete
// path, or nil if the path is not keyed.
func (s *Spec) KeyFor(concrete Path) *Key {
	s.ensureNormalized()
	for _, k := range s.keyed {
		if k.nodePath.Matches(concrete) {
			return k
		}
	}
	return nil
}

// IsKeyed reports whether the concrete path is a keyed path.
func (s *Spec) IsKeyed(concrete Path) bool { return s.KeyFor(concrete) != nil }

// FrontierPaths returns the frontier path patterns: keyed paths that are
// not proper prefixes of other keyed paths. Frontier nodes are the deepest
// keyed nodes; below them, conventional diff/weave techniques apply (§3).
func (s *Spec) FrontierPaths() []Path {
	s.ensureNormalized()
	return s.frontier
}

// IsFrontier reports whether the concrete path is a frontier path.
func (s *Spec) IsFrontier(concrete Path) bool {
	s.ensureNormalized()
	for _, p := range s.frontier {
		if p.Matches(concrete) {
			return true
		}
	}
	return false
}

// String renders the full normalized specification, implied keys last.
func (s *Spec) String() string {
	s.ensureNormalized()
	var b strings.Builder
	for _, k := range s.keyed {
		if k.Implied {
			continue
		}
		b.WriteString(k.String())
		b.WriteByte('\n')
	}
	return b.String()
}
