package keys

import (
	"fmt"
	"strings"

	"xarch/internal/xmltree"
)

// ValidationError describes one violation of a key specification.
type ValidationError struct {
	Path string // path of the offending node
	Key  string // rendering of the violated key, if any
	Msg  string
}

func (e *ValidationError) Error() string {
	if e.Key != "" {
		return fmt.Sprintf("keys: %s at %s: %s", e.Msg, e.Path, e.Key)
	}
	return fmt.Sprintf("keys: %s at %s", e.Msg, e.Path)
}

// ViolationsError aggregates every violation of a key specification found
// in one document. It is the error type behind document validation; use
// errors.As to recover the individual violations.
type ViolationsError struct {
	Violations []*ValidationError
}

func (e *ViolationsError) Error() string {
	if len(e.Violations) == 1 {
		return e.Violations[0].Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "keys: document violates key specification (%d violations):", len(e.Violations))
	for _, v := range e.Violations {
		b.WriteString("\n\t")
		b.WriteString(v.Error())
	}
	return b.String()
}

// Unwrap exposes the individual violations to errors.Is/errors.As.
func (e *ViolationsError) Unwrap() []error {
	out := make([]error, len(e.Violations))
	for i, v := range e.Violations {
		out[i] = v
	}
	return out
}

// CheckDocument verifies that doc satisfies the specification and the
// structural assumptions the archiver relies on (§3):
//
//  1. every key (C, (T, {P1..Pk})) holds: from each node matched by C, every
//     target node has exactly one value per key path, and no two targets of
//     the same context node share a key-value tuple;
//  2. coverage: above the frontier, every element and attribute path is
//     keyed and no text content appears (text lives below frontier nodes).
//
// It returns all violations found (nil if the document satisfies the spec).
func (s *Spec) CheckDocument(doc *xmltree.Node) []*ValidationError {
	s.ensureNormalized()
	var errs []*ValidationError
	path := make(Path, 1, 16)
	path[0] = doc.Name
	s.checkNode(doc, path, &errs)
	return errs
}

// CheckDocumentErr is CheckDocument returning the violations as a single
// *ViolationsError (nil when the document satisfies the spec).
func (s *Spec) CheckDocumentErr(doc *xmltree.Node) error {
	if errs := s.CheckDocument(doc); len(errs) > 0 {
		return &ViolationsError{Violations: errs}
	}
	return nil
}

// checkNode validates the subtree of n at concrete path p. Children extend
// p in place (append into its spare capacity), so p is only read during
// the call and never retained.
func (s *Spec) checkNode(n *xmltree.Node, p Path, errs *[]*ValidationError) {
	// Coverage of this node.
	if !s.IsKeyed(p) {
		*errs = append(*errs, &ValidationError{
			Path: p.Absolute(),
			Msg:  "unkeyed element above the frontier",
		})
		return // no key structure to check below
	}

	// Uniqueness and existence for every key whose context is this node.
	for _, k := range s.keyed {
		if !k.nodePath.Matches(p) {
			continue
		}
		// This node is a target of key k; check its key paths resolve
		// uniquely.
		for _, kp := range k.KeyPaths {
			if len(kp) == 0 {
				continue
			}
			if _, found := kp.ResolveUnique(n); found != 1 {
				*errs = append(*errs, &ValidationError{
					Path: p.Absolute(), Key: k.String(),
					Msg: fmt.Sprintf("key path %s resolves to %d nodes, want 1", kp, len(kp.Resolve(n))),
				})
			}
		}
	}
	for _, k := range s.keyed {
		if !k.Context.Matches(p) {
			continue
		}
		targets := k.Target.Resolve(n)
		if len(targets) < 2 {
			continue // nothing to collide with
		}
		seen := make(map[string]bool, len(targets))
		for _, t := range targets {
			tuple, ok := keyTuple(t, k)
			if !ok {
				continue // missing key path already reported at the target
			}
			if seen[tuple] {
				*errs = append(*errs, &ValidationError{
					Path: p.Absolute(), Key: k.String(),
					Msg: "duplicate key value among targets",
				})
			}
			seen[tuple] = true
		}
	}

	if s.IsFrontier(p) {
		return // content below the frontier is unconstrained
	}

	// Above the frontier: attributes must be keyed paths, text must not
	// appear, element children must be keyed (checked recursively).
	for _, a := range n.Attrs {
		ap := append(p, a.Name)
		if !s.IsKeyed(ap) {
			*errs = append(*errs, &ValidationError{
				Path: ap.Absolute(),
				Msg:  "unkeyed attribute above the frontier",
			})
		}
	}
	for _, c := range n.Children {
		switch c.Kind {
		case xmltree.Text:
			*errs = append(*errs, &ValidationError{
				Path: p.Absolute(),
				Msg:  "text content above the frontier",
			})
		case xmltree.Element:
			s.checkNode(c, append(p, c.Name), errs)
		}
	}
}

// keyTuple renders the key value of target node t under key k as a single
// canonical string, or ok=false if some key path does not resolve uniquely.
func keyTuple(t *xmltree.Node, k *Key) (string, bool) {
	if len(k.KeyPaths) == 0 {
		return "", true
	}
	out := ""
	for _, kp := range k.KeyPaths {
		v, found := kp.ResolveUnique(t)
		if found != 1 {
			return "", false
		}
		out += "|" + xmltree.Canonical(v)
	}
	return out, true
}
