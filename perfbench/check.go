package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"xarch"
)

// The reference engine checks every answer: an in-memory MemStore built
// from the same documents in committed-version order. Answers are
// compared by digest. A read that ran while adds committed may have seen
// any archive state from Lo to Hi versions; it passes if its answer
// matches the reference at one of them.

var errWrong = errors.New("wrong answer")

// oracle is a MemStore grown one version at a time, with per-state
// caches of the answers already computed.
type oracle struct {
	mem      *xarch.MemStore
	verHash  map[int]uint64
	histHash map[string][2]uint64 // at the current state
	selHash  map[string]uint64    // at the current state
}

func newOracle(spec *xarch.KeySpec) *oracle {
	return &oracle{mem: xarch.NewStore(spec), verHash: map[int]uint64{}}
}

func (o *oracle) add(body []byte) error {
	doc, err := xarch.ParseXML(bytes.NewReader(body))
	if err != nil {
		return err
	}
	o.histHash, o.selHash = map[string][2]uint64{}, map[string]uint64{}
	return o.mem.Add(doc)
}

// version digests the indented XML of version n, as /v1/version serves it.
func (o *oracle) version(n int) (uint64, error) {
	if h, ok := o.verHash[n]; ok {
		return h, nil
	}
	h := fnv.New64a()
	if err := o.mem.WriteVersion(n, h); err != nil {
		return 0, err
	}
	o.verHash[n] = h.Sum64()
	return o.verHash[n], nil
}

func (o *oracle) history(sel string) ([2]uint64, error) {
	if h, ok := o.histHash[sel]; ok {
		return h, nil
	}
	vs, err := o.mem.History(sel)
	if err != nil {
		return [2]uint64{}, err
	}
	ch, err := o.mem.ContentHistory(sel)
	if err != nil {
		return [2]uint64{}, err
	}
	h := [2]uint64{digestInts(vs.Versions()), digestInts(ch)}
	o.histHash[sel] = h
	return h, nil
}

func (o *oracle) query(expr string) (uint64, error) {
	if h, ok := o.selHash[expr]; ok {
		return h, nil
	}
	rs, err := o.mem.Select(expr)
	if err != nil {
		return 0, err
	}
	o.selHash[expr] = digestResults(rs)
	return o.selHash[expr], nil
}

// checkRun checks every successful answer of one run against the
// reference engine and marks each wrong one failed. setup holds the
// versions archived before the run; the adds carry the rest. An add must
// answer the version after the last one committed; one that answers
// another version is marked failed, and the reads are still checked
// against the versions committed up to it. It returns the bodies in
// committed order.
func checkRun(spec *xarch.KeySpec, setup [][]byte, results []*result) ([][]byte, error) {
	committed := append([][]byte(nil), setup...)
	var adds, reads []*result
	for _, r := range results {
		if !r.ok() {
			continue
		}
		if r.req.Kind == opAdd {
			adds = append(adds, r)
		} else {
			reads = append(reads, r)
		}
	}
	sort.SliceStable(adds, func(i, j int) bool { return adds[i].Version < adds[j].Version })
	for _, a := range adds {
		if want := len(committed) + 1; a.Version != want {
			a.Err = fmt.Errorf("%w: add answered version %d, expected %d", errWrong, a.Version, want)
			continue
		}
		committed = append(committed, a.req.Body)
	}
	setHi(results, len(setup))

	// Replay the committed versions into the reference; at each state
	// check the reads that may have seen it. A read passes when its whole
	// answer matches one state.
	sort.Slice(reads, func(i, j int) bool { return reads[i].Lo < reads[j].Lo })
	o := newOracle(spec)
	matched := make([]bool, len(reads))
	next := 0 // reads[:next] have Lo <= the current state
	for v, body := range committed {
		if err := o.add(body); err != nil {
			return nil, fmt.Errorf("reference engine, version %d: %w", v+1, err)
		}
		state := v + 1
		if state < len(setup) {
			continue
		}
		for next < len(reads) && reads[next].Lo <= state {
			next++
		}
		for k, r := range reads[:next] {
			if r.Hi < state || matched[k] {
				continue
			}
			switch r.req.Kind {
			case opHistory:
				h, err := o.history(r.req.Sel)
				if err != nil {
					return nil, fmt.Errorf("reference history %s: %w", r.req.Sel, err)
				}
				matched[k] = h == [2]uint64{r.Hash, r.Hash2}
			case opSelect:
				h, err := o.query(r.Expr)
				if err != nil {
					return nil, fmt.Errorf("reference select %s: %w", r.Expr, err)
				}
				matched[k] = h == r.Hash
			}
		}
	}
	for k, r := range reads {
		switch r.req.Kind {
		case opVersion:
			if r.N > len(committed) {
				r.Err = fmt.Errorf("%w: version %d read, but only %d committed", errWrong, r.N, len(committed))
				continue
			}
			h, err := o.version(r.N)
			if err != nil {
				return nil, fmt.Errorf("reference version %d: %w", r.N, err)
			}
			if h != r.Hash {
				r.Err = fmt.Errorf("%w: version %d differs from the reference", errWrong, r.N)
			}
		case opHistory:
			if !matched[k] {
				r.Err = fmt.Errorf("%w: history %s matches no reference state in %d..%d", errWrong, r.req.Sel, r.Lo, r.Hi)
			}
		case opSelect:
			if !matched[k] {
				r.Err = fmt.Errorf("%w: select %q matches no reference state in %d..%d", errWrong, r.Expr, r.Lo, r.Hi)
			}
		}
	}
	return committed, nil
}

// setHi bounds, for every read, the versions the archive can have held
// when it was answered: the set-up versions plus every add sent before the read
// ended. An add cannot commit before it is sent.
func setHi(results []*result, setup int) {
	var sent []float64
	for _, r := range results {
		if r.req.Kind == opAdd {
			sent = append(sent, float64(r.Sent))
		}
	}
	sort.Float64s(sent)
	for _, r := range results {
		if r.req.Kind != opAdd {
			r.Hi = setup + sort.SearchFloat64s(sent, float64(r.End))
		}
	}
}

// checkIngest checks the ingest episodes. Every episode posts the same
// releases onto the same set-up archive, so one reference serves them
// all: each episode's adds must answer versions len(setup)+1, +2, … in
// order, and each read-back of those versions must match the reference.
// A wrong read-back marks the add of that version failed.
func checkIngest(spec *xarch.KeySpec, setup, releases [][]byte, episodes [][]*result, readBacks [][]*result) error {
	o := newOracle(spec)
	for v, body := range append(append([][]byte(nil), setup...), releases...) {
		if err := o.add(body); err != nil {
			return fmt.Errorf("reference engine, version %d: %w", v+1, err)
		}
	}
	for e, adds := range episodes {
		byVersion := map[int]*result{}
		for k, a := range adds {
			if !a.ok() {
				continue
			}
			if want := len(setup) + k + 1; a.Version != want {
				a.Err = fmt.Errorf("%w: add answered version %d, expected %d", errWrong, a.Version, want)
				continue
			}
			byVersion[a.Version] = a
		}
		for _, rb := range readBacks[e] {
			h, err := o.version(rb.N)
			if err != nil {
				return fmt.Errorf("reference version %d: %w", rb.N, err)
			}
			a := byVersion[rb.N]
			if a == nil {
				continue
			}
			if !rb.ok() {
				a.Err = fmt.Errorf("read-back of version %d: %w", rb.N, rb.Err)
			} else if h != rb.Hash {
				a.Err = fmt.Errorf("%w: version %d reads back different from the reference", errWrong, rb.N)
			}
		}
	}
	return nil
}
