package extmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"xarch/internal/fsio"
	"xarch/internal/keys"
)

// Sharded run forming: the follower that builds bounded-memory sorted
// runs from the decompose output is split into a dispatcher plus N
// worker run formers. The dispatcher performs the cheap sequential work
// — decoding tokens and attaching composite keys from the §6.1 key files
// (which are strictly sequential streams) — and routes each top-level
// subtree to one worker; the workers do the expensive part (partial-tree
// building, sorting, run writing) in parallel. Tokens of the document
// root itself are broadcast to every worker, so each worker's runs carry
// the full stem and the existing multi-way run merge combines them
// unchanged: one child's content lives entirely inside one worker, whose
// run order is preserved in the combined run list.

// shardBatch is the dispatcher→worker batch size, in tokens.
const shardBatch = 512

// formRunsSharded forms sorted runs from the token stream, fanning the
// tree building out over min(shards, available cores) workers. With
// shards <= 1 it degrades to the sequential former. The returned run
// list is ordered worker by worker, preserving each worker's creation
// order (which frontier-content concatenation relies on).
func formRunsSharded(fs fsio.FS, tr *tokenReader, dict *dictionary, spec *keys.Spec, budget int,
	dir, prefix string, openKeys func(pattern string) (*rawReader, error), shards int) ([]string, SortStats, error) {

	if shards <= 1 {
		return formRuns(fs, tr, dict, spec, budget, dir, prefix, openKeys)
	}
	perBudget := budget / shards
	if perBudget < 16 {
		perBudget = 16
	}

	ws := make([]*shardWorker, shards)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < shards; w++ {
		st := &shardWorker{ch: make(chan []token, 4)}
		ws[w] = st
		wg.Add(1)
		go func(st *shardWorker, w int) {
			defer wg.Done()
			rf := &runFormer{fs: fs, dict: dict, spec: spec, budget: perBudget, dir: dir,
				prefix:     fmt.Sprintf("%s-w%d", prefix, w),
				keyReaders: map[string]*rawReader{}}
			for batch := range st.ch {
				if st.err != nil {
					continue // drain
				}
				for _, t := range batch {
					if err := rf.feed(t); err != nil {
						st.err = err
						failed.Store(true)
						break
					}
				}
			}
			if st.err == nil {
				st.runs, st.stats, st.err = rf.finish()
				if st.err != nil {
					failed.Store(true)
				}
			} else {
				st.runs = rf.runs // whatever was written, for cleanup
			}
		}(st, w)
	}

	d := &shardDispatcher{
		dict: dict, spec: spec, shards: shards,
		keyReaders: map[string]*rawReader{}, openKeys: openKeys,
		batches: make([][]token, shards),
	}
	derr := d.run(tr, ws, &failed)
	for w, st := range ws {
		if len(d.batches[w]) > 0 && derr == nil {
			st.ch <- d.batches[w]
		}
		close(st.ch)
	}
	wg.Wait()

	var runs []string
	var stats SortStats
	var err error
	for _, st := range ws {
		runs = append(runs, st.runs...)
		stats.RunTokens += st.stats.RunTokens
		if err == nil && st.err != nil {
			err = st.err
		}
	}
	stats.Runs = len(runs)
	if derr != nil && (err == nil || tr.err == nil) {
		err = derr
	}
	if err == nil && tr.err != nil {
		err = tr.err
	}
	return runs, stats, err
}

// shardWorker is one run-former worker of the sharded ingest.
type shardWorker struct {
	ch    chan []token
	runs  []string
	stats SortStats
	err   error
}

// shardDispatcher annotates the token stream with keys and routes
// subtrees to workers.
type shardDispatcher struct {
	dict   *dictionary
	spec   *keys.Spec
	shards int

	keyReaders map[string]*rawReader
	openKeys   func(pattern string) (*rawReader, error)

	batches [][]token

	path       []string
	depth      int
	inFrontier int
	cur        int
	childCount int
}

// run dispatches the whole stream; leftover batches are flushed by the
// caller (so channels are closed exactly once even on error paths).
func (d *shardDispatcher) run(tr *tokenReader, ws []*shardWorker, failed *atomic.Bool) error {
	send := func(w int) {
		ws[w].ch <- d.batches[w]
		d.batches[w] = nil
	}
	route := func(w int, t token) {
		d.batches[w] = append(d.batches[w], t)
		if len(d.batches[w]) >= shardBatch {
			send(w)
		}
	}
	broadcast := func(t token) {
		for w := 0; w < d.shards; w++ {
			route(w, t)
		}
	}
	n := 0
	for {
		if n++; n%shardBatch == 0 && failed.Load() {
			return nil // a worker already carries the error
		}
		t, ok := tr.take()
		if !ok {
			return nil
		}
		switch t.op {
		case tokOpen:
			if d.inFrontier > 0 {
				d.inFrontier++
				d.depth++
				route(d.cur, t)
				continue
			}
			name, err := d.dict.name(t.tag)
			if err != nil {
				return err
			}
			d.path = append(d.path, name)
			d.depth++
			if t.key == nil {
				k := d.spec.KeyFor(keys.Path(d.path))
				if k == nil {
					return fmt.Errorf("extmem: unkeyed element %s above the frontier", pathString(d.path))
				}
				rec, err := d.nextKey(k.Pattern())
				if err != nil {
					return fmt.Errorf("extmem: key file for %s: %w", k.Pattern(), err)
				}
				t.key = rec
			}
			if d.depth == 2 {
				// A new top-level subtree: pick its worker.
				d.cur = d.childCount % d.shards
				d.childCount++
			}
			if d.spec.IsFrontier(keys.Path(d.path)) {
				d.inFrontier = 1
			}
			if d.depth <= 1 {
				broadcast(t)
			} else {
				route(d.cur, t)
			}
		case tokClose:
			if d.inFrontier > 0 {
				d.inFrontier--
				if d.inFrontier > 0 {
					d.depth--
					route(d.cur, t)
					continue
				}
				// The frontier node's own close: fall through to the
				// keyed-level close handling.
			}
			if d.depth <= 0 {
				return fmt.Errorf("extmem: unbalanced close")
			}
			if len(d.path) > 0 {
				d.path = d.path[:len(d.path)-1]
			}
			if d.depth == 1 {
				broadcast(t)
			} else {
				route(d.cur, t)
			}
			d.depth--
		default:
			if d.depth <= 1 && d.inFrontier == 0 {
				broadcast(t)
			} else {
				route(d.cur, t)
			}
		}
	}
}

// nextKey pops the next composite key value for the given path pattern.
func (d *shardDispatcher) nextKey(pattern string) (*tkey, error) {
	rr, ok := d.keyReaders[pattern]
	if !ok {
		var err error
		rr, err = d.openKeys(pattern)
		if err != nil {
			return nil, err
		}
		d.keyReaders[pattern] = rr
	}
	return readKeyRecord(rr)
}
