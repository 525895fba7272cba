package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"xarch"
	"xarch/internal/fsio"
)

// The traced run measures each layer from outside, by timing calls into
// its public functions: a wrapper around the server's http.Handler, a
// decorator implementing xarch.Store between the server and the
// ExtStore, and a decorator implementing fsio.FS between the ExtStore
// and the real filesystem. Spans are kept in memory and written out when
// the run ends.

// reqHeader carries the load generator's request id to the handler
// wrapper, so a handler span can be joined with its client span.
const reqHeader = "X-Bench-Req"

// span is one timed call at a layer boundary. Times are nanoseconds
// since the tracer's epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"` // 0: none
	Req    int64  `json:"req,omitempty"`    // load-generator request id, 0: none
	Name   string `json:"name"`             // "http.add", "store.History", "fs.Write", ...
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Class  string `json:"class,omitempty"` // fs spans: file class
	Bytes  int64  `json:"bytes,omitempty"` // fs spans: bytes read or written
	// Unattributed marks an fs span that ran while zero or several Store
	// spans were open, so no single Store call can own it.
	Unattributed bool `json:"unattributed,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// batchInfo is what the Store decorator records around one AddBatch,
// from the ExtStore's public counters.
type batchInfo struct {
	BytesRead int64 // BytesRead() delta across the call
	Rewritten int   // StorageStats().LastAddRewritten after the call
	Reused    int   // StorageStats().LastAddReused after the call
	SortRuns  int   // SortRuns() after the call
}

// tracer collects spans while recording is on.
type tracer struct {
	epoch     time.Time
	recording atomic.Bool

	mu        sync.Mutex
	spans     []span // spans[id-1] is span id
	openStore map[int64]bool
	handlerOf map[uint64]int64 // goroutine id -> its open handler span
	batches   []batchInfo
}

func newTracer() *tracer {
	return &tracer{
		epoch:     time.Now(),
		openStore: map[int64]bool{},
		handlerOf: map[uint64]int64{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// beginLocked opens a span and returns its id. Callers hold t.mu.
func (t *tracer) beginLocked(s span) int64 {
	s.ID = int64(len(t.spans)) + 1
	s.Start = t.now()
	t.spans = append(t.spans, s)
	return s.ID
}

// end closes span id, recording the bytes it moved.
func (t *tracer) end(id int64, n int64) {
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Bytes = n
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() ([]span, []batchInfo) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...), append([]batchInfo(nil), t.batches...)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(path string) error {
	spans, _ := t.snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// goid returns the current goroutine's id, parsed from the header line
// of its stack trace ("goroutine 42 [running]:"). Store calls carry no
// context, so this is how a Store span finds the handler that made it.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i >= 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// ---------------------------------------------------------------------------
// Server layer: the handler wrapper.

// route names the endpoint of a request path.
func route(path string) string {
	switch {
	case path == "/v1/add":
		return "add"
	case strings.HasPrefix(path, "/v1/version/"):
		return "version"
	case path == "/v1/history":
		return "history"
	case path == "/v1/query":
		return "query"
	}
	return "other"
}

// wrapHandler times every request through h as an "http.<endpoint>" span.
func (t *tracer) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.recording.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		g := goid()
		t.mu.Lock()
		id := t.beginLocked(span{Name: "http." + route(r.URL.Path), Req: req})
		t.handlerOf[g] = id
		t.mu.Unlock()
		defer func() {
			t.mu.Lock()
			delete(t.handlerOf, g)
			t.mu.Unlock()
			t.end(id, 0)
		}()
		h.ServeHTTP(w, r)
	})
}

// ---------------------------------------------------------------------------
// xarch layer: the Store decorator.

// tracedStore implements xarch.Store around an ExtStore, timing each
// call as a "store.<Method>" span whose parent is the handler span open
// on the calling goroutine, if any.
type tracedStore struct {
	t     *tracer
	inner *xarch.ExtStore
}

var _ xarch.Store = (*tracedStore)(nil)

func (s *tracedStore) begin(name string) int64 {
	if !s.t.recording.Load() {
		return 0
	}
	g := goid()
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	id := s.t.beginLocked(span{Name: "store." + name, Parent: s.t.handlerOf[g]})
	s.t.openStore[id] = true
	return id
}

func (s *tracedStore) end(id int64) {
	if id == 0 {
		return
	}
	s.t.mu.Lock()
	delete(s.t.openStore, id)
	s.t.mu.Unlock()
	s.t.end(id, 0)
}

func (s *tracedStore) AddBatch(docs []*xarch.Document) ([]xarch.AddResult, error) {
	before := s.inner.BytesRead()
	id := s.begin("AddBatch")
	res, err := s.inner.AddBatch(docs)
	s.end(id)
	if id == 0 {
		return res, err
	}
	info := batchInfo{BytesRead: s.inner.BytesRead() - before, SortRuns: s.inner.SortRuns()}
	if st, serr := s.inner.StorageStats(); serr == nil {
		info.Rewritten, info.Reused = st.LastAddRewritten, st.LastAddReused
	}
	s.t.mu.Lock()
	s.t.batches = append(s.t.batches, info)
	s.t.mu.Unlock()
	return res, err
}

func (s *tracedStore) Versions() int {
	defer s.end(s.begin("Versions"))
	return s.inner.Versions()
}

func (s *tracedStore) WriteVersion(n int, w io.Writer) error {
	defer s.end(s.begin("WriteVersion"))
	return s.inner.WriteVersion(n, w)
}

func (s *tracedStore) History(selector string) (*xarch.VersionSet, error) {
	defer s.end(s.begin("History"))
	return s.inner.History(selector)
}

func (s *tracedStore) ContentHistory(selector string) ([]int, error) {
	defer s.end(s.begin("ContentHistory"))
	return s.inner.ContentHistory(selector)
}

func (s *tracedStore) Select(expr string) ([]xarch.SelectResult, error) {
	defer s.end(s.begin("Select"))
	return s.inner.Select(expr)
}

// Degraded forwards the optional facet the server probes for, so the
// decorated server behaves as the plain one does: every /v1/add handler
// calls it first, and it takes the store's read lock.
func (s *tracedStore) Degraded() error {
	defer s.end(s.begin("Degraded"))
	return s.inner.Degraded()
}

// The calls no workload drives pass straight through.

func (s *tracedStore) Add(doc *xarch.Document) error          { return s.inner.Add(doc) }
func (s *tracedStore) AddReader(r io.Reader) error            { return s.inner.AddReader(r) }
func (s *tracedStore) Version(n int) (*xarch.Document, error) { return s.inner.Version(n) }
func (s *tracedStore) Stats() (xarch.Stats, error)            { return s.inner.Stats() }
func (s *tracedStore) CompressedSize() (int, error)           { return s.inner.CompressedSize() }
func (s *tracedStore) Snapshot(w io.Writer) error             { return s.inner.Snapshot(w) }
func (s *tracedStore) Close() error                           { return s.inner.Close() }
func (s *tracedStore) CompactionErr() error                   { return s.inner.CompactionErr() }

// ---------------------------------------------------------------------------
// fsio layer: the FS decorator.

// fileClass names the role of an archive file from its name: the Add
// pipeline's scratch files (tmp-*), segment files, the key directory,
// the attr.idx sidecar, meta.txt and dict.txt. Atomic-replace siblings
// (keydir.idx.tmp, ...) count with the file they replace.
func fileClass(name string) string {
	base := filepath.Base(name)
	switch {
	case strings.HasPrefix(base, "tmp-"):
		return "scratch"
	case strings.HasPrefix(base, "seg-"):
		return "segment"
	case strings.HasPrefix(base, "keydir.idx"):
		return "keydir"
	case strings.HasPrefix(base, "attr.idx"):
		return "attridx"
	case strings.HasPrefix(base, "meta.txt"):
		return "meta"
	case strings.HasPrefix(base, "dict.txt"):
		return "dict"
	}
	return "other"
}

// fileClasses lists the classes reported per class, in report order.
var fileClasses = []string{"scratch", "segment", "keydir", "attridx", "meta", "dict"}

// tracedFS implements fsio.FS, timing each operation as an "fs.<Op>"
// span. The span's parent is the one open Store span, if exactly one is
// open; otherwise it is marked unattributed.
type tracedFS struct {
	t     *tracer
	inner fsio.FS
}

func (f *tracedFS) begin(op, class string) int64 {
	if !f.t.recording.Load() {
		return 0
	}
	f.t.mu.Lock()
	defer f.t.mu.Unlock()
	s := span{Name: "fs." + op, Class: class, Unattributed: true}
	if len(f.t.openStore) == 1 {
		for id := range f.t.openStore {
			s.Parent, s.Unattributed = id, false
		}
	}
	return f.t.beginLocked(s)
}

func (f *tracedFS) end(id int64, n int64) {
	if id != 0 {
		f.t.end(id, n)
	}
}

func (f *tracedFS) Create(name string) (fsio.File, error) {
	id := f.begin("Create", fileClass(name))
	file, err := f.inner.Create(name)
	f.end(id, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{fs: f, inner: file, class: fileClass(name)}, nil
}

func (f *tracedFS) Open(name string) (fsio.File, error) {
	id := f.begin("Open", fileClass(name))
	file, err := f.inner.Open(name)
	f.end(id, 0)
	if err != nil {
		return nil, err
	}
	return &tracedFile{fs: f, inner: file, class: fileClass(name)}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	id := f.begin("Rename", fileClass(newpath))
	err := f.inner.Rename(oldpath, newpath)
	f.end(id, 0)
	return err
}

func (f *tracedFS) Remove(name string) error {
	id := f.begin("Remove", fileClass(name))
	err := f.inner.Remove(name)
	f.end(id, 0)
	return err
}

func (f *tracedFS) ReadFile(name string) ([]byte, error) {
	id := f.begin("ReadFile", fileClass(name))
	b, err := f.inner.ReadFile(name)
	f.end(id, int64(len(b)))
	return b, err
}

func (f *tracedFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	id := f.begin("WriteFile", fileClass(name))
	err := f.inner.WriteFile(name, data, perm)
	f.end(id, int64(len(data)))
	return err
}

func (f *tracedFS) Stat(name string) (fs.FileInfo, error) {
	id := f.begin("Stat", fileClass(name))
	fi, err := f.inner.Stat(name)
	f.end(id, 0)
	return fi, err
}

func (f *tracedFS) MkdirAll(path string, perm fs.FileMode) error {
	id := f.begin("MkdirAll", "dir")
	err := f.inner.MkdirAll(path, perm)
	f.end(id, 0)
	return err
}

func (f *tracedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	id := f.begin("ReadDir", "dir")
	ents, err := f.inner.ReadDir(name)
	f.end(id, 0)
	return ents, err
}

func (f *tracedFS) SyncDir(dir string) error {
	id := f.begin("SyncDir", "dir")
	err := f.inner.SyncDir(dir)
	f.end(id, 0)
	return err
}

// tracedFile times every call on one open file.
type tracedFile struct {
	fs    *tracedFS
	inner fsio.File
	class string
}

func (f *tracedFile) Read(p []byte) (int, error) {
	id := f.fs.begin("Read", f.class)
	n, err := f.inner.Read(p)
	f.fs.end(id, int64(n))
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	id := f.fs.begin("ReadAt", f.class)
	n, err := f.inner.ReadAt(p, off)
	f.fs.end(id, int64(n))
	return n, err
}

func (f *tracedFile) Write(p []byte) (int, error) {
	id := f.fs.begin("Write", f.class)
	n, err := f.inner.Write(p)
	f.fs.end(id, int64(n))
	return n, err
}

func (f *tracedFile) WriteAt(p []byte, off int64) (int, error) {
	id := f.fs.begin("WriteAt", f.class)
	n, err := f.inner.WriteAt(p, off)
	f.fs.end(id, int64(n))
	return n, err
}

func (f *tracedFile) Seek(offset int64, whence int) (int64, error) {
	id := f.fs.begin("Seek", f.class)
	n, err := f.inner.Seek(offset, whence)
	f.fs.end(id, 0)
	return n, err
}

func (f *tracedFile) Sync() error {
	id := f.fs.begin("Sync", f.class)
	err := f.inner.Sync()
	f.fs.end(id, 0)
	return err
}

func (f *tracedFile) Close() error {
	id := f.fs.begin("Close", f.class)
	err := f.inner.Close()
	f.fs.end(id, 0)
	return err
}

func (f *tracedFile) Name() string { return f.inner.Name() }

// ---------------------------------------------------------------------------
// Span arithmetic.

// covered returns how much of [lo, hi) the union of the spans covers.
// Overlapping spans count once.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for k, v := range ivs {
		if k == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
			continue
		}
		curB = max(curB, v.b)
	}
	return total + curB - curA
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - covered(parent.Start, parent.End, children)
}

// commitBatch returns, for each add handler span, the index in batches
// of the AddBatch span that committed it: the last batch to end before
// the handler ended (the committer answers a submitter only after its
// batch returns). batches must be sorted by End. -1 means no batch ended
// before the handler did.
func commitBatch(handlers, batches []span) []int {
	out := make([]int, len(handlers))
	for k, h := range handlers {
		out[k] = sort.Search(len(batches), func(i int) bool { return batches[i].End > h.End }) - 1
	}
	return out
}
