package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"xarch/internal/extmem"
	"xarch/internal/server"
)

// phase is one measured pass of a workload: untraced, or traced.
type phase struct {
	tracer  *tracer
	results []*result     // every measured request
	window  time.Duration // total time under load

	// The windows the end-to-end metrics take medians over: each ingest
	// episode, or each fifth of the open-loop schedule.
	windows [][]*result

	// ingest: the read-back of each episode's versions.
	readBacks [][]*result

	srv     server.Metrics // counter deltas summed over the load windows
	commits int64          // ExtStore.CommitCount delta over the load windows

	storedBytes int64   // archive directory bytes after the last load
	lastBytes   int     // bytes of the last archived version
	peakRSS     float64 // MB, the load's peak resident memory

	// Traced only: post-run probes of the live store.
	probes  map[string]float64
	storage extmem.StorageStats
}

// runPhases runs the workload once per phase on copies of the set-up
// archive in setupDir: one open-loop run each, one after the other, or
// ingest episodes until each phase's load time reaches seconds. Ingest
// phases take turns episode by episode, so a slow stretch of the machine
// falls on both and the traced-minus-untraced difference stays fair.
func runPhases(p *plan, setupDir, work string, seconds time.Duration, phases []*phase) error {
	if p.episode == nil {
		for i, ph := range phases {
			if err := ph.runOpen(p, setupDir, filepath.Join(work, fmt.Sprintf("open%d", i)), seconds); err != nil {
				return err
			}
		}
		return nil
	}
	for e := 0; ; e++ {
		ran := false
		for i, ph := range phases {
			if e > 0 && ph.window >= seconds {
				continue
			}
			ran = true
			if err := ph.runEpisode(p, setupDir, filepath.Join(work, fmt.Sprintf("ep%d-%d", i, e)), e); err != nil {
				return err
			}
		}
		if !ran {
			return nil
		}
	}
}

// load times one load window on s, collecting the server and commit
// counter deltas and switching the tracer on for its duration.
func (ph *phase) load(s *stack, fn func()) {
	// Flush the copy of the archive, and the deletions of earlier work
	// directories, before the clock starts, so their write-back does not
	// land in the window.
	syscall.Sync()
	m0, c0 := s.srv.Metrics(), s.ext.CommitCount()
	if ph.tracer != nil {
		ph.tracer.recording.Store(true)
	}
	t0 := time.Now()
	fn()
	ph.window += time.Since(t0)
	if ph.tracer != nil {
		ph.tracer.recording.Store(false)
	}
	m1, c1 := s.srv.Metrics(), s.ext.CommitCount()
	ph.srv.AddsCommitted += m1.AddsCommitted - m0.AddsCommitted
	ph.srv.AddsRejected += m1.AddsRejected - m0.AddsRejected
	ph.srv.Batches += m1.Batches - m0.Batches
	ph.srv.BatchedDocs += m1.BatchedDocs - m0.BatchedDocs
	ph.commits += c1 - c0
}

// runEpisode posts the ingest releases in order over one connection onto
// a fresh copy of the set-up archive, then reads every new version back.
func (ph *phase) runEpisode(p *plan, setupDir, dir string, e int) error {
	if err := copyDir(setupDir, dir); err != nil {
		return err
	}
	s, err := startStack(dir, p.spec, ph.tracer)
	if err != nil {
		return err
	}
	c := newClient(s.base)
	defer c.close()
	var hd head
	hd.raise(len(p.setupDocs))
	reqs := make([]*request, len(p.episode))
	for k, body := range p.episode {
		reqs[k] = &request{ID: int64(e*len(p.episode) + k + 1), Kind: opAdd, Body: body}
	}
	var res []*result
	ph.load(s, func() {
		res = closedLoop(reqs, wallClock{time.Now()}, func(r *result) { c.do(r, &hd) })
	})
	ph.windows = append(ph.windows, res)
	ph.results = append(ph.results, res...)

	var rbs []*result
	for k := range p.episode {
		rb := &result{req: &request{Kind: opVersion, N: len(p.setupDocs) + k + 1}}
		c.do(rb, &hd)
		rbs = append(rbs, rb)
	}
	ph.readBacks = append(ph.readBacks, rbs)
	return ph.finish(p, s, dir)
}

// runOpen runs the open-loop schedule on a copy of the set-up archive.
func (ph *phase) runOpen(p *plan, setupDir, dir string, seconds time.Duration) error {
	if err := copyDir(setupDir, dir); err != nil {
		return err
	}
	s, err := startStack(dir, p.spec, ph.tracer)
	if err != nil {
		return err
	}
	clients := make([]*client, p.conns)
	for w := range clients {
		clients[w] = newClient(s.base)
		defer clients[w].close()
	}
	var hd head
	hd.raise(len(p.setupDocs))
	ph.load(s, func() {
		ph.results = openLoop(p.reqs, p.conns, wallClock{time.Now()}, seconds+giveUpAfter,
			func(w int, r *result) { clients[w].do(r, &hd) })
	})
	ph.windows = make([][]*result, openWindows)
	for _, r := range ph.results {
		k := min(int(r.Due*openWindows/seconds), openWindows-1)
		ph.windows[k] = append(ph.windows[k], r)
	}
	return ph.finish(p, s, dir)
}

// finish probes the live store (traced runs), stops the stack and
// measures the archive it left.
func (ph *phase) finish(p *plan, s *stack, dir string) error {
	if ph.tracer != nil {
		if err := ph.probe(p, s); err != nil {
			s.stop()
			return err
		}
	}
	if err := s.stop(); err != nil {
		return fmt.Errorf("stop server: %w", err)
	}
	n, err := dirBytes(dir)
	if err != nil {
		return err
	}
	ph.storedBytes = n
	return os.RemoveAll(dir)
}

// probe measures the extmem read counters of one Store call each, and
// the storage shape, serially after the load.
func (ph *phase) probe(p *plan, s *stack) error {
	ext := s.ext
	steps := []struct {
		name string
		call func() error
	}{
		{"version", func() error { return ext.WriteVersion(ext.Versions(), io.Discard) }},
		{"history", func() error { _, err := ext.History(p.probeSel); return err }},
		{"select", func() error { _, err := ext.Select(p.probeExpr); return err }},
	}
	ph.probes = map[string]float64{}
	for _, st := range steps {
		before := ext.BytesRead()
		if err := st.call(); err != nil {
			return fmt.Errorf("probe %s: %w", st.name, err)
		}
		ph.probes[st.name] = float64(ext.BytesRead() - before)
	}
	var err error
	ph.storage, err = ext.StorageStats()
	return err
}

// check compares every answer with the reference engine, marking wrong
// ones failed, and records the size of the last archived version. It
// fails only when the check itself cannot run.
func (ph *phase) check(p *plan) error {
	if p.episode != nil {
		ph.lastBytes = len(p.episode[len(p.episode)-1])
		return checkIngest(p.spec, p.setupDocs, p.episode, ph.windows, ph.readBacks)
	}
	committed, err := checkRun(p.spec, p.setupDocs, ph.results)
	if err != nil {
		return err
	}
	ph.lastBytes = len(committed[len(committed)-1])
	return nil
}

// latencies returns the latencies in ms of the successful requests of kind.
func (ph *phase) latencies(kind opKind) []float64 {
	var xs []float64
	for _, r := range ph.results {
		if r.ok() && r.req.Kind == kind {
			xs = append(xs, float64(r.latency())/1e6)
		}
	}
	return xs
}

func (ph *phase) count(kind opKind) (ok, all int) {
	for _, r := range ph.results {
		if r.req.Kind == kind {
			all++
			if r.ok() {
				ok++
			}
		}
	}
	return ok, all
}

func (ph *phase) failed() int {
	n := 0
	for _, r := range ph.results {
		if !r.ok() {
			n++
		}
	}
	return n
}

// committedBytes is the input XML of the adds that got a version.
func (ph *phase) committedBytes() int64 {
	var n int64
	for _, r := range ph.results {
		if r.ok() && r.req.Kind == opAdd {
			n += int64(len(r.req.Body))
		}
	}
	return n
}

// windowed returns, for each load window, the geometric mean over the
// endpoints the window drove of each endpoint's median latency over its
// completed requests. Every endpoint counts alike, however its latency
// compares with the others': a slowdown of any one moves the figure. With
// one endpoint (ingest) it is that endpoint's median.
func (ph *phase) windowed() []float64 {
	var out []float64
	for _, w := range ph.windows {
		var lat [len(opNames)][]float64
		for _, r := range w {
			if r.ok() {
				lat[r.req.Kind] = append(lat[r.req.Kind], float64(r.latency())/1e6)
			}
		}
		var meds []float64
		for _, xs := range lat {
			if len(xs) > 0 {
				meds = append(meds, median(xs))
			}
		}
		out = append(out, geomean(meds))
	}
	return out
}

// endToEnd is the result line's metrics with tracing off: the set-up
// time; the median over the load windows of each window's latency
// figure (see windowed); the §5 space ratio; and peak memory of the load.
// Every workload reports the same names. The per-endpoint percentiles,
// the tails and the throughputs are in the report lines: tails spread too
// far from run to run on a small shared machine to gate on, an open loop
// completes its offered rate, and the single closed-loop ingest client
// completes 1/latency adds per second. Taking medians over windows keeps
// a burst of noise from other tenants of the machine that hits one window
// out of the figures.
func (ph *phase) endToEnd(setupS float64) map[string]metric {
	return map[string]metric{
		"setup_s":            {setupS, "s"},
		"p50_ms":             {median(ph.windowed()), "ms"},
		"stored_bytes_ratio": {ratio(float64(ph.storedBytes), float64(ph.lastBytes)), "ratio"},
		"peak_rss_mb":        {ph.peakRSS, "MB"},
	}
}

// named is one line of the human-readable report.
type named struct {
	name  string
	value float64
	unit  string
	note  string
}

// namedMetrics lists the per-endpoint metrics by name, omitting the
// endpoints the workload does not drive. Every percentile carries its
// sample count.
func (ph *phase) namedMetrics(p *plan, setupS float64) []named {
	win := ph.window.Seconds()
	out := []named{{"setup_s", setupS, "s", fmt.Sprintf("median of %d", setups)}}
	pct := func(name string, kind opKind, q float64) {
		v := percentile(ph.latencies(kind), q)
		out = append(out, named{name, v.Value, "ms", v.describe()})
	}
	if ok, all := ph.count(opAdd); all > 0 {
		out = append(out,
			named{"add_docs_per_s", float64(ok) / win, "1/s", ""},
			named{"add_mb_per_s", float64(ph.committedBytes()) / 1e6 / win, "MB/s", ""})
		pct("add_p50_ms", opAdd, 0.5)
		pct("add_p90_ms", opAdd, 0.9)
	}
	reads := 0
	for _, k := range []struct {
		kind opKind
		tail float64
	}{{opVersion, 0.9}, {opHistory, 0.99}, {opSelect, 0.99}} {
		ok, all := ph.count(k.kind)
		if all == 0 {
			continue
		}
		reads += ok
		pct(k.kind.String()+"_p50_ms", k.kind, 0.5)
		pct(fmt.Sprintf("%s_p%d_ms", k.kind, int(k.tail*100)), k.kind, k.tail)
	}
	if reads > 0 {
		out = append(out, named{"read_per_s", float64(reads) / win, "1/s", ""})
	}
	if p.reqs != nil {
		var late []float64
		for _, r := range ph.results {
			late = append(late, float64(r.late())/1e6)
		}
		v := percentile(late, 0.99)
		out = append(out, named{"loadgen.late_p99_ms", v.Value, "ms", v.describe()})
	}
	p50s := ph.windowed()
	out = append(out, named{"load_windows", float64(len(p50s)), "count",
		fmt.Sprintf("p50_ms %.4g per window", p50s)})
	out = append(out,
		named{"failed_frac", ratio(float64(ph.failed()), float64(len(ph.results))), "ratio",
			fmt.Sprintf("%d of %d", ph.failed(), len(ph.results))},
		named{"stored_bytes_ratio", ratio(float64(ph.storedBytes), float64(ph.lastBytes)), "ratio",
			fmt.Sprintf("%d / %d bytes", ph.storedBytes, ph.lastBytes)})
	if ph.peakRSS > 0 {
		out = append(out, named{"peak_rss_mb", ph.peakRSS, "MB", ""})
	}
	return out
}

// report prints the human-readable lines of one phase.
func report(p *plan, phaseName string, lines []named) {
	for _, l := range lines {
		fmt.Printf("%s %s %-22s %14.4f %-5s %s\n", p.name, phaseName, l.name, l.value, l.unit, l.note)
	}
}

// reportFailures prints the first few failed requests to standard error.
func reportFailures(ph *phase) {
	shown := 0
	for _, r := range ph.results {
		if !r.ok() && shown < 5 {
			fmt.Fprintf(os.Stderr, "perfbench: request %d (%s) failed: %v\n", r.req.ID, r.req.Kind, r.Err)
			shown++
		}
	}
}
