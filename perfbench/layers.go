package main

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"xarch"
	"xarch/internal/qlang"
)

// layerMetrics computes the traced run's per-layer metrics from its
// spans, the Store decorator's per-batch records, the server and store
// counters and the post-run probes, plus the tracing overhead against
// the untraced run. A layer the workload does not exercise reports 0.
func layerMetrics(p *plan, plain, tp *phase, tr *tracer) map[string]metric {
	spans, batches := tr.snapshot()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	handlerOf := map[int64]span{} // request id -> handler span
	children := map[int64][]span{}
	byName := map[string][]span{}
	var fsSpans []span
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
		switch {
		case strings.HasPrefix(s.Name, "http.") && s.Req != 0:
			handlerOf[s.Req] = s
		case strings.HasPrefix(s.Name, "fs."):
			fsSpans = append(fsSpans, s)
		}
	}
	durs := func(name string) []float64 {
		var xs []float64
		for _, s := range byName[name] {
			xs = append(xs, ms(s.dur()))
		}
		return xs
	}

	// loadgen
	var late, httpGap []float64
	reads := 0
	for _, r := range tp.results {
		late = append(late, float64(r.late())/1e6)
		if !r.ok() {
			continue
		}
		if r.req.Kind != opAdd {
			reads++
		}
		if h, ok := handlerOf[r.req.ID]; ok {
			httpGap = append(httpGap, float64(r.End-r.Sent)/1e6-ms(h.dur()))
		}
	}
	if p.reqs != nil {
		put("loadgen.late_p99_ms", percentile(late, 0.99).Value, "ms")
	} else {
		put("loadgen.late_p99_ms", 0, "ms")
	}
	put("loadgen.http_ms", median(httpGap), "ms")

	// server: self time of each handler, and the wait of each add for
	// the batch that committed it.
	addBatches := append([]span(nil), byName["store.AddBatch"]...)
	sort.Slice(addBatches, func(i, j int) bool { return addBatches[i].End < addBatches[j].End })
	adds := byName["http.add"]
	commit := commitBatch(adds, addBatches)
	var waits []float64
	selfAdd := make([]float64, 0, len(adds))
	for k, h := range adds {
		kids := children[h.ID]
		if b := commit[k]; b >= 0 {
			kids = append(kids, addBatches[b])
			waits = append(waits, ms(addBatches[b].Start-h.Start))
		}
		selfAdd = append(selfAdd, ms(selfTime(h, kids)))
	}
	put("server.self_ms.add", median(selfAdd), "ms")
	for _, ep := range []string{"version", "history", "query"} {
		var self []float64
		for _, h := range byName["http."+ep] {
			self = append(self, ms(selfTime(h, children[h.ID])))
		}
		put("server.self_ms."+ep, median(self), "ms")
	}
	put("server.add_wait_p50_ms", median(waits), "ms")
	put("server.add_wait_p90_ms", percentile(waits, 0.9).Value, "ms")
	put("server.batch_docs", ratio(float64(tp.srv.BatchedDocs), float64(tp.srv.Batches)), "docs")
	_, addsTried := tp.count(opAdd)
	put("server.rejected_frac", ratio(float64(tp.srv.AddsRejected), float64(addsTried)), "ratio")

	// xarch: Store call spans.
	put("xarch.add_batch_ms", median(durs("store.AddBatch")), "ms")
	put("xarch.write_version_ms", median(durs("store.WriteVersion")), "ms")
	put("xarch.history_ms", median(durs("store.History")), "ms")
	put("xarch.content_history_ms", median(durs("store.ContentHistory")), "ms")
	put("xarch.select_ms", median(durs("store.Select")), "ms")
	put("xarch.versions_p99_ms", percentile(durs("store.Versions"), 0.99).Value, "ms")
	var readSpans []span
	for _, name := range []string{"Versions", "WriteVersion", "History", "ContentHistory", "Select"} {
		readSpans = append(readSpans, byName["store."+name]...)
	}
	put("xarch.read_blocked_frac", ratio(float64(overlapping(readSpans, addBatches)), float64(len(readSpans))), "ratio")
	committedAdds := float64(tp.srv.AddsCommitted)
	put("xarch.commits_per_add", ratio(float64(tp.commits), committedAdds), "count")

	// extmem: counters read around each AddBatch and by the probes.
	var bytesRead int64
	var rewritten, reused, runs float64
	for _, b := range batches {
		bytesRead += b.BytesRead
		rewritten += float64(b.Rewritten)
		reused += float64(b.Reused)
		runs += float64(b.SortRuns)
	}
	nb := float64(len(batches))
	put("extmem.bytes_read_per_add", ratio(float64(bytesRead), committedAdds), "B")
	put("extmem.segments_rewritten_per_add", ratio(rewritten, nb), "count")
	put("extmem.segments_reused_per_add", ratio(reused, nb), "count")
	put("extmem.sort_runs", ratio(runs, nb), "count")
	for _, k := range []string{"version", "history", "select"} {
		put("extmem.bytes_read."+k, tp.probes[k], "B")
	}
	put("extmem.segments", float64(tp.storage.Segments), "count")
	put("extmem.keydir_bytes", float64(tp.storage.DirectoryBytes), "B")

	// fsio: per-class byte and call counts, syncs and time under adds.
	inputBytes := float64(tp.committedBytes())
	written := map[string]int64{}
	creates := map[string]int{}
	var segRead int64
	var syncs, syncDirs, unattributed int
	var syncNs int64
	for _, s := range fsSpans {
		op := strings.TrimPrefix(s.Name, "fs.")
		switch op {
		case "Write", "WriteAt":
			written[s.Class] += s.Bytes
		case "WriteFile":
			written[s.Class] += s.Bytes
			creates[s.Class]++
		case "Create":
			creates[s.Class]++
		case "Read", "ReadAt", "ReadFile":
			if s.Class == "segment" {
				segRead += s.Bytes
			}
		case "Sync":
			syncs++
			syncNs += s.dur()
		case "SyncDir":
			syncDirs++
			syncNs += s.dur()
		}
		if s.Unattributed {
			unattributed++
		}
	}
	for _, c := range fileClasses {
		put("fsio."+c+".write_bytes_per_input_byte", ratio(float64(written[c]), inputBytes), "ratio")
		put("fsio."+c+".creates_per_add", ratio(float64(creates[c]), committedAdds), "count")
	}
	put("fsio.syncs_per_add", ratio(float64(syncs), committedAdds), "count")
	put("fsio.syncdirs_per_add", ratio(float64(syncDirs), committedAdds), "count")
	put("fsio.sync_ms_per_add", ratio(ms(syncNs), committedAdds), "ms")
	put("fsio.segment.read_bytes_per_op", ratio(float64(segRead), float64(reads)), "B")
	var fsUnderAdds int64
	for _, b := range addBatches {
		var kids []span
		for _, c := range children[b.ID] {
			if strings.HasPrefix(c.Name, "fs.") {
				kids = append(kids, c)
			}
		}
		fsUnderAdds += covered(b.Start, b.End, kids)
	}
	put("fsio.self_ms_per_add", ratio(ms(fsUnderAdds), committedAdds), "ms")
	put("fsio.unattributed_frac", ratio(float64(unattributed), float64(len(fsSpans))), "ratio")

	// Serial CPU probes on the run's own bodies and expressions.
	bodies, exprs := runInputs(p, tp)
	parseMs, validateMs := probeDocs(p, bodies)
	put("xmltree.parse_ms_per_mb", parseMs, "ms/MB")
	put("keys.validate_ms_per_mb", validateMs, "ms/MB")
	put("qlang.parse_us", probeQueries(exprs), "us")

	// Tracing overhead: traced minus untraced medians.
	overhead := func(kind opKind) float64 {
		a, b := tp.latencies(kind), plain.latencies(kind)
		if len(a) == 0 || len(b) == 0 {
			return 0
		}
		return median(a) - median(b)
	}
	put("trace.overhead.add_p50_ms", overhead(opAdd), "ms")
	put("trace.overhead.history_p50_ms", overhead(opHistory), "ms")

	if p.episode != nil {
		// The parts of an ingest add, against its traced median latency.
		parts := median(waits) + median(durs("store.AddBatch")) + median(httpGap)
		fmt.Printf("%s traced add_p50_ms %.4f = wait %.4f + add_batch %.4f + http %.4f + residual %.4f (tracing overhead %.4f)\n",
			p.name, median(tp.latencies(opAdd)), median(waits), median(durs("store.AddBatch")), median(httpGap),
			median(tp.latencies(opAdd))-parts, overhead(opAdd))
	}
	return m
}

// overlapping counts the spans of reads that overlap any span of batches.
func overlapping(reads, batches []span) int {
	n := 0
	for _, r := range reads {
		for _, b := range batches {
			if r.Start < b.End && b.Start < r.End {
				n++
				break
			}
		}
	}
	return n
}

// runInputs returns the documents the run archived through the server
// (the set-up documents when it posted none) and the select expressions
// it sent, plus the store probe's expression.
func runInputs(p *plan, ph *phase) ([][]byte, []string) {
	var bodies [][]byte
	exprs := []string{p.probeExpr}
	seen := map[string]bool{p.probeExpr: true}
	for _, r := range ph.results {
		switch r.req.Kind {
		case opAdd:
			bodies = append(bodies, r.req.Body)
		case opSelect:
			if r.Expr != "" && !seen[r.Expr] {
				seen[r.Expr] = true
				exprs = append(exprs, r.Expr)
			}
		}
	}
	if p.episode != nil {
		bodies = p.episode // every episode posts the same releases
	}
	if len(bodies) == 0 {
		bodies = p.setupDocs
	}
	return bodies, exprs
}

// probeBudget is how long each serial CPU probe repeats its inputs.
const probeBudget = 300 * time.Millisecond

// probeDocs times xarch.ParseXML and KeySpec.CheckDocumentErr over the
// bodies, repeating them until probeBudget has passed, in ms per input MB.
func probeDocs(p *plan, bodies [][]byte) (parseMsPerMB, validateMsPerMB float64) {
	var parseNs, validateNs time.Duration
	var mb float64
	for start := time.Now(); time.Since(start) < probeBudget; {
		for _, b := range bodies {
			t0 := time.Now()
			doc, err := xarch.ParseXML(bytes.NewReader(b))
			t1 := time.Now()
			if err != nil {
				return 0, 0
			}
			_ = p.spec.CheckDocumentErr(doc) // the timing is the point; the server already validated
			validateNs += time.Since(t1)
			parseNs += t1.Sub(t0)
			mb += float64(len(b)) / 1e6
		}
	}
	return float64(parseNs) / 1e6 / mb, float64(validateNs) / 1e6 / mb
}

// probeQueries times qlang.Parse over the expressions, repeating them
// until probeBudget has passed, in µs per parse.
func probeQueries(exprs []string) float64 {
	n := 0
	start := time.Now()
	for time.Since(start) < probeBudget {
		for _, e := range exprs {
			if _, err := qlang.Parse(e); err != nil {
				return 0
			}
			n++
		}
	}
	return float64(time.Since(start)) / 1e3 / float64(n)
}
