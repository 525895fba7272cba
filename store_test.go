package xarch

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/xmltree"
)

func mustSpec(t *testing.T) *KeySpec {
	t.Helper()
	spec, err := ParseKeySpec(quickSpec)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func deptVersion(n int) string {
	// Version n holds departments d1..dn, so every Add changes history.
	var b strings.Builder
	b.WriteString("<db>")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "<dept><name>d%d</name><emp><fn>F%d</fn><ln>L%d</ln><sal>%dK</sal></emp></dept>", i, i, i, 50+i)
	}
	b.WriteString("</db>")
	return b.String()
}

func addString(t *testing.T, s Store, src string) {
	t.Helper()
	if err := s.AddReader(strings.NewReader(src)); err != nil {
		t.Fatal(err)
	}
}

// bothEngines runs a subtest against a fresh store of each engine.
func bothEngines(t *testing.T, fn func(t *testing.T, s Store)) {
	t.Run("mem", func(t *testing.T) {
		s := NewStore(mustSpec(t))
		defer s.Close()
		fn(t, s)
	})
	t.Run("ext", func(t *testing.T) {
		s, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		fn(t, s)
	})
}

// TestEngineParity archives the same versions into both engines and
// checks that every query answers identically — byte-identically where
// the answer is serialized: both engines order keyed siblings by the same
// canonical key order, so the external engine's streaming scans must
// reproduce the in-memory engine's output exactly.
func TestEngineParity(t *testing.T) {
	spec := mustSpec(t)
	mem := NewStore(spec)
	ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	stores := []Store{mem, ext}
	for n := 1; n <= 4; n++ {
		for _, s := range stores {
			addString(t, s, deptVersion(n))
		}
	}
	if mem.Versions() != ext.Versions() {
		t.Fatalf("versions: mem %d, ext %d", mem.Versions(), ext.Versions())
	}
	for n := 1; n <= 4; n++ {
		mv, err := mem.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := ext.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		if mv.IndentedXML() != ev.IndentedXML() {
			t.Errorf("version %d trees differ across engines:\n%s\nvs\n%s", n, mv.IndentedXML(), ev.IndentedXML())
		}
		var mw, ew strings.Builder
		if err := mem.WriteVersion(n, &mw); err != nil {
			t.Fatal(err)
		}
		if err := ext.WriteVersion(n, &ew); err != nil {
			t.Fatal(err)
		}
		if mw.String() != ew.String() {
			t.Errorf("WriteVersion(%d) bytes differ across engines", n)
		}
		if ew.String() != ev.IndentedXML() {
			t.Errorf("ext WriteVersion(%d) disagrees with ext Version", n)
		}
	}
	for _, sel := range []string{"/db/dept[name=d1]", "/db/dept[name=d3]", "/db/dept[name=d2]/emp[fn=F2,ln=L2]"} {
		mh, err := mem.History(sel)
		if err != nil {
			t.Fatal(err)
		}
		eh, err := ext.History(sel)
		if err != nil {
			t.Fatal(err)
		}
		if !mh.Equal(eh) {
			t.Errorf("history %s: mem %q, ext %q", sel, mh, eh)
		}
	}
	// Content history on frontier elements (sal is a frontier node).
	for _, sel := range []string{"/db/dept[name=d1]/emp[fn=F1,ln=L1]/sal", "/db/dept[name=d2]/emp[fn=F2,ln=L2]"} {
		mc, merr := mem.ContentHistory(sel)
		ec, eerr := ext.ContentHistory(sel)
		if (merr == nil) != (eerr == nil) {
			t.Fatalf("ContentHistory(%s): mem err %v, ext err %v", sel, merr, eerr)
		}
		if fmt.Sprint(mc) != fmt.Sprint(ec) {
			t.Errorf("ContentHistory(%s): mem %v, ext %v", sel, mc, ec)
		}
	}
	// Full stats equality, including the serialized archive size.
	ms, err := mem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	es, err := ext.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ms != es {
		t.Errorf("stats differ:\nmem %+v\next %+v", ms, es)
	}
	// Snapshots are byte-identical: same archive, same serialization.
	var msnap, esnap strings.Builder
	if err := mem.Snapshot(&msnap); err != nil {
		t.Fatal(err)
	}
	if err := ext.Snapshot(&esnap); err != nil {
		t.Fatal(err)
	}
	if msnap.String() != esnap.String() {
		t.Errorf("snapshots differ across engines (%d vs %d bytes)", msnap.Len(), esnap.Len())
	}
}

// TestEngineParityHandBuilt archives hand-built documents whose text no
// XML round trip preserves — carriage returns, a control character,
// adjacent text children, whitespace-only text — and requires the
// external engine to archive exactly the tree the in-memory engine sees.
func TestEngineParityHandBuilt(t *testing.T) {
	elem, text := xmltree.Elem, xmltree.TextNode
	doc := func(sal ...*Document) *Document {
		return elem("db",
			elem("dept", xmltree.ElemText("name", "d1"),
				elem("emp", xmltree.ElemText("fn", "F1"), xmltree.ElemText("ln", "L1"),
					elem("sal", sal...))))
	}
	cases := []struct {
		name string
		doc  *Document
	}{
		{"cr", doc(text("a\rb"))},
		{"crlf", doc(text("a\r\nb"))},
		{"control", doc(text("a\x01b"))},
		{"adjacent", doc(text("90"), text("K"))},
		{"whitespace", doc(text("90K"), text(" \n\t"))},
		{"whitespace-only", doc(text("  "))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewStore(mustSpec(t))
			ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
			if err != nil {
				t.Fatal(err)
			}
			defer ext.Close()
			// The second, identical version must match the first in both
			// engines: no new content group.
			for _, s := range []Store{mem, ext} {
				for i := 0; i < 2; i++ {
					if err := s.Add(tc.doc); err != nil {
						t.Fatalf("%T.Add: %v", s, err)
					}
				}
			}
			for n := 1; n <= 2; n++ {
				mv, err := mem.Version(n)
				if err != nil {
					t.Fatal(err)
				}
				ev, err := ext.Version(n)
				if err != nil {
					t.Fatal(err)
				}
				if mc, ec := xmltree.Canonical(mv), xmltree.Canonical(ev); mc != ec {
					t.Errorf("Version(%d) differs across engines:\nmem %q\next %q", n, mc, ec)
				}
				var mw, ew strings.Builder
				if err := mem.WriteVersion(n, &mw); err != nil {
					t.Fatal(err)
				}
				if err := ext.WriteVersion(n, &ew); err != nil {
					t.Fatal(err)
				}
				if mw.String() != ew.String() {
					t.Errorf("WriteVersion(%d) differs across engines:\nmem %q\next %q", n, mw.String(), ew.String())
				}
			}
			ms, err := mem.Stats()
			if err != nil {
				t.Fatal(err)
			}
			es, err := ext.Stats()
			if err != nil {
				t.Fatal(err)
			}
			if ms != es {
				t.Errorf("stats differ:\nmem %+v\next %+v", ms, es)
			}
		})
	}
}

// TestExtStoreFrontEndsSameBytes archives the same releases through both
// decomposer front ends and requires every archive file to come out
// byte-identical. AddReader with validation off streams the XML tokens
// and always takes the external sort (token, key and run files); Add
// walks the parsed tree, which the in-memory sort takes when the tree
// fits the memory budget. The spill rows set the tree side's budget
// below a document's token count, so both sides take the external path.
func TestExtStoreFrontEndsSameBytes(t *testing.T) {
	t.Run("omim", func(t *testing.T) {
		g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 81, Records: 60,
			DeleteFrac: 0.05, InsertFrac: 0.05, ModifyFrac: 0.05})
		var texts []string
		for i := 0; i < 4; i++ {
			texts = append(texts, g.Next().IndentedXML())
		}
		frontEndsSameBytes(t, datagen.OMIMSpec(), texts)
	})
	t.Run("xmark", func(t *testing.T) {
		g := datagen.NewXMark(datagen.XMarkConfig{Seed: 41, Items: 25, People: 15,
			Categories: 8, OpenAucts: 10, ClosedAucts: 6})
		doc := g.Document()
		texts := []string{doc.IndentedXML(), g.RandomChanges(doc, 0.1).IndentedXML(),
			g.KeyModChanges(doc, 0.1).IndentedXML()}
		frontEndsSameBytes(t, datagen.XMarkSpec(), texts)
	})
	// Markup the two front ends must read alike: attributes in any order,
	// namespace declarations and prefixes, comments and CDATA splitting
	// text, entity references and inter-element whitespace.
	t.Run("markup", func(t *testing.T) {
		texts := []string{deptVersion(2), `<db xmlns="urn:db">
  <dept><name>d1</name>
    <emp><fn>F1</fn><ln>L1</ln>
      <sal z="2" a="1" xmlns:x="urn:x" x:cur="USD" y:raw="r">9<!-- c -->0<![CDATA[K&]]> &amp; <b k="v">bonus</b></sal>
    </emp>
  </dept>
</db>`, deptVersion(3)}
		frontEndsSameBytes(t, mustSpec(t), texts)
	})
}

// frontEndsSameBytes archives texts through the stream front end one by
// one and, parsed, through the tree front end, then compares the two
// archive directories. It runs once per row: the tree side in memory or
// spilling, one shard or four, compression off or on, one document per
// AddBatch or three.
func frontEndsSameBytes(t *testing.T, spec *KeySpec, texts []string) {
	rows := []struct {
		name       string
		treeBudget int // 0: the default, which every document here fits
		shards     int
		compress   bool
		batch      int
	}{
		{"in-memory/shards4", 0, 4, false, 1},
		{"in-memory/shards1-compressed-batch3", 0, 1, true, 3},
		{"spill/shards4", 16, 4, false, 1},
		{"spill/shards1-compressed-batch3", 16, 1, true, 3},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := []Option{WithSegmentTargetSize(4 << 10), WithIngestShards(row.shards),
				WithSegmentCompression(row.compress)}
			treeOpts := opts
			if row.treeBudget > 0 {
				treeOpts = append(treeOpts[:len(treeOpts):len(treeOpts)], WithMemoryBudget(row.treeBudget))
			}
			streamDir, treeDir := t.TempDir(), t.TempDir()
			stream, err := OpenStore(streamDir, spec, append(opts, WithMemoryBudget(1<<10), WithValidation(false))...)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := OpenStore(treeDir, spec, treeOpts...)
			if err != nil {
				t.Fatal(err)
			}
			for _, text := range texts {
				if err := stream.AddReader(strings.NewReader(text)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < len(texts); i += row.batch {
				var docs []*Document
				for _, text := range texts[i:min(i+row.batch, len(texts))] {
					doc, err := ParseXMLString(text)
					if err != nil {
						t.Fatal(err)
					}
					docs = append(docs, doc)
				}
				res, err := tree.AddBatch(docs)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range res {
					if r.Err != nil {
						t.Fatal(r.Err)
					}
				}
			}
			for _, s := range []*ExtStore{stream, tree} {
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			}
			compareArchiveDirs(t, streamDir, treeDir)
		})
	}
}

// compareArchiveDirs requires the stream side's and the tree side's
// archive directories to hold the same files, byte for byte.
func compareArchiveDirs(t *testing.T, streamDir, treeDir string) {
	t.Helper()
	files := func(dir string) map[string][]byte {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, e := range ents {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
		return out
	}
	sf, tf := files(streamDir), files(treeDir)
	segs := 0
	for name, b := range sf {
		if strings.HasPrefix(name, "seg-") {
			segs++
		}
		if tb, ok := tf[name]; !ok {
			t.Errorf("%s: written by the stream front end only", name)
		} else if !bytes.Equal(b, tb) {
			t.Errorf("%s differs across front ends (%d vs %d bytes)", name, len(b), len(tb))
		}
	}
	for name := range tf {
		if _, ok := sf[name]; !ok {
			t.Errorf("%s: written by the tree front end only", name)
		}
	}
	for _, name := range []string{"keydir.idx", "attr.idx", "dict.txt", "meta.txt"} {
		if _, ok := sf[name]; !ok {
			t.Errorf("%s missing from the archive", name)
		}
	}
	if segs == 0 {
		t.Error("archive has no segment files")
	}
}

// TestEngineParityFormats pins byte-identical query output between the
// in-memory engine and an archive written by the retired format-1
// segment writer (internal/extmem/testdata/v1-dept, versions
// deptVersion(1..4)) once the transparent open-time upgrade has
// rewritten it to format-2 segments. Before the upgrade, fsck must
// verify the format-1 archive clean in place.
func TestEngineParityFormats(t *testing.T) {
	mem := NewStore(mustSpec(t))
	defer mem.Close()
	for n := 1; n <= 4; n++ {
		addString(t, mem, deptVersion(n))
	}
	dir := t.TempDir()
	const fixture = "internal/extmem/testdata/v1-dept"
	ents, err := os.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(fixture, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	report, err := CheckStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Fatalf("fsck of the format-1 fixture: %+v", report.Problems())
	}

	sameAsMem := func(t *testing.T, s Store) {
		t.Helper()
		if mem.Versions() != s.Versions() {
			t.Fatalf("versions: mem %d, got %d", mem.Versions(), s.Versions())
		}
		for n := 1; n <= 4; n++ {
			var mw, sw strings.Builder
			if err := mem.WriteVersion(n, &mw); err != nil {
				t.Fatal(err)
			}
			if err := s.WriteVersion(n, &sw); err != nil {
				t.Fatal(err)
			}
			if mw.String() != sw.String() {
				t.Errorf("WriteVersion(%d) bytes differ from mem engine", n)
			}
		}
		for _, sel := range []string{"/db/dept[name=d1]", "/db/dept[name=d2]/emp[fn=F2,ln=L2]"} {
			mh, err := mem.History(sel)
			if err != nil {
				t.Fatal(err)
			}
			sh, err := s.History(sel)
			if err != nil {
				t.Fatal(err)
			}
			if !mh.Equal(sh) {
				t.Errorf("history %s: mem %q, got %q", sel, mh, sh)
			}
			mc, err := mem.ContentHistory(sel)
			if err != nil {
				t.Fatal(err)
			}
			sc, err := s.ContentHistory(sel)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(mc) != fmt.Sprint(sc) {
				t.Errorf("ContentHistory(%s): mem %v, got %v", sel, mc, sc)
			}
		}
		ms, err := mem.Stats()
		if err != nil {
			t.Fatal(err)
		}
		ss, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if ms != ss {
			t.Errorf("stats differ:\nmem %+v\ngot %+v", ms, ss)
		}
		var msnap, ssnap strings.Builder
		if err := mem.Snapshot(&msnap); err != nil {
			t.Fatal(err)
		}
		if err := s.Snapshot(&ssnap); err != nil {
			t.Fatal(err)
		}
		if msnap.String() != ssnap.String() {
			t.Errorf("snapshots differ (%d vs %d bytes)", msnap.Len(), ssnap.Len())
		}
	}

	// Open upgrades in place; answers must match the in-memory engine.
	v2, err := OpenStore(dir, mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer v2.Close()
	segs, err := v2.Segments()
	if err != nil {
		t.Fatal(err)
	}
	for _, sg := range segs {
		if sg.Format != 2 {
			t.Fatalf("post-migration segment %s has format %d, want 2", sg.File, sg.Format)
		}
	}
	sameAsMem(t, v2)
	if n, err := v2.CompressedSize(); err != nil || n <= 0 {
		t.Errorf("CompressedSize on migrated store: %d, %v", n, err)
	}
}

// TestStreamingQueryAfterAdd pins the ingest/query interleaving contract
// on the streaming path: a query issued immediately after every Add sees
// the new version, byte-identical to the in-memory engine, with no view
// rebuild in between.
func TestStreamingQueryAfterAdd(t *testing.T) {
	mem := NewStore(mustSpec(t))
	defer mem.Close()
	ext, err := OpenStore(t.TempDir(), mustSpec(t), WithMemoryBudget(64))
	if err != nil {
		t.Fatal(err)
	}
	defer ext.Close()
	for n := 1; n <= 5; n++ {
		addString(t, mem, deptVersion(n))
		addString(t, ext, deptVersion(n))
		var mw, ew strings.Builder
		if err := mem.WriteVersion(n, &mw); err != nil {
			t.Fatal(err)
		}
		if err := ext.WriteVersion(n, &ew); err != nil {
			t.Fatalf("streaming WriteVersion right after Add %d: %v", n, err)
		}
		if mw.String() != ew.String() {
			t.Fatalf("version %d bytes differ right after Add", n)
		}
		sel := fmt.Sprintf("/db/dept[name=d%d]", n)
		h, err := ext.History(sel)
		if err != nil {
			t.Fatalf("History(%s) right after Add: %v", sel, err)
		}
		if h.String() != fmt.Sprint(n) {
			t.Fatalf("History(%s) = %q right after Add, want %d", sel, h, n)
		}
	}
}

// TestIndexFreshness checks that a query issued right after an Add sees
// the new version without any manual index rebuild — the indexes belong
// to the store.
func TestIndexFreshness(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		for n := 1; n <= 3; n++ {
			addString(t, s, deptVersion(n))
			// History of the department introduced by this very Add.
			sel := fmt.Sprintf("/db/dept[name=d%d]", n)
			h, err := s.History(sel)
			if err != nil {
				t.Fatalf("after add %d: %v", n, err)
			}
			want := fmt.Sprintf("%d", n)
			if h.String() != want {
				t.Errorf("after add %d: history %s = %q, want %q", n, sel, h, want)
			}
			// Retrieval of the version added a moment ago.
			v, err := s.Version(n)
			if err != nil {
				t.Fatalf("after add %d: %v", n, err)
			}
			if got := len(v.ChildrenNamed("dept")); got != n {
				t.Errorf("after add %d: version has %d departments, want %d", n, got, n)
			}
		}
	})
}

// TestConcurrentReaders hammers Version/History/Stats/Snapshot from many
// goroutines while a writer keeps adding versions. Run under -race this
// is the store's concurrency contract.
func TestConcurrentReaders(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		const (
			preload = 3
			extra   = 4
			readers = 8
		)
		for n := 1; n <= preload; n++ {
			addString(t, s, deptVersion(n))
		}
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					n := 1 + i%preload
					v, err := s.Version(n)
					if err != nil {
						t.Errorf("reader %d: Version(%d): %v", r, n, err)
						return
					}
					if len(v.ChildrenNamed("dept")) != n {
						t.Errorf("reader %d: version %d wrong shape", r, n)
						return
					}
					if err := s.WriteVersion(n, io.Discard); err != nil {
						t.Errorf("reader %d: WriteVersion(%d): %v", r, n, err)
						return
					}
					if _, err := s.History("/db/dept[name=d1]"); err != nil {
						t.Errorf("reader %d: History: %v", r, err)
						return
					}
					if _, err := s.ContentHistory("/db/dept[name=d1]/emp[fn=F1,ln=L1]/sal"); err != nil {
						t.Errorf("reader %d: ContentHistory: %v", r, err)
						return
					}
					if _, err := s.Stats(); err != nil {
						t.Errorf("reader %d: Stats: %v", r, err)
						return
					}
					if err := s.Snapshot(io.Discard); err != nil {
						t.Errorf("reader %d: Snapshot: %v", r, err)
						return
					}
				}
			}(r)
		}
		for n := preload + 1; n <= preload+extra; n++ {
			addString(t, s, deptVersion(n))
		}
		close(stop)
		wg.Wait()
		// After the dust settles every version is visible.
		for n := 1; n <= preload+extra; n++ {
			v, err := s.Version(n)
			if err != nil {
				t.Fatal(err)
			}
			if len(v.ChildrenNamed("dept")) != n {
				t.Errorf("final check: version %d wrong shape", n)
			}
		}
	})
}

// TestStructuredErrors checks that every failure mode is errors.Is /
// errors.As dispatchable on both engines.
func TestStructuredErrors(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, deptVersion(2))

		if _, err := s.Version(99); !errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("Version(99) = %v, want ErrNoSuchVersion", err)
		}
		if err := s.WriteVersion(0, io.Discard); !errors.Is(err, ErrNoSuchVersion) {
			t.Errorf("WriteVersion(0) = %v, want ErrNoSuchVersion", err)
		}
		if _, err := s.History("/db/dept[name=nosuch]"); !errors.Is(err, ErrNoSuchElement) {
			t.Errorf("History(nosuch) = %v, want ErrNoSuchElement", err)
		}
		if _, err := s.History("/db/dept"); !errors.Is(err, ErrAmbiguousSelector) {
			t.Errorf("History(ambiguous) = %v, want ErrAmbiguousSelector", err)
		}
		if _, err := s.History("not-a-selector"); !errors.Is(err, ErrBadSelector) {
			t.Errorf("History(garbage) = %v, want ErrBadSelector", err)
		}

		// Key violations carry every individual violation.
		bad, err := ParseXMLString(`<db><dept><name>x</name></dept><dept><name>x</name></dept><stray/></db>`)
		if err != nil {
			t.Fatal(err)
		}
		err = s.Add(bad)
		if err == nil {
			t.Fatal("Add of invalid document succeeded")
		}
		var kv *KeyViolationError
		if !errors.As(err, &kv) {
			t.Fatalf("Add error %v does not carry *KeyViolationError", err)
		}
		if len(kv.Violations) < 2 {
			t.Errorf("expected duplicate-key and unkeyed-element violations, got %v", kv.Violations)
		}
		// AddReader enforces the same validation on both engines.
		err = s.AddReader(strings.NewReader(bad.XML()))
		if !errors.As(err, &kv) {
			t.Errorf("AddReader error %v does not carry *KeyViolationError", err)
		}
		// The store is unchanged by a rejected Add.
		if s.Versions() != 1 {
			t.Errorf("rejected Add changed version count to %d", s.Versions())
		}

		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(nil); !errors.Is(err, ErrClosed) {
			t.Errorf("Add after Close = %v, want ErrClosed", err)
		}
		// Even an invalid document reports ErrClosed, not a validation
		// error: the lifecycle check comes first.
		if err := s.Add(bad); !errors.Is(err, ErrClosed) {
			t.Errorf("Add(bad) after Close = %v, want ErrClosed", err)
		}
		if _, err := s.History("/db"); !errors.Is(err, ErrClosed) {
			t.Errorf("History after Close = %v, want ErrClosed", err)
		}
	})
}

// TestValidateDocumentStructured checks the standalone validator's error
// shape.
func TestValidateDocumentStructured(t *testing.T) {
	spec := mustSpec(t)
	ok, err := ParseXMLString(deptVersion(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateDocument(spec, ok); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	bad, err := ParseXMLString(`<db><oops/></db>`)
	if err != nil {
		t.Fatal(err)
	}
	verr := ValidateDocument(spec, bad)
	var kv *KeyViolationError
	if !errors.As(verr, &kv) || len(kv.Violations) == 0 {
		t.Fatalf("ValidateDocument = %v, want *KeyViolationError with violations", verr)
	}
	if kv.Violations[0].Path == "" || kv.Violations[0].Msg == "" {
		t.Errorf("violation lacks structure: %+v", kv.Violations[0])
	}
}

// TestEmptyVersions checks nil-document Adds through the Store interface.
func TestEmptyVersions(t *testing.T) {
	bothEngines(t, func(t *testing.T, s Store) {
		addString(t, s, deptVersion(1))
		if err := s.Add(nil); err != nil {
			t.Fatal(err)
		}
		addString(t, s, deptVersion(2))
		if s.Versions() != 3 {
			t.Fatalf("versions = %d, want 3", s.Versions())
		}
		v2, err := s.Version(2)
		if err != nil {
			t.Fatal(err)
		}
		if v2 != nil {
			t.Errorf("empty version came back non-nil: %s", v2.XML())
		}
		var buf strings.Builder
		if err := s.WriteVersion(2, &buf); err != nil {
			t.Fatal(err)
		}
		if buf.Len() != 0 {
			t.Errorf("WriteVersion of empty version wrote %q", buf.String())
		}
		h, err := s.History("/db/dept[name=d1]")
		if err != nil {
			t.Fatal(err)
		}
		if h.String() != "1,3" {
			t.Errorf("history around empty version = %q, want 1,3", h)
		}
	})
}

// TestWithIndexesOff checks that the unindexed fallback answers the same
// queries.
func TestWithIndexesOff(t *testing.T) {
	spec := mustSpec(t)
	plain := NewStore(spec, WithIndexes(false))
	indexed := NewStore(mustSpec(t))
	for n := 1; n <= 3; n++ {
		addString(t, plain, deptVersion(n))
		addString(t, indexed, deptVersion(n))
	}
	for n := 1; n <= 3; n++ {
		pv, err := plain.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		iv, err := indexed.Version(n)
		if err != nil {
			t.Fatal(err)
		}
		same, err := plain.SameVersion(pv, iv)
		if err != nil {
			t.Fatal(err)
		}
		if !same {
			t.Errorf("version %d differs with indexes off", n)
		}
	}
	ph, err := plain.History("/db/dept[name=d2]")
	if err != nil {
		t.Fatal(err)
	}
	ih, err := indexed.History("/db/dept[name=d2]")
	if err != nil {
		t.Fatal(err)
	}
	if !ph.Equal(ih) {
		t.Errorf("history differs with indexes off: %q vs %q", ph, ih)
	}
	if p, n := plain.ProbeStats(); p != 0 || n != 0 {
		t.Errorf("ProbeStats with indexes off = %d/%d, want zeros", p, n)
	}
}

// TestStoreOptions exercises the remaining construction options through
// the public surface.
func TestStoreOptions(t *testing.T) {
	// WithValidation(false) accepts a document the validator rejects.
	lax := NewStore(mustSpec(t), WithValidation(false), WithFingerprint(Weak8))
	defer lax.Close()
	// Weak8 forces fingerprint collisions; archives must still be correct.
	for n := 1; n <= 3; n++ {
		addString(t, lax, deptVersion(n))
	}
	h, err := lax.History("/db/dept[name=d1]")
	if err != nil {
		t.Fatal(err)
	}
	if h.String() != "1-3" {
		t.Errorf("Weak8 history = %q, want 1-3", h)
	}

	// WithCompaction produces an equivalent, reloadable archive.
	weave := NewStore(mustSpec(t), WithCompaction(true))
	defer weave.Close()
	for n := 1; n <= 3; n++ {
		addString(t, weave, deptVersion(n))
	}
	var b strings.Builder
	if err := weave.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	back, err := LoadStore(strings.NewReader(b.String()), mustSpec(t), WithCompaction(true))
	if err != nil {
		t.Fatal(err)
	}
	v3, err := back.Version(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(v3.ChildrenNamed("dept")) != 3 {
		t.Errorf("compacted archive lost departments: %s", v3.XML())
	}
}
