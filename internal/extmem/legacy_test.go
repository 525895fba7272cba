package extmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/keys"
	"xarch/internal/qlang"
	"xarch/internal/xmltree"
)

// Tests of the open-time upgrade of legacy format-1 archives. The
// archiver no longer writes format 1, so the fixtures come from two
// sources: testdata/v1-dept, an archive written by the retired format-1
// writer, and downgradeToV1, which turns any archive these tests build
// into the layout that writer produced.

// deptSpec is the key specification testdata/v1-dept was written under.
const deptSpec = `
(/, (db, {}))
(/db, (dept, {name}))
(/db/dept, (emp, {fn, ln}))
(/db/dept/emp, (sal, {}))
(/db/dept/emp, (tel, {.}))
`

// downgradeToV1 rewrites the archive in dir, which must not be open,
// into the layout the format-1 writer produced: every segment becomes a
// format-1 file under its own name (v1 header, the inline token stream
// as payload, entry offsets recomputed), keydir.idx is re-encoded in
// key-directory format 1, and attr.idx, which format-1 archives
// predate, is removed.
func downgradeToV1(t *testing.T, dir string, spec *keys.Spec) {
	t.Helper()
	ar, err := Open(dir, spec, Config{NoAttrIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	d := ar.curDir
	files := map[string][]byte{}
	for _, r := range d.roots {
		for _, s := range r.segs {
			files[s.file] = downgradeSegment(t, ar, r, s)
		}
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, keydirFile), encodeKeyDirV1(d), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, attrIdxFile)); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

// downgradeSegment renders one segment as a format-1 file and rewrites
// its directory record (in place) to describe that file.
func downgradeSegment(t *testing.T, ar *Archiver, r *rootRecord, s *segmentRecord) []byte {
	t.Helper()
	ds := &dirStream{fs: ar.fs, dir: ar.dir, parts: []streamPart{{seg: s, n: s.payload}}, dicts: ar.segDicts, counter: &ar.bytesRead}
	defer ds.Close()
	tr := newDirTokenReader(ds)
	defer tr.release()
	var payload bytes.Buffer
	tw := newTokenWriter(&payload)
	defer tw.release()
	offset := func() int64 {
		if err := tw.flush(); err != nil {
			t.Fatal(err)
		}
		return int64(payload.Len())
	}
	ei, depth := 0, 0
	for {
		tok, ok := tr.take()
		if !ok {
			break
		}
		if !r.raw && depth == 0 {
			if tok.op != tokOpen || ei >= len(s.entries) {
				t.Fatalf("%s: entry %d does not start with an open token", s.file, ei)
			}
			s.entries[ei].offset = offset()
		}
		tw.writeToken(tok)
		switch tok.op {
		case tokOpen:
			depth++
		case tokClose:
			depth--
			if !r.raw && depth == 0 {
				s.entries[ei].size = offset() - s.entries[ei].offset
				ei++
			}
		}
	}
	if tr.err != nil {
		t.Fatalf("%s: %v", s.file, tr.err)
	}
	if !r.raw && ei != len(s.entries) {
		t.Fatalf("%s: payload holds %d entries, directory %d", s.file, ei, len(s.entries))
	}
	body := payload.Bytes()[:offset()]

	var w kdWriter
	w.b.WriteString(segMagic)
	w.b.WriteByte(segFormat)
	var flags byte
	if r.raw {
		flags |= segFlagRaw
	}
	w.b.WriteByte(flags)
	var fixed [12]byte
	binary.LittleEndian.PutUint64(fixed[:8], uint64(len(body)))
	binary.LittleEndian.PutUint32(fixed[8:], crc32.ChecksumIEEE(body))
	w.b.Write(fixed[:])
	w.str(r.name)
	w.key(r.key)

	s.format = segFormat
	s.dataOff = int64(w.b.Len())
	s.payload, s.crc = int64(len(body)), crc32.ChecksumIEEE(body)
	s.stored, s.storedCRC, s.dictLen = s.payload, s.crc, 0
	w.b.Write(body)
	return w.b.Bytes()
}

// encodeKeyDirV1 renders d in key-directory format 1, which predates
// per-segment formats and stored-payload geometry.
func encodeKeyDirV1(d *keyDirectory) []byte {
	var w kdWriter
	w.b.WriteString(keydirMagic)
	w.varint(1)
	w.varint(uint64(d.versions))
	w.str(d.rootTime.String())
	w.varint(uint64(len(d.roots)))
	for _, r := range d.roots {
		w.str(r.name)
		w.key(r.key)
		w.str(r.timeStr)
		w.varint(uint64(len(r.attrs)))
		for _, a := range r.attrs {
			w.str(a.name)
			w.str(a.value)
		}
		if r.raw {
			w.b.WriteByte(1)
		} else {
			w.b.WriteByte(0)
		}
		w.varint(uint64(len(r.segs)))
		for _, s := range r.segs {
			w.str(s.file)
			w.varint(uint64(s.dataOff))
			w.varint(uint64(s.payload))
			w.varint(uint64(s.crc))
			w.varint(uint64(len(s.entries)))
			for i := range s.entries {
				e := &s.entries[i]
				w.str(e.name)
				w.key(e.key)
				w.str(e.timeStr)
				w.varint(uint64(e.offset))
				w.varint(uint64(e.size))
			}
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(w.b.Bytes()))
	return append(w.b.Bytes(), tail[:]...)
}

// readKeyDir decodes dir's key directory.
func readKeyDir(t *testing.T, dir string) *keyDirectory {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, keydirFile))
	if err != nil {
		t.Fatal(err)
	}
	d, err := decodeKeyDirectory(data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// segRecordString renders the parts of a segment record that format 1
// defines (the format-1 writer left the stored-payload fields zero).
func segRecordString(s *segmentRecord) string {
	var b strings.Builder
	fmt.Fprintf(&b, "format=%d dataOff=%d payload=%d crc=%08x", s.format, s.dataOff, s.payload, s.crc)
	for _, e := range s.entries {
		fmt.Fprintf(&b, " [%s %s %q %d+%d]", e.name, keyLabel("", e.key), e.timeStr, e.offset, e.size)
	}
	return b.String()
}

// TestDowngradeMatchesV1Writer certifies the downgrader against the
// retired writer: upgrading testdata/v1-dept and downgrading the result
// must give back the writer's segment files byte for byte (the upgrade
// maps segments one to one), with the same directory records.
func TestDowngradeMatchesV1Writer(t *testing.T) {
	const fixture = "testdata/v1-dept"
	dir := t.TempDir()
	copyDir(t, fixture, dir)
	spec := keys.MustParseSpec(deptSpec)
	ar, err := Open(dir, spec, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f := segFormats(ar); f[segFormat] != 0 || f[segFormatV2] == 0 {
		t.Fatalf("upgrade left formats %v", f)
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeToV1(t, dir, spec)

	want, got := readKeyDir(t, fixture), readKeyDir(t, dir)
	if len(got.roots) != len(want.roots) {
		t.Fatalf("roots: got %d, want %d", len(got.roots), len(want.roots))
	}
	for ri, wr := range want.roots {
		gr := got.roots[ri]
		if len(gr.segs) != len(wr.segs) {
			t.Fatalf("root %s: got %d segments, want %d", wr.name, len(gr.segs), len(wr.segs))
		}
		for si, ws := range wr.segs {
			gs := gr.segs[si]
			wb, err := os.ReadFile(filepath.Join(fixture, ws.file))
			if err != nil {
				t.Fatal(err)
			}
			gb, err := os.ReadFile(filepath.Join(dir, gs.file))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: downgraded bytes differ from the format-1 writer's %s", gs.file, ws.file)
			}
			if g, w := segRecordString(gs), segRecordString(ws); g != w {
				t.Errorf("segment record differs:\n got %s\nwant %s", g, w)
			}
		}
	}
	report, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Errorf("fsck of the downgraded archive: %+v", report.Problems())
	}
}

// legacyLeaves is the leaf-predicate pool of the root package's Select
// differential, which the upgraded-archive differential below reuses.
var legacyLeaves = []string{
	"/db", "/db/dept", "/db/dept[name=d1]", "/db/dept[name=d3]",
	"/db/dept[name=nosuch]", "/db/dept/emp", "/db/dept[name=d2]/emp[fn=F1,ln=L1]",
	"/db/dept/emp[fn=F2,ln=L2]", "/db/dept/emp/sal", "/db/dept[name=d1]/emp/sal",
	"/db/dept/emp[fn=F3,ln=L3]/tel", "/db/dept/emp/nosuch",
	"@region", "@region=r1", "@region=zzz", "@grade", "@grade=g2", "@band=b1", "@nosuch",
	"in 2..", "in ..3", "in 2..4", "at 1", "at 3", "at 99",
	"changed", "changed 2..", "changed ..2",
}

func legacyExpr(rng *rand.Rand, depth int) string {
	if depth == 0 || rng.Intn(3) == 0 {
		return legacyLeaves[rng.Intn(len(legacyLeaves))]
	}
	switch rng.Intn(3) {
	case 0:
		return "NOT (" + legacyExpr(rng, depth-1) + ")"
	case 1:
		return "(" + legacyExpr(rng, depth-1) + ") AND (" + legacyExpr(rng, depth-1) + ")"
	default:
		return "(" + legacyExpr(rng, depth-1) + ") OR (" + legacyExpr(rng, depth-1) + ")"
	}
}

// answers renders every query answer of ar that the upgrade must
// preserve: each version's XML and the Select results of exprs.
func answers(t *testing.T, ar *Archiver, exprs []string) string {
	t.Helper()
	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	var b strings.Builder
	for v := 1; v <= q.Versions(); v++ {
		fmt.Fprintf(&b, "== version %d\n", v)
		if err := q.WriteVersion(v, &b, xmltree.WriteOptions{Indent: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, expr := range exprs {
		e, err := qlang.Parse(expr)
		if err != nil {
			t.Fatal(err)
		}
		rs, err := q.Select(e)
		if err != nil {
			t.Fatalf("Select(%q): %v", expr, err)
		}
		fmt.Fprintf(&b, "== %s\n", expr)
		for _, r := range rs {
			fmt.Fprintf(&b, "%s=%s\n", r.Path, r.Versions)
		}
	}
	return b.String()
}

// TestUpgradedArchiveMatchesNative replaces the mixed-format rows of the
// Select differential: an archive downgraded to format 1 and upgraded
// at open must hold the token stream of the natively written archive
// byte for byte and answer every version and every differential query
// identically — first by scan (the upgrade leaves no sidecar), then
// through an attr.idx whose postings for the transcoded files are built
// by scanning them, and again after both archives take one more Add.
func TestUpgradedArchiveMatchesNative(t *testing.T) {
	spec := keys.MustParseSpec(attrSpec)
	cfg := Config{Budget: 1 << 16, SegmentTarget: 256}
	nativeDir, upDir := t.TempDir(), t.TempDir()
	native := buildAttrArchive(t, nativeDir, cfg, 5)
	defer native.Close()
	built := buildAttrArchive(t, upDir, cfg, 5)
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeToV1(t, upDir, spec)

	rng := rand.New(rand.NewSource(42))
	exprs := append([]string(nil), legacyLeaves...)
	for i := 0; i < 24; i++ {
		exprs = append(exprs, legacyExpr(rng, 2))
	}
	wantStream := archiveStreamBytes(t, native)
	check := func(phase string, up *Archiver) {
		t.Helper()
		if f := segFormats(up); f[segFormat] != 0 {
			t.Fatalf("%s: format-1 segments remain: %v", phase, f)
		}
		if got := archiveStreamBytes(t, up); !bytes.Equal(got, wantStream) {
			t.Fatalf("%s: upgraded token stream differs from the native archive", phase)
		}
		if got, want := answers(t, up, exprs), answers(t, native, exprs); got != want {
			t.Fatalf("%s: upgraded archive answers differ:\n%s\nnative:\n%s", phase, got, want)
		}
	}

	up, err := Open(upDir, spec, cfg)
	if err != nil {
		t.Fatalf("upgrade open: %v", err)
	}
	if up.aidx != nil {
		t.Fatal("upgrade left an attr.idx bound to the format-1 directory")
	}
	check("upgraded", up)
	if err := up.Close(); err != nil {
		t.Fatal(err)
	}

	rcfg := cfg
	rcfg.RebuildAttrIndex = true
	up, err = Open(upDir, spec, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer up.Close()
	if up.aidx == nil {
		t.Fatalf("no attr.idx after rebuild: %v", up.IdxErr)
	}
	check("indexed", up)

	for _, ar := range []*Archiver{native, up} {
		if err := ar.AddVersion(strings.NewReader(attrDoc(6))); err != nil {
			t.Fatal(err)
		}
	}
	wantStream = archiveStreamBytes(t, native)
	check("extended", up)
}
