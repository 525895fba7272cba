package extmem

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/datagen"
	"xarch/internal/fsio"
	"xarch/internal/xmltree"
)

// The crash matrix: record the I/O trace of one archive operation on a
// fault-injecting filesystem, then replay the operation from the same
// starting snapshot with a simulated crash after op k — for every k —
// and assert the recovery invariants on reopen:
//
//   - the store opens;
//   - the archive stream is byte-identical to either the pre-commit or
//     the post-commit generation (never a hybrid);
//   - the key directory checksum is valid (or the directory was rebuilt
//     and re-persisted);
//   - transient files and orphan segments are swept.
//
// Each matrix runs twice, with the crashing write applied in full and
// torn (half its bytes), covering partial final writes.
//
// The replay interleaving need not match the traced run op for op (the
// ingest pipeline overlaps two goroutines), and the crash invariants
// must hold after ANY prefix of ANY schedule; the traced run's length
// just sizes the matrix so the whole operation — through the commit
// renames and the post-commit cleanup — is covered.

// copyDir snapshots the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// assertRecovered reopens a crashed directory with a clean filesystem
// and checks every recovery invariant. wantPre/wantPost are the archive
// streams of the two committed generations the crash may resolve to
// (identical for stream-preserving operations like compaction).
func assertRecovered(t *testing.T, dir string, cfg Config, label string,
	preV, postV int, wantPre, wantPost []byte) {
	t.Helper()
	cfg.FS = nil
	ar, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	got := archiveStreamBytes(t, ar)
	switch v := ar.Versions(); v {
	case preV:
		if !bytes.Equal(got, wantPre) {
			t.Errorf("%s: recovered to %d versions but stream differs from pre-commit generation", label, v)
		}
	case postV:
		if !bytes.Equal(got, wantPost) {
			t.Errorf("%s: recovered to %d versions but stream differs from post-commit generation", label, v)
		}
	default:
		t.Errorf("%s: recovered to %d versions, want %d or %d", label, v, preV, postV)
	}
	if tr := listTransient(fsio.OS, dir); len(tr) != 0 {
		t.Errorf("%s: transient files survived reopen: %v", label, tr)
	}
	live := ar.curDir.files()
	for _, p := range ar.globSegments() {
		if !live[filepath.Base(p)] {
			t.Errorf("%s: orphan segment %s survived reopen", label, filepath.Base(p))
		}
	}
	dirCRC := ar.curDir.crc
	if err := ar.Close(); err != nil {
		t.Fatalf("%s: close recovered archive: %v", label, err)
	}
	// The advisory attr.idx sidecar must never survive a crash in a
	// state a reader could misuse: after the writable reopen it is
	// either absent (dropped, to be rebuilt by the next commit) or
	// decodes cleanly and is bound to the recovered key directory.
	if data, err := os.ReadFile(filepath.Join(dir, attrIdxFile)); err == nil {
		x, derr := decodeAttrIndex(data)
		if derr != nil {
			t.Errorf("%s: attr.idx corrupt after recovery: %v", label, derr)
		} else if x.keydirCRC != dirCRC {
			t.Errorf("%s: stale attr.idx survived the writable reopen", label)
		}
	}
	report, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatalf("%s: fsck: %v", label, err)
	}
	if !report.Clean {
		t.Errorf("%s: fsck not clean after recovery: %+v", label, report.Problems())
	}
}

// TestCrashMatrixAdd crashes an Add after every op k of its I/O trace:
// recovery must land on exactly the 2-version or the 3-version archive.
// It runs once per sort path: AddVersion through the external sort, and
// AddTreeBatch through the in-memory sort, which writes no scratch file.
func TestCrashMatrixAdd(t *testing.T) {
	g := datagen.NewOMIM(datagen.OMIMConfig{Seed: 91, Records: 12, DeleteFrac: 0.05, InsertFrac: 0.1, ModifyFrac: 0.1})
	docs := []string{g.Next().IndentedXML(), g.Next().IndentedXML(), g.Next().IndentedXML()}
	tree, err := xmltree.ParseString(docs[2])
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name string
		cfg  Config
		add  func(ar *Archiver) error
	}{
		// Shards:1 keeps the ingest single-follower; a small budget forces
		// several run files so the matrix covers the scratch-file phase.
		{"external", Config{Budget: 512, SegmentTarget: 1024, Shards: 1},
			func(ar *Archiver) error { return ar.AddVersion(strings.NewReader(docs[2])) }},
		{"in-memory", Config{SegmentTarget: 1024},
			func(ar *Archiver) error {
				items, err := ar.AddTreeBatch([]*xmltree.Node{tree})
				if err != nil {
					return err
				}
				return items[0].Err
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) { crashMatrixAdd(t, row.cfg, docs, row.add) })
	}
}

func crashMatrixAdd(t *testing.T, cfg Config, docs []string, add func(ar *Archiver) error) {
	base := t.TempDir()
	ar, err := Open(base, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs[:2] {
		if err := ar.AddVersion(strings.NewReader(doc)); err != nil {
			t.Fatal(err)
		}
	}
	wantPre := archiveStreamBytes(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}

	// Clean traced run: how many mutating ops is one Add, and what does
	// the post-commit generation look like?
	traceDir := t.TempDir()
	copyDir(t, base, traceDir)
	ffs := fsio.NewFaultFS(nil)
	tcfg := cfg
	tcfg.FS = ffs
	tar, err := Open(traceDir, datagen.OMIMSpec(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ffs.ResetTrace()
	if err := add(tar); err != nil {
		t.Fatal(err)
	}
	n := ffs.OpCount()
	wantPost := archiveStreamBytes(t, tar)
	tar.Close()
	if n < 10 {
		t.Fatalf("suspiciously short Add trace (%d ops); seam not routing I/O?", n)
	}
	t.Logf("Add trace: %d mutating ops", n)

	sawTransient := false
	committedLate := 0
	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := t.TempDir()
			copyDir(t, base, dir)
			cfs := fsio.NewFaultFS(nil)
			ccfg := cfg
			ccfg.FS = cfs
			car, err := Open(dir, datagen.OMIMSpec(), ccfg)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			// Offset by the ops Open itself consumed so k indexes into
			// the Add. A nil return is legal for late k: the crash then
			// landed in post-commit cleanup, whose errors are ignored by
			// design — the version is already durable.
			cfs.CrashAfter(cfs.OpCount()+k, torn)
			if err := add(car); err == nil {
				committedLate++
			}
			if !cfs.Crashed() {
				t.Fatalf("%s: crash point never hit; matrix does not cover the operation", label)
			}
			if len(listTransient(fsio.OS, dir)) > 0 {
				sawTransient = true
			}
			assertRecovered(t, dir, cfg, label, 2, 3, wantPre, wantPost)
		}
	}
	if !sawTransient {
		t.Error("no crash point left transient files behind; the sweep path was never exercised")
	}
	if committedLate == 0 {
		t.Error("no crash point landed after the commit; matrix does not reach the cleanup tail")
	}
}

// TestCrashMatrixCompact crashes a compaction pass after every op k:
// compaction preserves the archive stream byte for byte, so recovery
// must always read back the same stream, whichever layout committed.
func TestCrashMatrixCompact(t *testing.T) {
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	base := t.TempDir()
	ar := fragmentedArchive(t, base, cfg, 12)
	want := archiveStreamBytes(t, ar)
	versions := ar.Versions()
	if len(ar.CompactionPlan()) == 0 {
		t.Fatal("nothing planned; fixture too small")
	}
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}

	traceDir := t.TempDir()
	copyDir(t, base, traceDir)
	ffs := fsio.NewFaultFS(nil)
	tcfg := cfg
	tcfg.FS = ffs
	tar, err := Open(traceDir, datagen.OMIMSpec(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	ffs.ResetTrace()
	if _, err := tar.Compact(); err != nil {
		t.Fatal(err)
	}
	n := ffs.OpCount()
	if got := archiveStreamBytes(t, tar); !bytes.Equal(got, want) {
		t.Fatal("compaction changed the archive stream; fixture broken")
	}
	tar.Close()
	if n < 5 {
		t.Fatalf("suspiciously short Compact trace (%d ops)", n)
	}
	t.Logf("Compact trace: %d mutating ops", n)

	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := t.TempDir()
			copyDir(t, base, dir)
			cfs := fsio.NewFaultFS(nil)
			ccfg := cfg
			ccfg.FS = cfs
			car, err := Open(dir, datagen.OMIMSpec(), ccfg)
			if err != nil {
				t.Fatalf("%s: open: %v", label, err)
			}
			// As in the Add matrix: offset k past Open's own ops, and
			// accept a nil return when the crash lands in the ignored
			// post-commit removal of superseded segments.
			cfs.CrashAfter(cfs.OpCount()+k, torn)
			car.Compact()
			if !cfs.Crashed() {
				t.Fatalf("%s: crash point never hit; matrix does not cover the operation", label)
			}
			assertRecovered(t, dir, cfg, label, versions, versions, want, want)
		}
	}
}

// TestCrashMatrixMigration crashes the one-time monolithic-to-segmented
// migration after every op k. The migration runs inside Open, so the
// crashed call is Open itself; the archive.tok file stays authoritative
// until the key directory commits, and the stream is preserved exactly
// in either generation.
func TestCrashMatrixMigration(t *testing.T) {
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	base := t.TempDir()
	ar := buildOMIMArchive(t, base, cfg, 2)
	want := archiveStreamBytes(t, ar)
	versions := ar.Versions()
	rootTime := ar.curDir.rootTime.String()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	// Devolve the directory to the v1 layout: monolithic token file and
	// v1 meta, no key directory, no segment files.
	if err := os.WriteFile(filepath.Join(base, archiveFile), want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(base, metaFile),
		[]byte(fmt.Sprintf("versions %d\nroottime %q\n", versions, rootTime)), 0o644); err != nil {
		t.Fatal(err)
	}
	os.Remove(filepath.Join(base, keydirFile))
	for _, p := range ar.globSegments() {
		os.Remove(p)
	}

	traceDir := t.TempDir()
	copyDir(t, base, traceDir)
	ffs := fsio.NewFaultFS(nil)
	tcfg := cfg
	tcfg.FS = ffs
	tar, err := Open(traceDir, datagen.OMIMSpec(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	n := ffs.OpCount()
	tar.Close()
	if n < 5 {
		t.Fatalf("suspiciously short migration trace (%d ops)", n)
	}
	t.Logf("migration trace: %d mutating ops", n)

	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := t.TempDir()
			copyDir(t, base, dir)
			cfs := fsio.NewFaultFS(nil)
			ccfg := cfg
			ccfg.FS = cfs
			// The migration may or may not reach its commit before op k;
			// Open errors in the former case and succeeds (with a dead
			// filesystem) in the latter. Either way the on-disk state is
			// a crash prefix to recover from.
			cfs.CrashAfter(k, torn)
			if car, err := Open(dir, datagen.OMIMSpec(), ccfg); err == nil {
				_ = car // dropped without Close: the "process" died
			}
			if !cfs.Crashed() {
				t.Fatalf("%s: crash point never hit; matrix does not cover the migration", label)
			}
			assertRecovered(t, dir, cfg, label, versions, versions, want, want)
		}
	}
}

// TestCrashMatrixFormatMigration crashes the transparent format-1 →
// format-2 segment upgrade after every op k. Like the monolithic
// migration, the upgrade runs inside Open, so the crashed call is Open
// itself. A crash prefix must leave either the committed v1 layout or
// the committed v2 layout (never a hybrid the directory references),
// strand no transient files, and preserve the archive stream exactly;
// the recovery reopen finishes the upgrade.
func TestCrashMatrixFormatMigration(t *testing.T) {
	cfg := Config{Budget: 1 << 16, SegmentTarget: 2048}
	base := t.TempDir()
	ar := buildOMIMArchive(t, base, cfg, 2)
	want := archiveStreamBytes(t, ar)
	versions := ar.Versions()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeToV1(t, base, datagen.OMIMSpec())
	if f := keydirFormats(t, base); f[segFormat] == 0 || f[segFormatV2] != 0 {
		t.Fatalf("fixture not pure v1: %v", f)
	}

	// Clean traced run: the whole upgrade — segment rewrites through the
	// key-directory commit and the removal of the superseded v1 files —
	// happens inside this one Open.
	traceDir := t.TempDir()
	copyDir(t, base, traceDir)
	ffs := fsio.NewFaultFS(nil)
	tcfg := cfg
	tcfg.FS = ffs
	tar, err := Open(traceDir, datagen.OMIMSpec(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	n := ffs.OpCount()
	if f := segFormats(tar); f[segFormat] != 0 {
		t.Fatalf("traced open left v1 segments: %v", f)
	}
	if got := archiveStreamBytes(t, tar); !bytes.Equal(got, want) {
		t.Fatal("format migration changed the archive stream; fixture broken")
	}
	tar.Close()
	if n < 5 {
		t.Fatalf("suspiciously short format-migration trace (%d ops)", n)
	}
	t.Logf("format-migration trace: %d mutating ops", n)

	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := t.TempDir()
			copyDir(t, base, dir)
			cfs := fsio.NewFaultFS(nil)
			ccfg := cfg
			ccfg.FS = cfs
			cfs.CrashAfter(k, torn)
			if car, err := Open(dir, datagen.OMIMSpec(), ccfg); err == nil {
				_ = car // dropped without Close: the "process" died
			}
			if !cfs.Crashed() {
				t.Fatalf("%s: crash point never hit; matrix does not cover the migration", label)
			}
			// assertRecovered reopens with the default (v2) config, which
			// finishes the interrupted upgrade and must still sweep every
			// transient and orphan file the crash stranded.
			assertRecovered(t, dir, cfg, label, versions, versions, want, want)
		}
	}
}
