package extmem

import (
	"bytes"
	"testing"

	"xarch/internal/datagen"
)

// Tests of the format-2 segment encoding: transparent v1→v2 migration on
// open, compaction of migrated segments, and block compression
// (including its seek behavior). The format-1 fixtures come from
// downgradeToV1 (legacy_test.go).

// segFormats counts the segment format versions in the current
// directory.
func segFormats(ar *Archiver) map[int]int { return dirFormats(ar.curDir) }

// keydirFormats counts the segment format versions the key directory in
// dir lists, without opening (and so upgrading) the archive.
func keydirFormats(t *testing.T, dir string) map[int]int {
	t.Helper()
	return dirFormats(readKeyDir(t, dir))
}

func dirFormats(d *keyDirectory) map[int]int {
	out := map[int]int{}
	for _, r := range d.roots {
		for _, s := range r.segs {
			out[s.format]++
		}
	}
	return out
}

// TestFormatMigrationOnOpen: an archive written entirely in the legacy
// format-1 encoding verifies clean under fsck as it stands, and is
// rewritten to format 2 the first time it is opened — with the token
// stream, every query answer, and the committed version count preserved
// exactly.
func TestFormatMigrationOnOpen(t *testing.T) {
	dir := t.TempDir()
	ar := buildOMIMArchive(t, dir, Config{Budget: 1 << 16, SegmentTarget: 2048}, 3)
	want := snapshotXML(t, ar)
	wantStream := archiveStreamBytes(t, ar)
	versions := ar.Versions()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeToV1(t, dir, datagen.OMIMSpec())
	if f := keydirFormats(t, dir); f[segFormat] == 0 || f[segFormatV2] != 0 {
		t.Fatalf("fixture not pure v1: %v", f)
	}
	if report, err := CheckArchive(nil, dir); err != nil {
		t.Fatal(err)
	} else if !report.Clean {
		t.Fatalf("fsck not clean on the format-1 archive: %+v", report.Problems())
	}

	// The first open migrates in place.
	ar2, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 2048})
	if err != nil {
		t.Fatalf("migration open: %v", err)
	}
	if f := segFormats(ar2); f[segFormat] != 0 || f[segFormatV2] == 0 {
		t.Fatalf("migration left formats %v", f)
	}
	if ar2.Versions() != versions {
		t.Fatalf("migrated versions = %d, want %d", ar2.Versions(), versions)
	}
	if got := archiveStreamBytes(t, ar2); !bytes.Equal(got, wantStream) {
		t.Error("migrated token stream differs")
	}
	if got := snapshotXML(t, ar2); got != want {
		t.Error("migrated archive XML differs")
	}
	if err := ar2.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Errorf("fsck not clean after migration: %+v", report.Problems())
	}
	// A second open finds nothing to migrate and is a pure read.
	ar3, err := Open(dir, datagen.OMIMSpec(), Config{Budget: 1 << 16, SegmentTarget: 2048})
	if err != nil {
		t.Fatal(err)
	}
	if got := snapshotXML(t, ar3); got != want {
		t.Error("second open changed the archive")
	}
	ar3.Close()
}

// TestCompactAcrossFormatBoundary: segments transcoded from format 1 at
// open coalesce like natively written ones, preserving the archive
// stream byte for byte.
func TestCompactAcrossFormatBoundary(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: fragTarget}
	ar := fragmentedArchive(t, dir, cfg, 12)
	want := archiveStreamBytes(t, ar)
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	downgradeToV1(t, dir, datagen.OMIMSpec())

	ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if f := segFormats(ar2); f[segFormat] != 0 {
		t.Fatalf("open left format-1 segments: %v", f)
	}
	st, err := ar2.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed == 0 {
		t.Fatal("compaction planned nothing; fixture too small")
	}
	if got := archiveStreamBytes(t, ar2); !bytes.Equal(got, want) {
		t.Error("compacting migrated segments changed the archive stream")
	}
}

// TestCompressedSegments: with block compression on, the archive answers
// every query byte-identically to an uncompressed archive of the same
// versions, the on-disk stored bytes actually shrink, and fsck still
// verifies every checksum.
func TestCompressedSegments(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 1 << 16, Compression: true}
	ar := buildOMIMArchive(t, dir, cfg, 3)
	dirRef := t.TempDir()
	ref := buildOMIMArchive(t, dirRef, Config{Budget: 1 << 16, SegmentTarget: 1 << 16}, 3)

	if got, want := archiveStreamBytes(t, ar), archiveStreamBytes(t, ref); !bytes.Equal(got, want) {
		t.Error("compressed archive token stream differs")
	}
	if got, want := snapshotXML(t, ar), snapshotXML(t, ref); got != want {
		t.Error("compressed archive XML differs")
	}
	st, stRef := ar.StorageStats(), ref.StorageStats()
	if st.SegmentBytes != stRef.SegmentBytes {
		t.Errorf("decoded payload bytes differ: %d vs %d", st.SegmentBytes, stRef.SegmentBytes)
	}
	if st.StoredBytes >= st.SegmentBytes {
		t.Errorf("compression did not shrink stored bytes: %d stored vs %d payload", st.StoredBytes, st.SegmentBytes)
	}
	if cs := ar.CompressedSize(); cs != st.StoredBytes {
		t.Errorf("CompressedSize %d != StoredBytes %d", cs, st.StoredBytes)
	}
	ref.Close()
	if err := ar.Close(); err != nil {
		t.Fatal(err)
	}
	report, err := CheckArchive(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean {
		t.Errorf("fsck not clean on compressed archive: %+v", report.Problems())
	}

	// Reopen and query through the block index: a selective seek must
	// decompress only the touched blocks, not the whole archive.
	ar2, err := Open(dir, datagen.OMIMSpec(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ar2.Close()
	if got, want := snapshotXML(t, ar2), snapshotXML(t, ref); got != want {
		t.Error("reopened compressed archive XML differs")
	}
}

// TestCompressedSeekReadsNothing pins the seek-capability claim for
// compressed segments: a History query on a fully keyed two-step
// selector is answered from the key directory alone — zero segment
// bytes read — exactly as on raw segments.
func TestCompressedSeekReadsNothing(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Budget: 1 << 16, SegmentTarget: 1 << 14, Compression: true}
	ar := buildOMIMArchive(t, dir, cfg, 2)

	q, err := ar.OpenQuery()
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	// Find a record number present in version 1.
	v1, err := q.Version(1)
	if err != nil {
		t.Fatal(err)
	}
	num := v1.Child("Record").ChildText("Num")
	base := ar.BytesRead()
	h, err := q.History("/ROOT/Record[Num=" + num + "]")
	if err != nil {
		t.Fatal(err)
	}
	if h.Empty() {
		t.Fatalf("empty history for record %s", num)
	}
	if n := ar.BytesRead() - base; n != 0 {
		t.Errorf("fully keyed History read %d bytes from compressed segments, want 0", n)
	}

	// A selective body read decompresses only the blocks it touches.
	base = ar.BytesRead()
	if _, err := q.ContentHistory("/ROOT/Record[Num=" + num + "]/Text"); err != nil {
		t.Fatal(err)
	}
	read := ar.BytesRead() - base
	if read == 0 {
		t.Error("selective body read reported zero bytes; telemetry broken")
	}
	if total := ar.CompressedSize(); read >= total {
		t.Errorf("selective read touched %d of %d stored bytes; seeks are not selective", read, total)
	}
}
