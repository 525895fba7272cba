package extmem

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"xarch/internal/core"
	"xarch/internal/datagen"
)

// Fuzz targets for the decoders that read bytes straight off disk (or
// off a replication peer) before any checksum of their own content can
// vouch for them: the segment header, the key directory and the segment
// token stream. The property is that every input either decodes or
// returns an error — never a panic, never an allocation the input's own
// length does not bound. Seed corpora live under testdata/fuzz/: real
// format-1 and format-2 files plus the crashers TestCorruptLengthPrefixes
// pins.

// withKeydirCRC appends the whole-file checksum decodeKeyDirectory
// verifies first, so fuzzed bodies reach the parser.
func withKeydirCRC(body []byte) []byte {
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc32.ChecksumIEEE(body))
	return append(body[:len(body):len(body)], tail[:]...)
}

func FuzzSegmentHeader(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		readSegmentHeader(bytes.NewReader(data))
	})
}

func FuzzKeyDirectory(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		decodeKeyDirectory(withKeydirCRC(body))
	})
}

// FuzzSegmentPayload decodes arbitrary payload bytes against the
// dictionary of a real v2 segment, once token by token and once skipping
// every subtree through discardSubtree. The bytes come from memory, so
// every failure is the payload's own and must be ErrCorruptArchive.
func FuzzSegmentPayload(f *testing.F) {
	dict, payload := fuzzSegment(f)
	f.Add(payload)
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := decodePayload(dict, data); err != nil && !errors.Is(err, core.ErrCorruptArchive) {
			t.Errorf("payload decode failed with %v, want ErrCorruptArchive", err)
		}
	})
}

// fuzzSegment archives the company versions and returns the dictionary
// and payload of the archive's largest segment: a small real v2
// dictionary and a payload encoded against it. The archive is built the
// same way every time, so the committed seed payloads match the
// dictionary.
func fuzzSegment(tb testing.TB) (*segDict, []byte) {
	tb.Helper()
	dir := tb.TempDir()
	ar, err := Open(dir, datagen.CompanySpec(), Config{Shards: 1})
	if err != nil {
		tb.Fatal(err)
	}
	defer ar.Close()
	if _, err := ar.AddTreeBatch(datagen.CompanyVersions()); err != nil {
		tb.Fatal(err)
	}
	var seg *segmentRecord
	for _, r := range ar.curDir.roots {
		for _, s := range r.segs {
			if seg == nil || s.payload > seg.payload {
				seg = s
			}
		}
	}
	if seg == nil {
		tb.Fatal("company archive has no segment")
	}
	data, err := os.ReadFile(filepath.Join(dir, seg.file))
	if err != nil {
		tb.Fatal(err)
	}
	h, err := readSegmentHeader(bytes.NewReader(data))
	if err != nil {
		tb.Fatal(err)
	}
	return h.dict, data[h.dataOff : h.dataOff+h.payload]
}

// decodePayload decodes data as a v2 token stream twice — every token,
// then skipping each subtree after its open — and returns the first
// error either pass reports.
func decodePayload(dict *segDict, data []byte) error {
	tr := newTokenReaderDict(bytes.NewReader(data), dict)
	for _, ok := tr.take(); ok; _, ok = tr.take() {
	}
	err := tr.err
	tr.release()

	tr = newTokenReaderDict(bytes.NewReader(data), dict)
	defer tr.release()
	for t, ok := tr.take(); ok; t, ok = tr.take() {
		if t.op != tokOpen {
			continue
		}
		if derr := tr.discardSubtree(); derr != nil {
			if err == nil {
				err = derr
			}
			break
		}
	}
	if err == nil {
		err = tr.err
	}
	return err
}

// TestCorruptLengthPrefixes pins inputs that once panicked with
// "makeslice: len out of range": a length prefix of 2^62 where a string
// is expected, in a segment header, in a key directory whose checksum is
// valid (anyone who writes the file can compute it) and in a text token
// of a segment payload or of the inline stream. All must be reported as
// corruption, and so must a token stream that ends inside a token and
// a 2^63-byte string the merge planner's scanner skips.
func TestCorruptLengthPrefixes(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<62)
	seg := append([]byte(segMagic+"\x02\x00"), make([]byte, 12)...)
	seg = append(seg, huge...)
	if _, err := readSegmentHeader(bytes.NewReader(seg)); !errors.Is(err, core.ErrCorruptArchive) {
		t.Errorf("segment header with a 2^62-byte root name: err = %v, want ErrCorruptArchive", err)
	}
	kd := append([]byte(keydirMagic+"\x02\x01"), huge...)
	if _, err := decodeKeyDirectory(withKeydirCRC(kd)); !errors.Is(err, core.ErrCorruptArchive) {
		t.Errorf("key directory with a 2^62-byte root timestamp: err = %v, want ErrCorruptArchive", err)
	}
	text := append([]byte{tokText}, huge...)
	if err := decodePayload(&segDict{}, text); !errors.Is(err, core.ErrCorruptArchive) {
		t.Errorf("segment payload with a 2^62-byte text: err = %v, want ErrCorruptArchive", err)
	}
	tr := newTokenReader(bytes.NewReader(text))
	defer tr.release()
	if !errors.Is(tr.err, core.ErrCorruptArchive) {
		t.Errorf("inline stream with a 2^62-byte text: err = %v, want ErrCorruptArchive", tr.err)
	}
	// The position-tracking scanner of the merge planner and the
	// directory rebuild once skipped a 2^63-byte string without error,
	// its position wrapping negative.
	text63 := append([]byte{tokText}, binary.AppendUvarint(nil, 1<<63)...)
	pr := &posReader{br: bufio.NewReader(bytes.NewReader(append(text63, tokClose)))}
	if err := pr.skipBalanced(1); !errors.Is(err, core.ErrCorruptArchive) {
		t.Errorf("scan over a 2^63-byte text: err = %v, want ErrCorruptArchive", err)
	}
	// A payload cut inside a token once read as a clean end of stream,
	// silently dropping the token.
	for _, cut := range [][]byte{{tokText}, {tokOpen, 1}, {tokOpen, 1, flagHasKey}, {tokAttr, 1}} {
		if err := decodePayload(&segDict{}, cut); !errors.Is(err, core.ErrCorruptArchive) {
			t.Errorf("payload %x cut inside a token: err = %v, want ErrCorruptArchive", cut, err)
		}
	}
}

// TestTokenStringsOneAllocation pins the decoder's string reads, the
// top allocator of the segment merge: a text token costs exactly the
// string it returns, whether it fits the read buffer or not.
func TestTokenStringsOneAllocation(t *testing.T) {
	for _, size := range []int{40, 3 * tokenBufSize} {
		var stream bytes.Buffer
		tw := newTokenWriter(&stream)
		for i := 0; i < 200; i++ {
			tw.text(strings.Repeat("x", size))
		}
		if err := tw.flush(); err != nil {
			t.Fatal(err)
		}
		tw.release()
		tr := newTokenReader(bytes.NewReader(stream.Bytes()))
		allocs := testing.AllocsPerRun(100, func() { tr.take() })
		if tr.err != nil {
			t.Fatal(tr.err)
		}
		tr.release()
		if want := 1.0; size < tokenBufSize && allocs != want {
			t.Errorf("%d-byte text: %.1f allocations per token, want %.0f", size, allocs, want)
		}
		if maxAllocs := 8.0; allocs > maxAllocs {
			t.Errorf("%d-byte text: %.1f allocations per token, want at most %.0f", size, allocs, maxAllocs)
		}
	}
}
