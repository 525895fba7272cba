package extmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"xarch/internal/core"
)

// Fuzz targets for the two decoders that read bytes straight off disk
// (or off a replication peer) before any checksum of their own content
// can vouch for them: the segment header and the key directory. The
// property is that every input either decodes or returns an error —
// never a panic. Seed corpora live under testdata/fuzz/: real format-1
// and format-2 files plus the crashers TestCorruptLengthPrefixes pins.

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

// TestCorruptLengthPrefixes pins two inputs that once panicked with
// "makeslice: len out of range": a length prefix of 2^62 where a string
// is expected, in a segment header and in a key directory whose
// checksum is valid (anyone who writes the file can compute it). Both
// must be reported as corruption.
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
}
