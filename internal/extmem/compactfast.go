package extmem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"path/filepath"
)

// Byte-level coalescing for uncompressed runs. The general coalesce
// path decodes every input token against its segment dictionary and
// feeds it back through the segment encoder — correct for any input,
// but it re-materializes every string and rebuilds every dictionary
// table from scratch, which costs far more than a verbatim byte copy.
// When every input of a run is uncompressed (and the store writes
// uncompressed segments, the default), none of that decoding is
// necessary: the output payload is
// the concatenation of the input payloads with dictionary ids remapped,
// and the output dictionary is the sorted merge of the referenced input
// entries. Both can be computed directly on the raw bytes — the string
// tables are stored sorted, so merging them is a k-way merge of byte
// slices, and the payload rewrite touches only the id varints, copying
// text spans verbatim. No string, interval set, or key tuple is ever
// materialized.
//
// Because the merged tables contain exactly the entries the output's
// tokens reference, in sorted order, the result is the same segment the
// token-by-token path would have produced; the fast path is an
// optimization, not a format variant. Runs with compressed inputs fall
// back to the general path.

// fastInput is one input segment of a byte-level coalesce: its raw
// dictionary+payload bytes, the pre-scanned table geometry, and the
// per-output mark/remap state. The mark and remap slices are rebuilt
// for every output segment the input contributes entries to.
type fastInput struct {
	seg *segmentRecord
	buf []byte // [0:dictLen) dictionary section, [dictLen:) payload

	// String-table geometry: byte offset of the first entry and entry
	// count for paths (0), values (1), times (2).
	tabOff [3]int
	tabCnt [3]int

	// Key table, decoded to flat local-id pairs (ids validated).
	keyStart []int32
	keyPairs []uint32

	// Per-output state: which entries the output's tokens reference,
	// and the merged id assigned to each referenced entry.
	used   [3][]bool
	usedK  []bool
	remap  [3][]int32
	remapK []int32
}

func (in *fastInput) payload() []byte { return in.buf[in.seg.dictLen:] }

// fastCoalescer holds the scratch state of byte-level coalescing,
// reused across every run of a compaction pass (compaction is
// serialized with Add, so a single instance per archiver suffices).
type fastCoalescer struct {
	ins  []fastInput
	dict kdWriter // output dictionary section
	tab  kdWriter // one merged table body, spliced into dict
	pay  kdWriter // output payload
	head kdWriter

	curs    []tableCursor
	kcurs   []keyCursor
	actives []*fastInput
	refs    []entryRef
}

// uvarintAt decodes a uvarint from b at pos, returning the value and
// the position after it. ok is false on truncation or overflow.
func uvarintAt(b []byte, pos int) (v uint64, next int, ok bool) {
	v, n := binary.Uvarint(b[pos:])
	if n <= 0 {
		return 0, pos, false
	}
	return v, pos + n, true
}

// load reads one input segment's dictionary and payload in a single
// pread (the header fields are already known from the key directory),
// verifies the payload checksum, and pre-scans the dictionary geometry.
func (in *fastInput) load(ar *Archiver, seg *segmentRecord) error {
	in.seg = seg
	n := seg.dictLen + seg.payload
	if cap(in.buf) < int(n) {
		in.buf = make([]byte, n)
	}
	in.buf = in.buf[:n]
	f, err := ar.fs.Open(filepath.Join(ar.dir, seg.file))
	if err != nil {
		return fmt.Errorf("extmem: %w", err)
	}
	_, err = f.ReadAt(in.buf, seg.dataOff-seg.dictLen)
	f.Close()
	if err != nil {
		return fmt.Errorf("extmem: compact %s: %w", seg.file, err)
	}
	ar.bytesRead.Add(n)
	if crc := crc32.ChecksumIEEE(in.payload()); crc != seg.crc {
		return corruptf("compact %s: payload checksum mismatch", seg.file)
	}

	// Scan the three string tables, recording offsets and counts, and
	// decode the key table to validated flat id pairs.
	dict := in.buf[:seg.dictLen]
	pos := 0
	var ok bool
	for t := 0; t < 3; t++ {
		var cnt uint64
		if cnt, pos, ok = uvarintAt(dict, pos); !ok || cnt > uint64(len(dict)-pos) {
			return corruptf("compact %s: dictionary table %d", seg.file, t)
		}
		in.tabOff[t], in.tabCnt[t] = pos, int(cnt)
		for i := uint64(0); i < cnt; i++ {
			var sl uint64
			if sl, pos, ok = uvarintAt(dict, pos); !ok || sl > uint64(len(dict)-pos) {
				return corruptf("compact %s: dictionary table %d entry %d", seg.file, t, i)
			}
			pos += int(sl)
		}
	}
	var nk uint64
	if nk, pos, ok = uvarintAt(dict, pos); !ok || nk > uint64(len(dict)-pos)+1 {
		return corruptf("compact %s: dictionary key table", seg.file)
	}
	in.keyStart = append(in.keyStart[:0], 0)
	in.keyPairs = in.keyPairs[:0]
	for i := uint64(0); i < nk; i++ {
		var np uint64
		if np, pos, ok = uvarintAt(dict, pos); !ok {
			return corruptf("compact %s: dictionary key %d", seg.file, i)
		}
		for j := uint64(0); j < np; j++ {
			var p, v uint64
			if p, pos, ok = uvarintAt(dict, pos); !ok || p >= uint64(in.tabCnt[0]) {
				return corruptf("compact %s: dictionary key %d path id", seg.file, i)
			}
			if v, pos, ok = uvarintAt(dict, pos); !ok || v >= uint64(in.tabCnt[1]) {
				return corruptf("compact %s: dictionary key %d value id", seg.file, i)
			}
			in.keyPairs = append(in.keyPairs, uint32(p), uint32(v))
		}
		in.keyStart = append(in.keyStart, int32(len(in.keyPairs)))
	}
	if pos != len(dict) {
		return corruptf("compact %s: %d trailing dictionary bytes", seg.file, len(dict)-pos)
	}
	return nil
}

// resetMarks clears the per-output mark and remap state, sized to this
// input's tables.
func (in *fastInput) resetMarks() {
	for t := 0; t < 3; t++ {
		in.used[t] = resizeBools(in.used[t], in.tabCnt[t])
		in.remap[t] = resizeIDs(in.remap[t], in.tabCnt[t])
	}
	nk := len(in.keyStart) - 1
	in.usedK = resizeBools(in.usedK, nk)
	in.remapK = resizeIDs(in.remapK, nk)
}

func resizeBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

func resizeIDs(v []int32, n int) []int32 {
	if cap(v) < n {
		v = make([]int32, n)
	}
	v = v[:n]
	for i := range v {
		v[i] = -1
	}
	return v
}

// markEntry walks one entry's payload bytes, marking every dictionary
// id its tokens reference and validating the token grammar. pay is the
// input's full payload; the entry spans [off, off+size).
func (in *fastInput) markEntry(off, size int64) error {
	b := in.payload()
	if off < 0 || size < 0 || off+size > int64(len(b)) {
		return corruptf("compact %s: entry span [%d,+%d) outside payload", in.seg.file, off, size)
	}
	pos, end := int(off), int(off+size)
	var ok bool
	mark := func(t int, id uint64) bool {
		if id >= uint64(in.tabCnt[t]) {
			return false
		}
		in.used[t][id] = true
		return true
	}
	for pos < end {
		op := b[pos]
		pos++
		var v uint64
		switch op {
		case tokOpen:
			if _, pos, ok = uvarintAt(b, pos); !ok || pos >= end {
				return corruptf("compact %s: open token", in.seg.file)
			}
			flags := b[pos]
			pos++
			if flags&^byte(flagHasKey|flagHasTime) != 0 {
				return corruptf("compact %s: open flags %#x", in.seg.file, flags)
			}
			if flags&flagHasKey != 0 {
				if v, pos, ok = uvarintAt(b, pos); !ok || v >= uint64(len(in.usedK)) {
					return corruptf("compact %s: open key id", in.seg.file)
				}
				in.usedK[v] = true
			}
			if flags&flagHasTime != 0 {
				if v, pos, ok = uvarintAt(b, pos); !ok || !mark(2, v) {
					return corruptf("compact %s: open time id", in.seg.file)
				}
			}
		case tokText:
			if v, pos, ok = uvarintAt(b, pos); !ok || v > uint64(end-pos) {
				return corruptf("compact %s: text token", in.seg.file)
			}
			pos += int(v)
		case tokAttr:
			if _, pos, ok = uvarintAt(b, pos); !ok {
				return corruptf("compact %s: attr token", in.seg.file)
			}
			if v, pos, ok = uvarintAt(b, pos); !ok || !mark(1, v) {
				return corruptf("compact %s: attr value id", in.seg.file)
			}
		case tokTSOpen:
			if v, pos, ok = uvarintAt(b, pos); !ok || !mark(2, v) {
				return corruptf("compact %s: ts open id", in.seg.file)
			}
		case tokClose, tokTSClose:
		default:
			return corruptf("compact %s: opcode %#x", in.seg.file, op)
		}
	}
	if pos != end {
		return corruptf("compact %s: entry overruns its span", in.seg.file)
	}
	return nil
}

// markKeyStrings marks the paths and canonical values of every
// referenced key: they live in the shared string tables and must
// survive the merge too. Called once per output, after every entry of
// this input has been marked.
func (in *fastInput) markKeyStrings() {
	for ki, used := range in.usedK {
		if !used {
			continue
		}
		for i := in.keyStart[ki]; i < in.keyStart[ki+1]; i += 2 {
			in.used[0][in.keyPairs[i]] = true
			in.used[1][in.keyPairs[i+1]] = true
		}
	}
}

// rewriteEntry re-encodes one entry's payload bytes into out with every
// dictionary id replaced by its merged id. The grammar was validated by
// markEntry, so only the remap lookups can fail here — and a -1 there
// is an internal invariant violation, not input corruption.
func (in *fastInput) rewriteEntry(out *kdWriter, off, size int64) error {
	b := in.payload()
	pos, end := int(off), int(off+size)
	remap := func(t int, id uint64) error {
		m := in.remap[t][id]
		if m < 0 {
			return fmt.Errorf("extmem: internal: compact %s: table %d id %d unmapped", in.seg.file, t, id)
		}
		out.varint(uint64(m))
		return nil
	}
	for pos < end {
		op := b[pos]
		out.b.WriteByte(op)
		pos++
		var v uint64
		switch op {
		case tokOpen:
			start := pos
			_, pos, _ = uvarintAt(b, pos) // tag id: global, copied verbatim
			flags := b[pos]
			pos++
			out.b.Write(b[start:pos]) // tag varint + flags byte
			if flags&flagHasKey != 0 {
				v, pos, _ = uvarintAt(b, pos)
				m := in.remapK[v]
				if m < 0 {
					return fmt.Errorf("extmem: internal: compact %s: key id %d unmapped", in.seg.file, v)
				}
				out.varint(uint64(m))
			}
			if flags&flagHasTime != 0 {
				v, pos, _ = uvarintAt(b, pos)
				if err := remap(2, v); err != nil {
					return err
				}
			}
		case tokText:
			start := pos
			v, pos, _ = uvarintAt(b, pos)
			out.b.Write(b[start:pos])
			out.b.Write(b[pos : pos+int(v)])
			pos += int(v)
		case tokAttr:
			start := pos
			_, pos, _ = uvarintAt(b, pos) // attribute name id: global
			out.b.Write(b[start:pos])
			v, pos, _ = uvarintAt(b, pos)
			if err := remap(1, v); err != nil {
				return err
			}
		case tokTSOpen:
			v, pos, _ = uvarintAt(b, pos)
			if err := remap(2, v); err != nil {
				return err
			}
		case tokClose, tokTSClose:
		}
	}
	return nil
}

// tableCursor walks the referenced entries of one input's string table
// t in id (= sorted) order. The geometry was validated at load, so the
// walk cannot run off the buffer.
type tableCursor struct {
	in  *fastInput
	t   int
	idx int // next entry index
	pos int // byte offset of entry idx within buf
}

// skipToUsed advances the cursor to the next referenced entry,
// returning false when the table is exhausted.
func (c *tableCursor) skipToUsed() bool {
	dict := c.in.buf[:c.in.seg.dictLen]
	for c.idx < c.in.tabCnt[c.t] {
		if c.in.used[c.t][c.idx] {
			return true
		}
		sl, next, _ := uvarintAt(dict, c.pos)
		c.pos = next + int(sl)
		c.idx++
	}
	return false
}

// head returns the current entry's bytes (valid after skipToUsed).
func (c *tableCursor) head() []byte {
	dict := c.in.buf[:c.in.seg.dictLen]
	sl, next, _ := uvarintAt(dict, c.pos)
	return dict[next : next+int(sl)]
}

// advance moves past the current entry.
func (c *tableCursor) advance() {
	dict := c.in.buf[:c.in.seg.dictLen]
	sl, next, _ := uvarintAt(dict, c.pos)
	c.pos = next + int(sl)
	c.idx++
}

// keyCursor walks the referenced keys of one input in id order.
type keyCursor struct {
	in  *fastInput
	idx int
}

func (c *keyCursor) skipToUsed() bool {
	for c.idx < len(c.in.usedK) {
		if c.in.usedK[c.idx] {
			return true
		}
		c.idx++
	}
	return false
}

// keyCmp orders two inputs' key tuples by their merged path/value ids.
// The merged string tables are sorted, so id order is string order and
// this reproduces compareKeys exactly: pair count first, then each
// pair's path and canonical value.
func keyCmp(a *fastInput, ai int, b *fastInput, bi int) int {
	pa := a.keyPairs[a.keyStart[ai]:a.keyStart[ai+1]]
	pb := b.keyPairs[b.keyStart[bi]:b.keyStart[bi+1]]
	if len(pa) != len(pb) {
		if len(pa) < len(pb) {
			return -1
		}
		return 1
	}
	for i := 0; i < len(pa); i += 2 {
		if d := a.remap[0][pa[i]] - b.remap[0][pb[i]]; d != 0 {
			return int(d)
		}
		if d := a.remap[1][pa[i+1]] - b.remap[1][pb[i+1]]; d != 0 {
			return int(d)
		}
	}
	return 0
}

// entryRef addresses one directory entry of one input in a coalesce
// run: the entries assigned to one output segment.
type entryRef struct{ in, ei int }

// mergeTable merges the referenced entries of string table t across the
// active inputs into fc.tab — a sorted, deduplicated k-way merge over
// the raw table bytes — assigning each referenced entry its merged id.
// Returns the merged entry count.
func (fc *fastCoalescer) mergeTable(t int, ins []*fastInput) int {
	fc.tab.b.Reset()
	fc.curs = fc.curs[:0]
	for _, in := range ins {
		c := tableCursor{in: in, t: t, pos: in.tabOff[t]}
		if c.skipToUsed() {
			fc.curs = append(fc.curs, c)
		}
	}
	count := 0
	for len(fc.curs) > 0 {
		min := 0
		for i := 1; i < len(fc.curs); i++ {
			if bytes.Compare(fc.curs[i].head(), fc.curs[min].head()) < 0 {
				min = i
			}
		}
		h := fc.curs[min].head()
		fc.tab.varint(uint64(len(h)))
		fc.tab.b.Write(h)
		for i := 0; i < len(fc.curs); {
			c := &fc.curs[i]
			if bytes.Equal(c.head(), h) {
				c.in.remap[t][c.idx] = int32(count)
				c.advance()
				if !c.skipToUsed() {
					fc.curs[i] = fc.curs[len(fc.curs)-1]
					fc.curs = fc.curs[:len(fc.curs)-1]
					continue
				}
			}
			i++
		}
		count++
	}
	return count
}

// mergeKeys merges the referenced key tuples into fc.tab the same way,
// comparing tuples through the already-merged path and value ids.
func (fc *fastCoalescer) mergeKeys(ins []*fastInput) int {
	fc.tab.b.Reset()
	fc.kcurs = fc.kcurs[:0]
	for _, in := range ins {
		c := keyCursor{in: in}
		if c.skipToUsed() {
			fc.kcurs = append(fc.kcurs, c)
		}
	}
	count := 0
	for len(fc.kcurs) > 0 {
		min := 0
		for i := 1; i < len(fc.kcurs); i++ {
			if keyCmp(fc.kcurs[i].in, fc.kcurs[i].idx, fc.kcurs[min].in, fc.kcurs[min].idx) < 0 {
				min = i
			}
		}
		mi, mk := fc.kcurs[min].in, fc.kcurs[min].idx
		ps := mi.keyPairs[mi.keyStart[mk]:mi.keyStart[mk+1]]
		fc.tab.varint(uint64(len(ps) / 2))
		for i := 0; i < len(ps); i += 2 {
			fc.tab.varint(uint64(mi.remap[0][ps[i]]))
			fc.tab.varint(uint64(mi.remap[1][ps[i+1]]))
		}
		for i := 0; i < len(fc.kcurs); {
			c := &fc.kcurs[i]
			if keyCmp(c.in, c.idx, mi, mk) == 0 {
				c.in.remapK[c.idx] = int32(count)
				c.idx++
				if !c.skipToUsed() {
					fc.kcurs[i] = fc.kcurs[len(fc.kcurs)-1]
					fc.kcurs = fc.kcurs[:len(fc.kcurs)-1]
					continue
				}
			}
			i++
		}
		count++
	}
	return count
}

// writeOutput marks, merges, rewrites and persists one output segment
// holding the given entries. ins is the full input slice of the run.
func (fc *fastCoalescer) writeOutput(ar *Archiver, root *rootRecord, refs []entryRef, onCreate func(string)) (*segmentRecord, error) {
	// Mark every dictionary id the output's entries reference. An input
	// is active when it contributes at least one entry; refs are in
	// input order, so the actives form a contiguous range.
	first, last := refs[0].in, refs[len(refs)-1].in
	actives := fc.actives[:0]
	for i := first; i <= last; i++ {
		fc.ins[i].resetMarks()
		actives = append(actives, &fc.ins[i])
	}
	fc.actives = actives
	for _, ref := range refs {
		in := &fc.ins[ref.in]
		e := &in.seg.entries[ref.ei]
		if err := in.markEntry(e.offset, e.size); err != nil {
			return nil, err
		}
	}
	for _, in := range actives {
		in.markKeyStrings()
	}

	// The merged dictionary: three sorted string tables, then the key
	// table (whose pairs need the merged path/value ids).
	fc.dict.b.Reset()
	for t := 0; t < 3; t++ {
		n := fc.mergeTable(t, actives)
		fc.dict.varint(uint64(n))
		fc.dict.b.Write(fc.tab.b.Bytes())
	}
	n := fc.mergeKeys(actives)
	fc.dict.varint(uint64(n))
	fc.dict.b.Write(fc.tab.b.Bytes())

	// The payload: each entry's bytes with ids rewritten in place.
	fc.pay.b.Reset()
	ents := make([]childEntry, 0, len(refs))
	for _, ref := range refs {
		in := &fc.ins[ref.in]
		e := in.seg.entries[ref.ei]
		off := int64(fc.pay.b.Len())
		if err := in.rewriteEntry(&fc.pay, e.offset, e.size); err != nil {
			return nil, err
		}
		e.offset, e.size = off, int64(fc.pay.b.Len())-off
		ents = append(ents, e)
	}
	pay := fc.pay.b.Bytes()
	crc := crc32.ChecksumIEEE(pay)

	fc.head.b.Reset()
	renderSegHead(&fc.head, false, false, int64(len(pay)), crc, root.name, root.key, len(pay), crc, nil, fc.dict.b.Bytes())
	rec := &segmentRecord{
		format:    segFormatV2,
		dataOff:   int64(fc.head.b.Len()),
		payload:   int64(len(pay)),
		crc:       crc,
		stored:    int64(len(pay)),
		storedCRC: crc,
		dictLen:   int64(fc.dict.b.Len()),
		entries:   ents,
	}
	rec.file = fmt.Sprintf("seg-%08d.tok", ar.nextSeg)
	ar.nextSeg++
	f, err := ar.fs.Create(filepath.Join(ar.dir, rec.file))
	if err != nil {
		return nil, fmt.Errorf("extmem: create segment: %w", err)
	}
	if onCreate != nil {
		onCreate(rec.file)
	}
	if _, err := f.Write(fc.head.b.Bytes()); err == nil {
		_, err = f.Write(pay)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("extmem: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, commitFaultf("fsync segment "+rec.file, err)
	}
	if err := f.Close(); err != nil {
		return nil, commitFaultf("close segment "+rec.file, err)
	}
	return rec, nil
}

// coalesceFast is the byte-level run coalescer. ok reports whether the
// fast path applies; once any output file has been created, failures
// return ok=true with the error, so the caller cleans up instead of
// re-running the general path over half-written state.
func (ar *Archiver) coalesceFast(newRoot, old *rootRecord, lo, hi int, onCreate func(string)) ([]*segmentRecord, int64, bool, error) {
	if ar.cfg.Compression {
		return nil, 0, false, nil
	}
	for si := lo; si < hi; si++ {
		s := old.segs[si]
		if s.stored != s.payload || len(s.entries) == 0 {
			return nil, 0, false, nil
		}
	}
	if ar.fastco == nil {
		ar.fastco = &fastCoalescer{}
	}
	fc := ar.fastco
	n := hi - lo
	for len(fc.ins) < n {
		fc.ins = append(fc.ins, fastInput{})
	}
	var planned int64
	for si := lo; si < hi; si++ {
		if err := fc.ins[si-lo].load(ar, old.segs[si]); err != nil {
			return nil, 0, true, err
		}
		planned += old.segs[si].payload
	}

	// Assign entries to output segments exactly as the general writer
	// rolls: cut at an entry boundary once the accumulated payload
	// passes the target, unless the remainder would strand a final
	// file smaller than the undersized threshold.
	target, minTail := int64(ar.cfg.SegmentTarget), int64(ar.cfg.CompactTarget)
	var out []*segmentRecord
	var copied, acc, written int64
	refs := fc.refs[:0]
	for ii := 0; ii < n; ii++ {
		seg := fc.ins[ii].seg
		for ei := range seg.entries {
			refs = append(refs, entryRef{in: ii, ei: ei})
			acc += seg.entries[ei].size
			copied += seg.entries[ei].size
			if acc >= target && !(planned-(written+acc) < minTail) {
				rec, err := fc.writeOutput(ar, newRoot, refs, onCreate)
				if err != nil {
					fc.refs = refs[:0]
					return nil, copied, true, err
				}
				out = append(out, rec)
				written += acc
				acc, refs = 0, refs[:0]
			}
		}
	}
	if len(refs) > 0 {
		rec, err := fc.writeOutput(ar, newRoot, refs, onCreate)
		if err != nil {
			fc.refs = refs[:0]
			return nil, copied, true, err
		}
		out = append(out, rec)
	}
	fc.refs = refs[:0]
	return out, copied, true, nil
}
