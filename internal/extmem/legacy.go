package extmem

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"xarch/internal/fsio"
	"xarch/internal/intervals"
	"xarch/internal/keys"
)

// Legacy layouts and their one-time upgrade. The archiver writes one
// segment format (format 2, see segdict.go); this file is the only
// reader of the two layouts that preceded it, and it reads them only to
// rewrite them as format 2 inside Open:
//
//   - the monolithic layout: one archive.tok token file plus a
//     "versions/roottime" meta.txt, split into segments by migrateV1;
//   - format-1 segments: inline-string token payloads behind a header
//     without a dictionary section, transcoded one to one by
//     migrateSegmentsV2.
//
// Both upgrades write through the ordinary segment writer and commit by
// the key-directory rename, so a crash on either side of the commit
// leaves a complete old or new layout plus orphans the next Open
// sweeps. fsck still verifies a not-yet-upgraded archive in place
// (verifyLegacySegment).

// migrateV1 upgrades a monolithic archive.tok layout in place.
func (ar *Archiver) migrateV1(metaData []byte) error {
	var versions int
	var timeStr string
	if _, err := fmt.Fscanf(bytes.NewReader(metaData), "versions %d\nroottime %q\n", &versions, &timeStr); err != nil {
		return fmt.Errorf("extmem: corrupt meta: %w", err)
	}
	ts, err := intervals.Parse(timeStr)
	if err != nil {
		return fmt.Errorf("extmem: corrupt meta timestamp: %w", err)
	}
	// Any seg-*.tok files predating a v1 layout are leftovers of an
	// interrupted migration; the token file is still authoritative.
	for _, p := range ar.globSegments() {
		ar.fs.Remove(p)
	}
	d, newFiles, err := ar.migrateMonolithic(filepath.Join(ar.dir, archiveFile), versions, ts)
	if err != nil {
		for _, f := range newFiles {
			ar.fs.Remove(filepath.Join(ar.dir, f))
		}
		return err
	}
	if err := ar.commitState(d); err != nil {
		for _, f := range newFiles {
			ar.fs.Remove(filepath.Join(ar.dir, f))
		}
		return err
	}
	ar.fs.Remove(filepath.Join(ar.dir, archiveFile))
	d.resolveTags(ar.dict)
	ar.curDir = d
	return nil
}

// migrateMonolithic splits a v1 archive token file into the segmented
// layout, preserving the token bytes exactly: the concatenated segment
// stream reproduces the old file byte for byte.
func (ar *Archiver) migrateMonolithic(tokPath string, versions int, rootTime *intervals.Set) (*keyDirectory, []string, error) {
	m := &segMerge{ar: ar, i: versions, newRoot: rootTime}
	f, err := ar.fs.Open(tokPath)
	if err != nil {
		return nil, nil, fmt.Errorf("extmem: %w", err)
	}
	defer f.Close()
	tr := newTokenReader(f)
	defer tr.release()

	out := &keyDirectory{versions: versions, rootTime: rootTime}
	for {
		t, ok := tr.take()
		if !ok {
			break
		}
		if t.op != tokOpen {
			return nil, m.newFiles, corruptf("unexpected token %#x at archive root", t.op)
		}
		name, err := ar.dict.name(t.tag)
		if err != nil {
			return nil, m.newFiles, err
		}
		rec := &rootRecord{
			name: name, tag: t.tag, key: t.key, timeStr: t.data,
			raw: ar.spec.IsFrontier(keys.Path([]string{name})),
		}
		if rec.raw {
			sw := m.newWriter(rec, true)
			sw.open()
			sw.out.open(t.tag, t.key, t.data)
			if err := copyBalancedTo(tr, sw.out, true); err != nil {
				sw.finish()
				return nil, m.newFiles, err
			}
			if err := sw.finish(); err != nil {
				return nil, m.newFiles, err
			}
		} else {
			for _, a := range drainAttrs(tr) {
				an, err := ar.dict.name(a.tag)
				if err != nil {
					return nil, m.newFiles, err
				}
				rec.attrs = append(rec.attrs, attrRec{name: an, tag: a.tag, value: a.data})
			}
			sw := m.newWriter(rec, false)
			if err := m.copyChildrenVerbatim(sw, tr); err != nil {
				sw.finish()
				return nil, m.newFiles, err
			}
			if err := sw.finish(); err != nil {
				return nil, m.newFiles, err
			}
			if t, ok := tr.take(); !ok || t.op != tokClose {
				return nil, m.newFiles, corruptf("missing close at /%s", name)
			}
		}
		out.roots = append(out.roots, rec)
	}
	if tr.err != nil {
		return nil, m.newFiles, tr.err
	}
	return out, m.newFiles, nil
}

// migrateSegmentsV2 rewrites every format-1 segment of the committed
// directory as a format-2 segment (one output file per source segment,
// token content and entry metadata preserved) and commits the new
// directory, exactly like the monolithic migration: the key-directory
// rename is the commit point, and a crash on either side of it leaves a
// valid all-v1 or all-v2 layout plus orphan files the next Open sweeps.
func (ar *Archiver) migrateSegmentsV2() error {
	d := ar.curDir
	needs := false
	for _, r := range d.roots {
		for _, s := range r.segs {
			if s.format == segFormat {
				needs = true
			}
		}
	}
	if !needs {
		return nil
	}
	out := &keyDirectory{versions: d.versions, rootTime: d.rootTime}
	var newFiles []string
	onCreate := func(name string) { newFiles = append(newFiles, name) }
	fail := func(err error) error {
		for _, f := range newFiles {
			ar.fs.Remove(filepath.Join(ar.dir, f))
		}
		return err
	}
	for _, r := range d.roots {
		nr := &rootRecord{
			name: r.name, tag: r.tag, key: r.key, timeStr: r.timeStr,
			attrs: r.attrs, raw: r.raw, time: r.time,
		}
		for _, seg := range r.segs {
			if seg.format != segFormat {
				nr.segs = append(nr.segs, seg)
				continue
			}
			ns, err := ar.transcodeSegment(nr, r, seg, onCreate)
			if err != nil {
				return fail(err)
			}
			nr.segs = append(nr.segs, ns)
		}
		out.roots = append(out.roots, nr)
	}
	if err := ar.commitState(out); err != nil {
		return fail(err)
	}
	ar.curDir = out
	return nil
}

// transcodeSegment rewrites one format-1 segment as a single format-2
// segment with identical token content: entries keep their labels,
// keys, and timestamps; only offsets (and the encoding) change. The
// format-1 payload is the inline token grammar the scratch streams
// use, so the ordinary token reader decodes it.
func (ar *Archiver) transcodeSegment(newRoot, r *rootRecord, seg *segmentRecord, onCreate func(string)) (*segmentRecord, error) {
	var out *segmentRecord
	sw := newSegmentSetWriter(ar, newRoot, r.raw,
		func(sr *segmentRecord) { out = sr }, onCreate)
	sw.target = 1 << 62 // 1:1 segment mapping: never roll mid-source
	f, err := ar.fs.Open(filepath.Join(ar.dir, seg.file))
	if err != nil {
		return nil, fmt.Errorf("extmem: %w", err)
	}
	defer f.Close()
	if _, err := f.Seek(seg.dataOff, io.SeekStart); err != nil {
		return nil, fmt.Errorf("extmem: %w", err)
	}
	tr := newTokenReader(&partReader{f: f, rem: seg.payload, c: &ar.bytesRead})
	defer tr.release()
	if r.raw {
		sw.open()
		for {
			t, ok := tr.take()
			if !ok {
				break
			}
			sw.out.writeToken(t)
		}
		if tr.err != nil {
			sw.finish()
			return nil, tr.err
		}
	} else {
		for ei := range seg.entries {
			e := &seg.entries[ei]
			t, ok := tr.take()
			if !ok || t.op != tokOpen {
				sw.finish()
				return nil, corruptf("segment %s: entry %d has no open token", seg.file, ei)
			}
			sw.beginChild(e.name, e.tag, e.key, e.timeStr)
			sw.out.open(t.tag, t.key, t.data)
			if err := copyBalancedTo(tr, sw.out, true); err != nil {
				sw.finish()
				return nil, err
			}
			sw.endChild()
			if sw.err != nil {
				break
			}
		}
	}
	if err := sw.finish(); err != nil {
		return nil, err
	}
	if out == nil {
		return nil, corruptf("segment %s: transcode produced no output", seg.file)
	}
	return out, nil
}

// verifyLegacySegment checks a format-1 segment's payload CRC, the
// whole of what format 1 records about its payload; f is open and h is
// its decoded header.
func verifyLegacySegment(f fsio.File, h *segmentHeader, sr *segmentRecord) error {
	crc := crc32.NewIEEE()
	if _, err := f.Seek(h.dataOff, io.SeekStart); err != nil {
		return fmt.Errorf("extmem: %w", err)
	}
	if _, err := io.CopyN(crc, f, h.payload); err != nil {
		return fmt.Errorf("extmem: segment %s truncated: %w", sr.file, err)
	}
	if crc.Sum32() != sr.crc {
		return fmt.Errorf("extmem: segment %s payload checksum mismatch", sr.file)
	}
	return nil
}
