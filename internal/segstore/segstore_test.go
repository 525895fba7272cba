package segstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"xarch/internal/fsio"
)

var ctx = context.Background()

// testBlob fabricates a segment-shaped blob: dataOff header bytes
// followed by the payload, with the Check the key directory would
// record for it.
func testBlob(dataOff int, payload []byte) ([]byte, Check) {
	blob := append(bytes.Repeat([]byte{0xAA}, dataOff), payload...)
	return blob, Check{
		Size:    int64(len(blob)),
		DataOff: int64(dataOff),
		Payload: int64(len(payload)),
		CRC:     crc32.ChecksumIEEE(payload),
	}
}

func openFrom(data []byte) func() (io.ReadCloser, error) {
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
}

func TestLocalRoundtrip(t *testing.T) {
	l, err := NewLocal(nil, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Keydir(ctx); !errors.Is(err, ErrNoKeydir) {
		t.Fatalf("fresh store Keydir = %v, want ErrNoKeydir", err)
	}
	blob, c := testBlob(16, []byte("the payload bytes"))
	if err := l.Put(ctx, "seg-00000001.tok", c, openFrom(blob)); err != nil {
		t.Fatalf("put: %v", err)
	}
	rc, size, err := l.Get(ctx, "seg-00000001.tok")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	got, _ := io.ReadAll(rc)
	rc.Close()
	if size != c.Size || !bytes.Equal(got, blob) {
		t.Fatalf("get returned %d bytes, want the %d put", len(got), len(blob))
	}
	if has, err := l.Has(ctx, "seg-00000001.tok", c); err != nil || !has {
		t.Fatalf("Has = %v, %v; want true", has, err)
	}
	// A reborn segment id with different content must NOT verify.
	_, c2 := testBlob(16, []byte("different payload"))
	if has, err := l.Has(ctx, "seg-00000001.tok", c2); err != nil || has {
		t.Fatalf("Has with foreign check = %v, %v; want false", has, err)
	}
	names, err := l.List(ctx)
	if err != nil || len(names) != 1 || names[0] != "seg-00000001.tok" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if _, _, err := l.Get(ctx, "seg-00000099.tok"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("Get absent = %v, want ErrNotExist", err)
	}
	if err := l.Delete(ctx, "seg-00000001.tok"); err != nil {
		t.Fatal(err)
	}
	if err := l.Delete(ctx, "seg-00000001.tok"); err != nil {
		t.Fatalf("deleting an absent blob: %v", err)
	}
}

func TestLocalPutVerifyFailure(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, c := testBlob(8, []byte("payload"))
	c.CRC++ // corrupt the expectation
	err = l.Put(ctx, "seg-00000001.tok", c, openFrom(blob))
	if !errors.Is(err, ErrVerify) {
		t.Fatalf("put with wrong CRC = %v, want ErrVerify", err)
	}
	if _, transient := IsTransient(err); !transient {
		t.Fatalf("verify failure must be transient (retry re-streams): %v", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("failed put left %s behind", e.Name())
	}
}

func TestLocalPutSourceError(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, c := testBlob(8, bytes.Repeat([]byte("x"), 4096))
	boom := errors.New("stream died")
	err = l.Put(ctx, "seg-00000001.tok", c, func() (io.ReadCloser, error) {
		return io.NopCloser(io.MultiReader(
			bytes.NewReader(blob[:len(blob)/2]),
			&errReader{err: boom},
		)), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("put with dying source = %v, want the source error", err)
	}
	if _, transient := IsTransient(err); !transient {
		t.Fatalf("source failure must be transient: %v", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("failed put left %s behind", e.Name())
	}
}

type errReader struct{ err error }

func (r *errReader) Read([]byte) (int, error) { return 0, r.err }

// hookReader is an empty stream that runs hook on its first read and
// ends with the hook's error; inside an io.MultiReader it pauses a
// blob's transfer at a chosen offset.
type hookReader struct {
	hook func() error
	err  error
	done bool
}

func (r *hookReader) Read([]byte) (int, error) {
	if !r.done {
		r.done = true
		r.err = r.hook()
	}
	return 0, r.err
}

// TestLocalPutCancelAbandonsStaging: a Put whose context ends mid-stream
// (the uploading client went away) stops staging, removes its ".part"
// and installs nothing, even if the rest of the body is readable.
func TestLocalPutCancelAbandonsStaging(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	blob, c := testBlob(8, bytes.Repeat([]byte("x"), 4096))
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	err = l.Put(cctx, "seg-00000001.tok", c, func() (io.ReadCloser, error) {
		return io.NopCloser(io.MultiReader(
			bytes.NewReader(blob[:len(blob)/2]),
			&hookReader{hook: func() error { cancel(); return io.EOF }},
			bytes.NewReader(blob[len(blob)/2:]),
		)), nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("put under a cancelled context = %v, want context.Canceled", err)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		t.Errorf("abandoned put left %s behind", e.Name())
	}
}

// TestLocalPutSerializesSameName: after a network kill the replica may
// still be running the dead request's Put when the resumed push sends
// the same blob again. The resumed Put must not start staging until the
// dead one is finished, or the dead one's cleanup removes the live
// staging file and the install fails.
func TestLocalPutSerializesSameName(t *testing.T) {
	dir := t.TempDir()
	l, err := NewLocal(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	const name = "seg-00000001.tok"
	blob, c := testBlob(8, bytes.Repeat([]byte("y"), 4096))
	half := len(blob) / 2
	boom := errors.New("client went away")

	// The dead request: half its body staged, then stuck until released.
	deadStaging, deadRelease := make(chan struct{}), make(chan struct{})
	deadDone := make(chan error, 1)
	go func() {
		deadDone <- l.Put(ctx, name, c, func() (io.ReadCloser, error) {
			return io.NopCloser(io.MultiReader(
				bytes.NewReader(blob[:half]),
				&hookReader{hook: func() error { close(deadStaging); <-deadRelease; return boom }},
			)), nil
		})
	}()
	<-deadStaging

	// The resumed request: stages its first half, then holds until the
	// dead request has finished its cleanup.
	liveStaging, deadFinished := make(chan struct{}), make(chan struct{})
	liveDone := make(chan error, 1)
	go func() {
		liveDone <- l.Put(ctx, name, c, func() (io.ReadCloser, error) {
			return io.NopCloser(io.MultiReader(
				bytes.NewReader(blob[:half]),
				&hookReader{hook: func() error { close(liveStaging); <-deadFinished; return io.EOF }},
				bytes.NewReader(blob[half:]),
			)), nil
		})
	}()
	select {
	case <-liveStaging:
		t.Error("resumed Put staged while the dead Put of the same blob was still staging")
	case <-time.After(200 * time.Millisecond):
	}
	close(deadRelease)
	if err := <-deadDone; !errors.Is(err, boom) {
		t.Fatalf("dead put = %v, want its source error", err)
	}
	close(deadFinished)
	if err := <-liveDone; err != nil {
		t.Fatalf("resumed put: %v", err)
	}
	got, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil || !bytes.Equal(got, blob) {
		t.Fatalf("installed blob = %d bytes, %v; want the %d put", len(got), err, len(blob))
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if e.Name() != name {
			t.Errorf("serialized puts left %s behind", e.Name())
		}
	}
}

// TestLocalCommitOrdering asserts the replica commit protocol on the
// filesystem trace: dict and meta land before the keydir, and the
// keydir's rename is the final mutating operation — the commit point.
func TestLocalCommitOrdering(t *testing.T) {
	ffs := fsio.NewFaultFS(nil)
	l, err := NewLocal(ffs, filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	b := &Bundle{Keydir: []byte("KD"), Dict: []byte("DICT"), Meta: []byte("META")}
	ffs.ResetTrace()
	if err := l.CommitKeydir(ctx, b); err != nil {
		t.Fatal(err)
	}
	var renames []string
	for _, op := range ffs.Ops() {
		if strings.HasSuffix(op.Point, ".rename") {
			renames = append(renames, op.Point)
		}
	}
	want := []string{"dict.rename", "meta.rename", "keydir.rename"}
	if fmt.Sprint(renames) != fmt.Sprint(want) {
		t.Fatalf("commit renames = %v, want %v", renames, want)
	}
	// The keydir rename must be followed only by the directory fsync.
	ops := ffs.Ops()
	last := ops[len(ops)-1]
	prev := ops[len(ops)-2]
	if prev.Point != "keydir.rename" || last.Point != "dir.sync" {
		t.Fatalf("trace tail = %s, %s; want keydir.rename, dir.sync", prev.Point, last.Point)
	}
}

// TestLocalCommitCrashMatrix crashes CommitKeydir after every mutating
// op: the keydir on disk must afterwards hold exactly the old or the
// new bytes — never a torn hybrid — because the commit is an atomic
// rename.
func TestLocalCommitCrashMatrix(t *testing.T) {
	oldB := &Bundle{Keydir: []byte("OLD-KEYDIR"), Dict: []byte("OLD-DICT"), Meta: []byte("OLD-META")}
	newB := &Bundle{Keydir: []byte("NEW-KEYDIR-LONGER"), Dict: []byte("NEW-DICT"), Meta: []byte("NEW-META")}

	// Trace a clean commit to size the matrix.
	traceFS := fsio.NewFaultFS(nil)
	tl, err := NewLocal(traceFS, filepath.Join(t.TempDir(), "s"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.CommitKeydir(ctx, oldB); err != nil {
		t.Fatal(err)
	}
	traceFS.ResetTrace()
	if err := tl.CommitKeydir(ctx, newB); err != nil {
		t.Fatal(err)
	}
	n := traceFS.OpCount()

	for _, torn := range []bool{false, true} {
		for k := 0; k < n; k++ {
			label := fmt.Sprintf("k=%d torn=%v", k, torn)
			dir := filepath.Join(t.TempDir(), "s")
			ffs := fsio.NewFaultFS(nil)
			l, err := NewLocal(ffs, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.CommitKeydir(ctx, oldB); err != nil {
				t.Fatal(err)
			}
			ffs.CrashAfter(ffs.OpCount()+k, torn)
			if err := l.CommitKeydir(ctx, newB); err == nil {
				t.Fatalf("%s: commit succeeded through a crash", label)
			}
			kd, err := os.ReadFile(filepath.Join(dir, "keydir.idx"))
			if err != nil {
				t.Fatalf("%s: keydir unreadable after crash: %v", label, err)
			}
			if !bytes.Equal(kd, oldB.Keydir) && !bytes.Equal(kd, newB.Keydir) {
				t.Errorf("%s: keydir is neither the old nor the new bytes: %q", label, kd)
			}
		}
	}
}

func TestValidBlobName(t *testing.T) {
	valid := []string{"seg-00000001.tok", "blob", "a.b"}
	invalid := []string{"", ".", "..", "a/b", `a\b`, "seg-1.tok.part", "x.tmp",
		"keydir.idx", "dict.txt", "meta.txt"}
	for _, n := range valid {
		if !ValidBlobName(n) {
			t.Errorf("ValidBlobName(%q) = false, want true", n)
		}
	}
	for _, n := range invalid {
		if ValidBlobName(n) {
			t.Errorf("ValidBlobName(%q) = true, want false", n)
		}
	}
}

// noSleep is a retry policy that runs the schedule without wall-clock
// delay, recording every computed backoff.
func noSleep(p RetryPolicy, delays *[]time.Duration) RetryPolicy {
	p.Sleep = func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
	return p
}

func TestRetryScheduleGrowthAndCap(t *testing.T) {
	var delays []time.Duration
	p := noSleep(RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   100 * time.Millisecond,
		MaxDelay:    1 * time.Second,
		Rand:        func() float64 { return 0 }, // jitter floor: delay = d/2
	}, &delays)
	err := p.Do(ctx, "op", func(context.Context) error {
		return MarkTransient(errors.New("flaky"), 0)
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	// Raw schedule 100, 200, 400, 800, 1000(cap); equal-jitter with
	// Rand=0 halves each.
	want := []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 400 * time.Millisecond, 500 * time.Millisecond}
	if fmt.Sprint(delays) != fmt.Sprint(want) {
		t.Fatalf("delays = %v, want %v", delays, want)
	}
}

func TestRetryJitterBounds(t *testing.T) {
	for _, r := range []float64{0, 0.25, 0.5, 0.999} {
		p := RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: time.Second,
			Rand: func() float64 { return r }}.withDefaults()
		d := p.delay(1, 0)
		if d < 50*time.Millisecond || d >= 100*time.Millisecond {
			t.Errorf("delay(1) with rand=%v = %v, want in [50ms, 100ms)", r, d)
		}
	}
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	var delays []time.Duration
	p := noSleep(RetryPolicy{
		MaxAttempts: 2,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Rand:        func() float64 { return 0.5 },
	}, &delays)
	hint := 2 * time.Second
	p.Do(ctx, "op", func(context.Context) error {
		return MarkTransient(errors.New("backpressure"), hint)
	})
	if len(delays) != 1 {
		t.Fatalf("got %d sleeps, want 1", len(delays))
	}
	// The hint overrides the (much smaller) computed backoff as a floor,
	// jittered upward: hint + 0.5*hint/2.
	if want := hint + hint/4; delays[0] != want {
		t.Fatalf("delay = %v, want %v (hint floor + upward jitter)", delays[0], want)
	}
	if delays[0] < hint {
		t.Fatalf("delay %v undercuts the server's Retry-After %v", delays[0], hint)
	}
}

func TestRetryPermanentErrorFailsFast(t *testing.T) {
	var delays []time.Duration
	calls := 0
	p := noSleep(RetryPolicy{MaxAttempts: 5}, &delays)
	boom := errors.New("permanent")
	err := p.Do(ctx, "op", func(context.Context) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) || calls != 1 || len(delays) != 0 {
		t.Fatalf("permanent error: err=%v calls=%d sleeps=%d; want the error after exactly 1 call", err, calls, len(delays))
	}
}

// TestRetryNoNesting asserts layered policies do not multiply attempts:
// an error already wrapped as retries-exhausted by an inner Do is final
// for the outer one, even though its root cause is transient.
func TestRetryNoNesting(t *testing.T) {
	var delays []time.Duration
	inner := noSleep(RetryPolicy{MaxAttempts: 3}, &delays)
	outer := noSleep(RetryPolicy{MaxAttempts: 3}, &delays)
	innerCalls := 0
	err := outer.Do(ctx, "outer", func(context.Context) error {
		return inner.Do(ctx, "inner", func(context.Context) error {
			innerCalls++
			return MarkTransient(errors.New("flaky"), 0)
		})
	})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	if innerCalls != 3 {
		t.Fatalf("inner op ran %d times, want 3 (no attempt multiplication)", innerCalls)
	}
}

func TestRetryExhaustedKeepsRootCause(t *testing.T) {
	var delays []time.Duration
	p := noSleep(RetryPolicy{MaxAttempts: 2}, &delays)
	err := p.Do(ctx, "op", func(context.Context) error {
		return MarkTransient(fmt.Errorf("wrapping: %w", ErrVerify), 0)
	})
	if !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrVerify) {
		t.Fatalf("err = %v; want both ErrRetriesExhausted and the root cause Is-able", err)
	}
}

func TestRetrySleepCancellation(t *testing.T) {
	cctx, cancel := context.WithCancel(context.Background())
	p := RetryPolicy{
		MaxAttempts: 5,
		Sleep: func(ctx context.Context, _ time.Duration) error {
			cancel()
			<-ctx.Done()
			return ctx.Err()
		},
	}
	err := p.Do(cctx, "op", func(context.Context) error {
		return MarkTransient(errors.New("flaky"), 0)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
