package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"xarch"
)

// result is the outcome of one request. Times are offsets from the load
// start on the load generator's monotonic clock.
type result struct {
	req  *request
	Due  time.Duration // when it was due; equals Sent in a closed loop
	Sent time.Duration
	End  time.Duration // response fully read

	Err     error // transport error, timeout, refusal or wrong answer
	Version int   // add: the version the response reported
	N       int   // version: the version asked for
	Expr    string
	// Lo and Hi bound the number of versions the archive held when the
	// request was answered: Lo is the highest version acknowledged before
	// it was sent, Hi is set after the run from the adds sent before it
	// ended.
	Lo, Hi int
	Hash   uint64 // answer digest (history: the versions part)
	Hash2  uint64 // history: the changes part
}

// latency is a request's latency: from its due time in an open loop,
// from its send in a closed loop (where Due == Sent).
func (r *result) latency() time.Duration { return r.End - r.Due }

// late is how far behind its schedule the request was sent.
func (r *result) late() time.Duration { return r.Sent - r.Due }

func (r *result) ok() bool { return r.Err == nil }

var errGaveUp = errors.New("not sent: load generator fell too far behind its schedule")

// client owns one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	tr   *http.Transport
	base string
}

// requestTimeout bounds one request; a request that takes longer fails.
const requestTimeout = 20 * time.Second

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: requestTimeout}, tr: tr, base: base}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// head tracks the highest version any add response reported.
type head struct{ v atomic.Int64 }

func (h *head) get() int { return int(h.v.Load()) }

func (h *head) raise(v int) {
	for {
		cur := h.v.Load()
		if int64(v) <= cur || h.v.CompareAndSwap(cur, int64(v)) {
			return
		}
	}
}

// do sends res's request and digests the answer. Any non-200 answer is a
// failure; 429 refusals are not retried.
func (c *client) do(res *result, hd *head) {
	r := res.req
	res.Lo = hd.get()
	var httpReq *http.Request
	var err error
	switch r.Kind {
	case opAdd:
		httpReq, err = http.NewRequest(http.MethodPost, c.base+"/v1/add", bytes.NewReader(r.Body))
		if err == nil {
			httpReq.Header.Set("Content-Type", "application/xml")
		}
	case opVersion:
		res.N = r.N
		if res.N == 0 {
			res.N = r.versionFor(res.Lo)
		}
		httpReq, err = http.NewRequest(http.MethodGet, fmt.Sprintf("%s/v1/version/%d", c.base, res.N), nil)
	case opHistory:
		httpReq, err = http.NewRequest(http.MethodGet,
			c.base+"/v1/history?changes=1&selector="+url.QueryEscape(r.Sel), nil)
	case opSelect:
		res.Expr = r.exprFor(res.Lo)
		httpReq, err = http.NewRequest(http.MethodGet, c.base+"/v1/query?q="+url.QueryEscape(res.Expr), nil)
	}
	if err != nil {
		res.Err = err
		return
	}
	httpReq.Header.Set(reqHeader, strconv.FormatInt(r.ID, 10))
	resp, err := c.hc.Do(httpReq)
	if err != nil {
		res.Err = err
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 300))
		res.Err = fmt.Errorf("%s: status %d: %s", r.Kind, resp.StatusCode, bytes.TrimSpace(msg))
		return
	}
	switch r.Kind {
	case opVersion:
		h := fnv.New64a()
		if _, err := io.Copy(h, resp.Body); err != nil {
			res.Err = err
			return
		}
		res.Hash = h.Sum64()
	case opAdd:
		var a struct {
			Version int `json:"version"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			res.Err = fmt.Errorf("add: decode: %w", err)
			return
		}
		res.Version = a.Version
		hd.raise(a.Version)
	case opHistory:
		var a struct {
			Versions []int `json:"versions"`
			Changes  []int `json:"changes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			res.Err = fmt.Errorf("history: decode: %w", err)
			return
		}
		res.Hash, res.Hash2 = digestInts(a.Versions), digestInts(a.Changes)
	case opSelect:
		var a struct {
			Results []xarch.SelectResult `json:"results"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&a); err != nil {
			res.Err = fmt.Errorf("select: decode: %w", err)
			return
		}
		res.Hash = digestResults(a.Results)
	}
	// Drain so the connection is reused.
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		res.Err = err
	}
}

func digestInts(xs []int) uint64 {
	h := fnv.New64a()
	for _, x := range xs {
		fmt.Fprintf(h, "%d,", x)
	}
	return h.Sum64()
}

func digestResults(rs []xarch.SelectResult) uint64 {
	h := fnv.New64a()
	for _, r := range rs {
		fmt.Fprintf(h, "%s\x00%s\x01", r.Path, r.Versions)
	}
	return h.Sum64()
}

// clock is the load generator's time source: offsets from the load start.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }

// spinWindow is how long before a due time the load generator stops
// sleeping and spins, so the timer's wake-up latency, which on a shared
// VM varies with the host's load, does not delay a send.
const spinWindow = 500 * time.Microsecond

func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now() - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for c.Now() < t {
	}
}

// openLoop sends reqs on their schedule over workers connections. Each
// worker takes the next request in due order, waits until it is due,
// sends it and waits for the answer, so when every connection is busy a
// due request waits for one, and that wait counts in its latency and its
// lateness. Requests still unsent at giveUp fail without being sent.
func openLoop(reqs []*request, workers int, clk clock, giveUp time.Duration, send func(worker int, res *result)) []*result {
	results := make([]*result, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				res := &result{req: reqs[i], Due: reqs[i].Due}
				results[i] = res
				clk.SleepUntil(res.Due)
				res.Sent = clk.Now()
				if res.Sent > giveUp {
					res.End, res.Err = res.Sent, errGaveUp
					continue
				}
				send(w, res)
				res.End = clk.Now()
			}
		}()
	}
	wg.Wait()
	return results
}

// closedLoop sends reqs one after another on one connection, each as
// soon as the previous answer is in.
func closedLoop(reqs []*request, clk clock, send func(res *result)) []*result {
	results := make([]*result, len(reqs))
	for i, r := range reqs {
		res := &result{req: r}
		res.Sent = clk.Now()
		res.Due = res.Sent
		send(res)
		res.End = clk.Now()
		results[i] = res
	}
	return results
}

// waitUp polls /v1/healthz until the server answers 200.
func waitUp(ctx context.Context, c *client) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("healthz: status %d", resp.StatusCode)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("server not up: %w", err)
		case <-time.After(time.Millisecond):
		}
	}
}
