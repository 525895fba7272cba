package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"xarch"
	"xarch/internal/fsio"
	"xarch/internal/server"
)

// stack is one running `xarch serve`: an ExtStore, the archive server
// over it and an HTTP server on a loopback listener.
type stack struct {
	ext    *xarch.ExtStore
	srv    *server.Server
	hs     *http.Server
	base   string
	served chan error
}

// openExt opens the archive in dir with `xarch serve`'s default flags
// (-budget 1<<20, -segtarget 0, -compactbudget 0). With a tracer, every
// filesystem call goes through the tracing fsio.FS.
func openExt(dir string, spec *xarch.KeySpec, tr *tracer) (*xarch.ExtStore, error) {
	opts := []xarch.Option{
		xarch.WithMemoryBudget(1 << 20),
		xarch.WithSegmentTargetSize(0),
		xarch.WithCompactionBudget(0),
	}
	if tr != nil {
		opts = append(opts, xarch.WithFS(&tracedFS{t: tr, inner: fsio.OS}))
	}
	return xarch.OpenStore(dir, spec, opts...)
}

// serve starts the archive server over ext as `xarch serve` wires it:
// server.New with its default Options and an http.Server with serve's
// header and idle timeouts, on a fresh loopback port. With a tracer the
// server sees the Store decorator and the listener the handler wrapper.
// The stack owns ext from here on.
func serve(ext *xarch.ExtStore, tr *tracer) (*stack, error) {
	var store xarch.Store = ext
	if tr != nil {
		store = &tracedStore{t: tr, inner: ext}
	}
	srv := server.New(store, server.Options{
		QueueDepth:   64,
		MaxBatch:     16,
		MaxBodyBytes: 8 << 20,
		AddTimeout:   60 * time.Second,
		Logger:       log.New(os.Stderr, "xarch serve: ", log.LstdFlags),
	})
	handler := srv.Handler()
	if tr != nil {
		handler = tr.wrapHandler(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &stack{
		ext:    ext,
		srv:    srv,
		hs:     &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute},
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// startStack opens the archive in dir and serves it, returning once the
// server answers its health check.
func startStack(dir string, spec *xarch.KeySpec, tr *tracer) (*stack, error) {
	ext, err := openExt(dir, spec, tr)
	if err != nil {
		return nil, err
	}
	s, err := serve(ext, tr)
	if err != nil {
		return nil, err
	}
	if err := s.up(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// up waits for the server's first healthy answer.
func (s *stack) up() error {
	c := newClient(s.base)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return waitUp(ctx, c)
}

// stop drains the HTTP server, then the archive server, which closes the
// store, and waits for the serving goroutine to exit.
func (s *stack) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := s.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	if serr := <-s.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// archiveDocs archives docs through the Store API, batch documents per
// AddBatch, and fails on any rejected document.
func archiveDocs(st xarch.Store, docs [][]byte, batch int) error {
	for i := 0; i < len(docs); i += batch {
		var parsed []*xarch.Document
		for _, b := range docs[i:min(i+batch, len(docs))] {
			doc, err := xarch.ParseXML(bytes.NewReader(b))
			if err != nil {
				return fmt.Errorf("set-up document: %w", err)
			}
			parsed = append(parsed, doc)
		}
		res, err := st.AddBatch(parsed)
		if err != nil {
			return fmt.Errorf("set-up batch: %w", err)
		}
		for _, r := range res {
			if r.Err != nil {
				return fmt.Errorf("set-up document: %w", r.Err)
			}
		}
	}
	return nil
}

// copyDir copies the regular files of the tree src to dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		return copyFile(path, target)
	})
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		total += fi.Size()
		return nil
	})
	return total, err
}
