package main

// In-process litmus-serve nodes: serve.New with the default
// configuration, mounted on a loopback listener, optionally durable on a
// journal the benchmark owns.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/journal"
)

// pollInterval is the clients' job-status polling cadence. The client
// default (50 ms) would dominate a ~10 ms computed request and hide the
// server, so the benchmark fixes a short one.
const pollInterval = 2 * time.Millisecond

// node is one running service instance.
type node struct {
	srv  *serve.Server
	http *http.Server
	jr   *journal.Journal
	url  string
	reg  *obs.Registry
	done chan struct{} // closed when the HTTP server's Serve returns
}

// startNode boots a node; journalDir, when non-empty, makes it durable.
func startNode(journalDir string) (*node, error) {
	reg := obs.NewRegistry()
	cfg := serve.Config{Registry: reg}
	n := &node{reg: reg, done: make(chan struct{})}
	if journalDir != "" {
		jr, err := journal.Open(journal.Options{Dir: journalDir, Registry: reg})
		if err != nil {
			return nil, err
		}
		n.jr = jr
		cfg.Journal = jr
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if n.jr != nil {
			n.jr.Close()
		}
		return nil, fmt.Errorf("listen: %w", err)
	}
	n.srv = serve.New(cfg)
	n.http = &http.Server{Handler: n.srv.Handler()}
	n.url = "http://" + ln.Addr().String()
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns http.ErrServerClosed on shutdown
	}()
	return n, nil
}

// ready waits until the node has replayed its journal and answers
// /readyz.
func (n *node) ready(ctx context.Context, c *client.Client) error {
	select {
	case <-n.srv.ReplayDone():
	case <-ctx.Done():
		return ctx.Err()
	}
	for {
		err := c.Ready(ctx)
		if err == nil {
			return nil
		}
		select {
		case <-time.After(time.Millisecond):
		case <-ctx.Done():
			return fmt.Errorf("node %s not ready: %w", n.url, err)
		}
	}
}

// stop drains the node and closes its journal, waiting for every
// goroutine the node started.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.http.Shutdown(ctx)
	<-n.done
	err = errors.Join(err, n.srv.Shutdown(ctx))
	if n.jr != nil {
		err = errors.Join(err, n.jr.Close())
	}
	return err
}

// journalPosition reads a journal's write position: the sequence
// number and size of its active (newest) segment.
func journalPosition(dir string) (seq int, size int64, err error) {
	names, err := filepath.Glob(filepath.Join(dir, "journal-*.ljr"))
	if err != nil || len(names) == 0 {
		return 0, 0, err
	}
	newest := names[0]
	for _, name := range names {
		if name > newest {
			newest = name
		}
	}
	if _, err := fmt.Sscanf(filepath.Base(newest), "journal-%d.ljr", &seq); err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(newest)
	if err != nil {
		return 0, 0, err
	}
	return seq, st.Size(), nil
}

// journalWritten is the bytes a journal wrote between two positions:
// the rest of the first active segment, MaxSegmentBytes for every
// segment sealed in between, and the new active segment's size. A
// sealed segment ends at most one frame beyond MaxSegmentBytes, so the
// count is exact up to one frame per rotation, and compaction, which
// rewrites only sealed segments, cannot disturb it.
func journalWritten(seq0 int, size0 int64, seq1 int, size1 int64) int64 {
	if seq1 == seq0 {
		return size1 - size0
	}
	sealed := int64(seq1-seq0-1) * journal.DefaultMaxSegmentBytes
	return (journal.DefaultMaxSegmentBytes - size0) + sealed + size1
}

// httpClient is the benchmark's HTTP client: keep-alive connections, at
// most two idle per node (one per client goroutine).
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}
}

// newClient returns a client for n with the benchmark's poll interval.
func newClient(n *node, hc *http.Client) *client.Client {
	c := client.New(n.url, hc)
	c.PollInterval = pollInterval
	return c
}

// counter sums a registry counter across its label sets.
func counter(snap map[string]any, name string) int64 {
	var total int64
	for k, v := range snap {
		if k == name || (len(k) > len(name) && k[:len(name)] == name && k[len(name)] == '{') {
			if c, ok := v.(int64); ok {
				total += c
			}
		}
	}
	return total
}
