package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/obsv"
	"repro/internal/server"
)

// node is one in-process fusiond: a server.Server behind an http.Server
// on a loopback listener.
type node struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

// daemonOptions are fusiond's defaults (cmd/fusiond) with the admission
// limits the benchmark serves under: fusion cache 4096 with the zoo
// pre-warmer, group commit on a data dir, 64 in flight, 128 queued, 5 s
// queue timeout. accessLog sizes the /debug/log ring (0 = default).
func daemonOptions(dir string, accessLog int) server.Options {
	return server.Options{
		MaxInFlight:  64,
		QueueDepth:   128,
		QueueTimeout: 5 * time.Second,
		DataDir:      dir,
		GroupCommit:  true,
		FusionCache:  4096,
		PrewarmZoo:   true,
		AccessLog:    accessLog,
	}
}

// startNode boots one fusiond with opts on a loopback listener.
func startNode(opts server.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv, err := server.New(opts)
	if err != nil {
		ln.Close()
		return nil, fmt.Errorf("boot fusiond on %s: %w", opts.DataDir, err)
	}
	n := &node{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan struct{}),
		hs: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	}()
	return n, nil
}

// close drains the server the way fusiond does on SIGTERM — engines
// first (final snapshots), then the listener — and waits for the serve
// goroutine to exit.
func (n *node) close() error {
	err := n.srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := n.hs.Shutdown(ctx); serr != nil {
		err = errors.Join(err, serr)
	}
	<-n.done
	return err
}

// stack is the fusiond a workload runs against, in a private data
// directory removed on close.
type stack struct {
	leader *node
	root   string
}

// bootSingle boots one fusiond with its data under root.
func bootSingle(root string, accessLog int) (*stack, error) {
	n, err := startNode(daemonOptions(filepath.Join(root, "leader"), accessLog))
	if err != nil {
		return nil, err
	}
	return &stack{leader: n, root: root}, nil
}

func (s *stack) close() error {
	return errors.Join(s.leader.close(), os.RemoveAll(s.root))
}

// client is one closed-loop caller's keep-alive HTTP client.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

// newTransport returns a transport holding one keep-alive connection per
// client goroutine.
func newTransport(clients int) *http.Transport {
	return &http.Transport{
		MaxIdleConns:        clients + 4,
		MaxIdleConnsPerHost: clients + 4,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
}

// reply is one HTTP exchange's outcome. body aliases the client's buffer
// and is valid until the client's next call.
type reply struct {
	status int
	cache  string
	body   []byte
}

// do sends one request and reads the whole reply. reqID, when set, is
// sent as the request id the server logs under.
func (c *client) do(method, url string, body []byte, reqID string) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(obsv.HeaderRequestID, reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, fmt.Errorf("%s %s: reading body: %w", method, url, err)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Fusion-Cache"), body: c.buf.Bytes()}, nil
}

// getJSON fetches url and decodes a 200 reply into dst.
func (c *client) getJSON(url string, dst any) error {
	r, err := c.do(http.MethodGet, url, nil, "")
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: %d %s", url, r.status, bytes.TrimSpace(r.body))
	}
	return json.Unmarshal(r.body, dst)
}
