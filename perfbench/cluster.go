package main

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/hbserve"
)

// replicas is the fleet size behind the router; replication is its
// owner-set size R.
const (
	replicas    = 3
	replication = 2
)

// replicaPortBase is the first of the replicas' fixed loopback ports.
// The router's consistent-hash ring hashes the replica URLs, so with
// ports the kernel picks, every run got another ring, another share of
// the keys per replica and another latency: one replica took up to 1.8
// times its fair share. Fixed ports give every run the same ring.
const replicaPortBase = 47311

// cluster is the serving tier under test: three hbserve servers and
// one router, each behind its own http.Server on a loopback listener
// in this process.
type cluster struct {
	servers     []*hbserve.Server
	router      *hbserve.Router
	https       []*http.Server
	wg          sync.WaitGroup
	routerURL   string
	replicaURLs []string
}

// startCluster builds and starts the fleet. With a non-nil recorder
// every handler is wrapped to record spans while recording is on.
func startCluster(rec *recorder) (*cluster, error) {
	c := &cluster{}
	for i := 0; i < replicas; i++ {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", replicaPortBase+i))
		if err != nil {
			c.close()
			return nil, fmt.Errorf("listening for replica %d: %w", i, err)
		}
		s := hbserve.NewServer(hbserve.Config{})
		c.servers = append(c.servers, s)
		c.replicaURLs = append(c.replicaURLs, "http://"+ln.Addr().String())
		c.serve(ln, rec.wrap(fmt.Sprintf("replica%d", i), s.Handler()))
	}
	rt, err := hbserve.NewRouter(hbserve.ClusterConfig{Replicas: c.replicaURLs, Replication: replication})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("building router: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.close()
		return nil, fmt.Errorf("listening for router: %w", err)
	}
	c.router = rt
	rt.Start()
	c.routerURL = "http://" + ln.Addr().String()
	c.serve(ln, rec.wrap("router", rt.Handler()))
	return c, nil
}

func (c *cluster) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h}
	c.https = append(c.https, srv)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
}

// close stops the health probes and every server, and waits for the
// serving goroutines to return.
func (c *cluster) close() {
	if c.router != nil {
		c.router.Stop()
	}
	for _, s := range c.https {
		s.Close()
	}
	c.wg.Wait()
}

// client is one client connection: a transport limited to one
// connection per host, used by one goroutine at a time.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends req to base and returns the status and the body, which stays
// valid until the next call.
func (c *client) do(base string, req *request) (int, []byte, error) {
	var (
		hr  *http.Request
		err error
	)
	if req.kind == reqBatch {
		hr, err = http.NewRequest(http.MethodPost, base+req.url, bytes.NewReader(req.body))
		if err == nil {
			hr.Header.Set("Content-Type", ctBatchBinary)
		}
	} else {
		hr, err = http.NewRequest(http.MethodGet, base+req.url, nil)
	}
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), err
}

// record counts one answered request and reports whether it succeeded.
func (t *tally) record(status int, err error) bool {
	t.attempted.Add(1)
	switch {
	case err != nil:
		t.failed.Add(1)
	case status == http.StatusServiceUnavailable:
		t.refused.Add(1)
	case status/100 != 2:
		t.failed.Add(1)
	default:
		return true
	}
	return false
}

// send sends req and tallies it; with chk non-nil the answer is
// checked too, and a wrong one counts as failed. It reports success.
func (t *tally) send(cl *client, base string, req *request, chk *checker) bool {
	status, body, err := cl.do(base, req)
	if !t.record(status, err) {
		return false
	}
	if chk != nil {
		if err := chk.check(req, body); err != nil {
			t.wrong.Add(1)
			fmt.Fprintf(os.Stderr, "wrong answer: %v\n", err)
			return false
		}
	}
	return true
}
