package hbserve

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The router's transport to its replicas. Every forward, /batch
// forward and health probe is one synchronous HTTP/1.1 round trip on
// the calling goroutine, over a keep-alive connection taken from the
// replica's idle stack: write the request and flush once, read the
// answer with http.ReadResponse, read the body in full, and put the
// connection back unless the replica asked to close it. There is no
// per-connection reader or writer goroutine and no channel hand-off,
// which is what net/http.Client's transport spends most of a
// loopback hop on.
//
// A connection that sat idle may have been closed by the replica (an
// idle timeout, a restart). When a reused connection fails before any
// byte of the answer arrived, the attempt redials once and sends again;
// every router→replica request is a pure query, so resending is safe,
// and a stale socket is not the replica's fault, so it feeds neither
// ejection nor the retry counter.

// replicaConns is one replica's endpoint and its idle keep-alive
// connections.
type replicaConns struct {
	url    string // normalised base URL, as X-Replica and /cluster report it
	addr   string // host:port to dial, also the Host header
	prefix string // escaped path prefix of the base URL, without a trailing slash

	mu     sync.Mutex
	idle   []*replicaConn // a stack: the most recently returned is reused first
	closed bool
}

// replicaConn is one keep-alive connection with its buffers.
type replicaConn struct {
	net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

// newReplicaConns parses a replica base URL. The pool speaks plain
// HTTP/1.1, so only http://host:port, optionally with a path prefix, is
// accepted.
func newReplicaConns(raw string) (*replicaConns, error) {
	s := strings.TrimRight(strings.TrimSpace(raw), "/")
	u, err := url.Parse(s)
	if err != nil {
		return nil, fmt.Errorf("hbserve: replica URL %q: %v", raw, err)
	}
	if u.Scheme != "http" || u.Hostname() == "" || u.Port() == "" || u.User != nil ||
		u.Opaque != "" || u.RawQuery != "" || u.ForceQuery || u.Fragment != "" {
		return nil, fmt.Errorf("hbserve: replica URL %q: want http://host:port with an optional path prefix", raw)
	}
	return &replicaConns{url: s, addr: u.Host, prefix: u.EscapedPath()}, nil
}

// aLongTimeAgo is a deadline in the past: setting it aborts any
// blocked read or write on the connection at once.
var aLongTimeAgo = time.Unix(1, 0)

// roundTrip sends one request to the replica and reads the whole answer
// body into body, replacing its contents. target is the request path
// below the base URL, with its query. Each exchange runs under its own
// deadline of timeout, the dial included, and ends early once ctx is
// done. The returned response's Body is already drained and closed.
func (p *replicaConns) roundTrip(ctx context.Context, method, target, contentType string, reqBody []byte, timeout time.Duration, body *bytes.Buffer) (*http.Response, error) {
	body.Reset()
	if c := p.get(); c != nil {
		resp, stale, err := p.exchange(ctx, c, method, target, contentType, reqBody, timeout, body)
		if !stale {
			return resp, err
		}
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	c := &replicaConn{Conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	resp, _, err := p.exchange(ctx, c, method, target, contentType, reqBody, timeout, body)
	return resp, err
}

// exchange runs one request/response on c and returns c to the idle
// stack when it is still reusable, closing it otherwise. stale reports
// a failure before any byte of the answer arrived that was not a
// deadline: the replica had already dropped the connection.
func (p *replicaConns) exchange(ctx context.Context, c *replicaConn, method, target, contentType string, reqBody []byte, timeout time.Duration, body *bytes.Buffer) (resp *http.Response, stale bool, err error) {
	c.SetDeadline(time.Now().Add(timeout))
	stop := context.AfterFunc(ctx, func() { c.SetDeadline(aLongTimeAgo) })
	resp, stale, err = p.send(c, method, target, contentType, reqBody, body)
	// Once the abort ran, a late past deadline could land on the next
	// user of the connection; it is not returned to the stack then.
	if !stop() || err != nil || resp.Close {
		c.Close()
	} else {
		p.put(c)
	}
	return resp, stale, err
}

func (p *replicaConns) send(c *replicaConn, method, target, contentType string, reqBody []byte, body *bytes.Buffer) (*http.Response, bool, error) {
	bw := c.bw
	bw.WriteString(method)
	bw.WriteByte(' ')
	bw.WriteString(p.prefix)
	bw.WriteString(target)
	bw.WriteString(" HTTP/1.1\r\nHost: ")
	bw.WriteString(p.addr)
	if contentType != "" {
		bw.WriteString("\r\nContent-Type: ")
		bw.WriteString(contentType)
	}
	bw.WriteString("\r\nContent-Length: ")
	bw.Write(strconv.AppendInt(bw.AvailableBuffer(), int64(len(reqBody)), 10))
	bw.WriteString("\r\n\r\n")
	bw.Write(reqBody)
	if err := bw.Flush(); err != nil {
		return nil, !errors.Is(err, os.ErrDeadlineExceeded), err
	}
	if _, err := c.br.Peek(1); err != nil {
		return nil, !errors.Is(err, os.ErrDeadlineExceeded), err
	}
	// ReadResponse reads the body of any method but HEAD; only a HEAD
	// answer needs the request to frame it.
	var req *http.Request
	if method == http.MethodHead {
		req = &http.Request{Method: method}
	}
	resp, err := http.ReadResponse(c.br, req)
	if err != nil {
		return nil, false, err
	}
	_, err = body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, false, err
	}
	return resp, false, nil
}

// get pops the most recently returned idle connection, or nil.
func (p *replicaConns) get() *replicaConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

// put returns c to the idle stack, or closes it once the stack holds
// DefaultQueueDepth connections or the pool was closed.
func (p *replicaConns) put(c *replicaConn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < DefaultQueueDepth {
		p.idle = append(p.idle, c)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	c.Close()
}

// closeIdle closes every idle connection; connections in use are closed
// when their exchange ends.
func (p *replicaConns) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, true
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}
