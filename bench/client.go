package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"net"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// The benchmark's own load generator: a hand-written HTTP/1.1 request
// over one kept-alive TCP connection per (client, node), net/http only
// to parse the response. It is the measuring instrument, so it is not
// shared with product code a later change may alter.

// requestTimeout bounds one round trip; a request that hits it failed.
const requestTimeout = 30 * time.Second

// reqSpec is one pre-encoded request.
type reqSpec struct {
	submit bool   // POST /v1/queries, else GET /v1/history
	fed    string // federation the request names
	query  string
	raw    []byte // the request as written to the wire
}

// encodeSubmit renders POST /v1/queries for fed, query and weights.
func encodeSubmit(fed, query string, weights [2]float64) reqSpec {
	body, err := json.Marshal(server.QueryRequest{Federation: fed, Query: query, Weights: weights[:]})
	if err != nil {
		panic(err) // a struct of strings and floats always marshals
	}
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST /v1/queries HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return reqSpec{submit: true, fed: fed, query: query, raw: b.Bytes()}
}

// encodeHistoryRead renders GET /v1/history/{query}?limit=.
func encodeHistoryRead(fed, query string, limit int) reqSpec {
	raw := fmt.Sprintf("GET /v1/history/%s?federation=%s&limit=%d HTTP/1.1\r\nHost: bench\r\n\r\n", query, url.QueryEscape(fed), limit)
	return reqSpec{fed: fed, query: query, raw: []byte(raw)}
}

// hconn is one kept-alive connection to one node.
type hconn struct {
	c  net.Conn
	br *bufio.Reader
}

// client is one closed-loop user: at most one request in flight, one
// connection per node it has talked to.
type client struct {
	conns map[string]*hconn
	body  bytes.Buffer
	tr    *tracer
}

func newClient(tr *tracer) *client { return &client{conns: make(map[string]*hconn), tr: tr} }

func (c *client) close() {
	for addr, hc := range c.conns {
		hc.c.Close()
		delete(c.conns, addr)
	}
}

// roundTrip writes raw to addr and reads the whole response; the body
// stays valid until the next call.
func (c *client) roundTrip(addr string, raw []byte) (status int, location string, body []byte, err error) {
	hc := c.conns[addr]
	if hc == nil {
		conn, err := net.DialTimeout("tcp", addr, requestTimeout)
		if err != nil {
			return 0, "", nil, err
		}
		hc = &hconn{c: conn, br: bufio.NewReader(conn)}
		c.conns[addr] = hc
	}
	fail := func(err error) (int, string, []byte, error) {
		hc.c.Close()
		delete(c.conns, addr)
		return 0, "", nil, err
	}
	if err := hc.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return fail(err)
	}
	if _, err := hc.c.Write(raw); err != nil {
		return fail(err)
	}
	resp, err := http.ReadResponse(hc.br, nil)
	if err != nil {
		return fail(err)
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fail(err)
	}
	return resp.StatusCode, resp.Header.Get("Location"), c.body.Bytes(), nil
}

// outcome is what one logical request (redirects followed) came to.
type outcome struct {
	rtt    time.Duration
	err    error // nil = 200 and a valid body
	submit bool
	resp   server.QueryResponse // decoded submit response
}

// do sends spec to addr, following 307s by hand, and validates the
// answer with check. The round-trip time stops when the last byte of
// the body is read, before any decoding.
func (c *client) do(addr string, spec *reqSpec, check func(*reqSpec, *server.QueryResponse) error) outcome {
	out := outcome{submit: spec.submit}
	c.tr.nextRequest()
	reqSpan := c.tr.begin(spanRequest)
	began := time.Now()
	var status int
	var body []byte
	for hop := 0; ; hop++ {
		postSpan := c.tr.begin(spanPost)
		var loc string
		status, loc, body, out.err = c.roundTrip(addr, spec.raw)
		c.tr.end(postSpan)
		if out.err != nil || status != http.StatusTemporaryRedirect {
			break
		}
		if hop == 3 {
			out.err = errors.New("more than 3 redirects")
			break
		}
		u, err := url.Parse(loc)
		if err != nil || u.Host == "" {
			out.err = fmt.Errorf("307 with bad Location %q", loc)
			break
		}
		addr = u.Host
	}
	out.rtt = time.Since(began)
	c.tr.end(reqSpan)
	if out.err != nil {
		return out
	}
	if status != http.StatusOK {
		out.err = fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
		return out
	}
	if spec.submit {
		if err := json.Unmarshal(body, &out.resp); err != nil {
			out.err = fmt.Errorf("decoding response: %w", err)
		} else {
			out.err = check(spec, &out.resp)
		}
		return out
	}
	var hist struct {
		Observations []json.RawMessage `json:"observations"`
	}
	if err := json.Unmarshal(body, &hist); err != nil {
		out.err = fmt.Errorf("decoding history: %w", err)
	} else if len(hist.Observations) == 0 {
		out.err = errors.New("history page is empty")
	}
	return out
}

// sample is one finished request as the aggregation sees it.
type sample struct {
	rttNs      int64
	ok         bool
	submit     bool
	relErrTime float64 // |estimated − measured| / measured
	relErrUSD  float64
}

// load is the result of one block or round of requests.
type load struct {
	samples   []sample
	attempted int
	failed    int
	firstErr  error
	elapsed   time.Duration
	acked     map[string]int // "fed/query" → submits answered 200
}

// digestLen is how many decisions the digest covers at most.
const digestLen = 1000

// driver sends a workload's request sequence to a booted stack.
type driver struct {
	st      *stack
	seq     func(i uint64) (node int, spec *reqSpec)
	check   func(*reqSpec, *server.QueryResponse) error
	clients []*client
	next    atomic.Uint64 // global request number

	// The digest covers the decisions made while one client drove the
	// stack alone, the only time their order is defined.
	digestN   int
	digestSum hash.Hash
}

func newDriver(st *stack, conns int, seq func(uint64) (int, *reqSpec), check func(*reqSpec, *server.QueryResponse) error, tr *tracer) *driver {
	d := &driver{st: st, seq: seq, check: check, digestSum: sha256.New()}
	for i := 0; i < conns; i++ {
		d.clients = append(d.clients, newClient(tr))
	}
	return d
}

func (d *driver) close() {
	for _, c := range d.clients {
		c.close()
	}
}

// one sends the next request of the sequence on client c.
func (d *driver) one(c *client) (outcome, *reqSpec) {
	node, spec := d.seq(d.next.Add(1) - 1)
	return c.do(d.st.nodes[node].addr, spec, d.check), spec
}

// record folds one outcome into a worker's load.
func (d *driver) record(l *load, out outcome, spec *reqSpec, alone bool) {
	l.attempted++
	s := sample{rttNs: int64(out.rtt), submit: out.submit, ok: out.err == nil}
	if out.err != nil {
		l.failed++
		if l.firstErr == nil {
			l.firstErr = fmt.Errorf("%s %s: %w", spec.fed, spec.query, out.err)
		}
	} else if out.submit {
		s.relErrTime = math.Abs(out.resp.EstimatedTimeS-out.resp.MeasuredTimeS) / out.resp.MeasuredTimeS
		s.relErrUSD = math.Abs(out.resp.EstimatedUSD-out.resp.MeasuredUSD) / out.resp.MeasuredUSD
		l.acked[spec.fed+"/"+spec.query]++
		if alone {
			d.addDigest(&out.resp)
		}
	}
	l.samples = append(l.samples, s)
}

// addDigest extends the digest of (plan, estimated, measured) triples.
func (d *driver) addDigest(r *server.QueryResponse) {
	if d.digestN >= digestLen {
		return
	}
	d.digestN++
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fmt.Fprintf(d.digestSum, "%s %t %d %d %s %s %s %s\n", r.Plan.Query, r.Plan.JoinAtLeft, r.Plan.NodesLeft, r.Plan.NodesRight,
		g(r.EstimatedTimeS), g(r.EstimatedUSD), g(r.MeasuredTimeS), g(r.MeasuredUSD))
}

// digest returns the digest of the first digestLen decisions one
// client made alone, "" when there was none.
func (d *driver) digest() string {
	if d.digestN == 0 {
		return ""
	}
	return hex.EncodeToString(d.digestSum.Sum(nil))[:16]
}

// count adds p's counters — not its samples — to l and returns p, so a
// load can keep the running total of everything one stack was sent.
func (l *load) count(p *load) *load {
	if l.acked == nil {
		l.acked = make(map[string]int)
	}
	l.attempted += p.attempted
	l.failed += p.failed
	if l.firstErr == nil {
		l.firstErr = p.firstErr
	}
	for k, n := range p.acked {
		l.acked[k] += n
	}
	return p
}

// merge joins the workers' loads.
func merge(parts []*load, elapsed time.Duration) *load {
	out := &load{elapsed: elapsed}
	for _, p := range parts {
		out.count(p)
		out.samples = append(out.samples, p.samples...)
	}
	return out
}

// closed runs the closed loop on the first conns clients: each sends its
// next request as soon as the previous one completes, until stop says
// so. stop is asked before each request with the number already claimed.
func (d *driver) closed(conns int, stop func(claimed int64) bool) *load {
	parts := make([]*load, conns)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	began := time.Now()
	for i, c := range d.clients[:conns] {
		parts[i] = &load{acked: make(map[string]int)}
		wg.Add(1)
		go func(c *client, l *load) {
			defer wg.Done()
			for !stop(claimed.Add(1) - 1) {
				out, spec := d.one(c)
				d.record(l, out, spec, conns == 1)
			}
		}(c, parts[i])
	}
	wg.Wait()
	return merge(parts, time.Since(began))
}

// sequential sends exactly n requests from one client, so that what
// they do — decisions, counts, heap — does not depend on interleaving.
func (d *driver) sequential(n int) *load {
	return d.closed(1, func(claimed int64) bool { return claimed >= int64(n) })
}

// closedCount sends exactly n requests from every client.
func (d *driver) closedCount(n int) *load {
	return d.closed(len(d.clients), func(claimed int64) bool { return claimed >= int64(n) })
}

// sequentialFor sends requests from one client for dur.
func (d *driver) sequentialFor(dur time.Duration) *load {
	deadline := time.Now().Add(dur)
	return d.closed(1, func(int64) bool { return !time.Now().Before(deadline) })
}

// rtts returns the sorted round-trip times, in ms, of the successful
// samples.
func rtts(samples []sample) []float64 {
	var out []float64
	for i := range samples {
		if samples[i].ok {
			out = append(out, float64(samples[i].rttNs)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}
