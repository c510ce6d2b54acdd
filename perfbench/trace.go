package main

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"psigene/internal/httpx"
	"psigene/internal/ids"
)

// The traced run records one span per layer boundary, from the
// benchmark's own wrappers around the calls it makes and the hooks it
// injects: the socket round trip (client), a handler wrapping the
// gateway, a detector wrapping the model, a RoundTripper wrapping the
// gateway's upstream transport, and a handler wrapping the webapp. With a
// single client connection only one request is in flight, so every span
// is attributed to the request the client is sending.
const (
	spanClient   = "client.request"
	spanGateway  = "gateway.ServeHTTP"
	spanInspect  = "core.Inspect"
	spanUpstream = "gateway.upstream"
	spanWebapp   = "webapp.ServeHTTP"
)

var spanParent = map[string]string{
	spanGateway:  spanClient,
	spanInspect:  spanGateway,
	spanUpstream: spanGateway,
	spanWebapp:   spanUpstream,
}

type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
}

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	t0    time.Time
	cur   atomic.Int64 // request the client is sending; -1 outside requests
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.cur.Store(-1)
	return t
}

func (t *tracer) record(name string, start time.Time) {
	end := time.Now()
	s := span{Name: name, Parent: spanParent[name], Req: t.cur.Load(),
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}

// selfTimes returns, per layer, the median self time in microseconds
// over the requests that reached it: a span's duration minus the part its
// child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	byReq := map[int64]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.Req < 0 {
			continue
		}
		m := byReq[s.Req]
		if m == nil {
			m = map[string]time.Duration{}
			byReq[s.Req] = m
		}
		m[s.Name] += time.Duration(s.End - s.Start)
	}
	t.mu.Unlock()
	var net, gw, insp, up, web []time.Duration
	for _, m := range byReq {
		c, okc := m[spanClient]
		g, okg := m[spanGateway]
		if !okc || !okg {
			continue
		}
		net = append(net, c-g)
		gw = append(gw, g-m[spanInspect]-m[spanUpstream])
		insp = append(insp, m[spanInspect])
		if u, ok := m[spanUpstream]; ok {
			up = append(up, u-m[spanWebapp])
			web = append(web, m[spanWebapp])
		}
	}
	return map[string]float64{
		"span.net_us":          percentileUS(net, 50),
		"span.gateway_self_us": percentileUS(gw, 50),
		"span.inspect_us":      percentileUS(insp, 50),
		"span.upstream_us":     percentileUS(up, 50),
		"span.webapp_us":       percentileUS(web, 50),
	}
}

// tracedHandler records a span around an http.Handler.
type tracedHandler struct {
	name string
	h    http.Handler
	t    *tracer
}

func (th tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	th.h.ServeHTTP(w, r)
	th.t.record(th.name, start)
}

// tracedDetector records a span around every inspection.
type tracedDetector struct {
	d ids.Detector
	t *tracer
}

func (td tracedDetector) Name() string { return td.d.Name() }

func (td tracedDetector) Inspect(req httpx.Request) ids.Verdict {
	start := time.Now()
	v := td.d.Inspect(req)
	td.t.record(spanInspect, start)
	return v
}

// tracedTransport records a span from the upstream request until its
// response body is drained or closed.
type tracedTransport struct {
	rt http.RoundTripper
	t  *tracer
}

func (tt tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.rt.RoundTrip(r)
	if err != nil {
		tt.t.record(spanUpstream, start)
		return nil, err
	}
	resp.Body = &tracedBody{ReadCloser: resp.Body, t: tt.t, start: start}
	return resp, nil
}

type tracedBody struct {
	io.ReadCloser
	t     *tracer
	start time.Time
	once  sync.Once
}

func (b *tracedBody) done() { b.once.Do(func() { b.t.record(spanUpstream, b.start) }) }

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.done()
	}
	return n, err
}

func (b *tracedBody) Close() error {
	b.done()
	return b.ReadCloser.Close()
}
