package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/netip"
	"sync"
	"time"

	"psigene/internal/admission"
	"psigene/internal/core"
	"psigene/internal/gateway"
	"psigene/internal/ids"
	"psigene/internal/webapp"
)

// upstreamMarker is set by the benchmark's upstream handler, so the
// client can tell a forwarded response from one the gateway wrote.
const upstreamMarker = "X-Bench-Upstream"

// webappPages is the size of the paper's vulnerable application.
const webappPages = 136

// upstream serves the in-repo webapp. The webapp's in-memory database is
// not safe for concurrent statements, so calls into it are serialized.
type upstream struct {
	mu  sync.Mutex
	app *webapp.App
	t   *tracer
}

func (u *upstream) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set(upstreamMarker, "1")
	u.mu.Lock()
	defer u.mu.Unlock()
	if u.t == nil {
		u.app.ServeHTTP(w, r)
		return
	}
	start := time.Now()
	u.app.ServeHTTP(w, r)
	u.t.record(spanWebapp, start)
}

// admissionConfig is a production-shaped admission setup behind a
// trusted loopback proxy: callers are keyed by X-Forwarded-For, every
// tier is on with limits no workload reaches (a 429 is a failure here),
// and the LRU is far smaller than benign-mix's caller population.
func admissionConfig() (admission.Config, error) {
	trusted, err := admission.BuildCIDRSet([]netip.Prefix{netip.MustParsePrefix("127.0.0.0/8")})
	if err != nil {
		return admission.Config{}, err
	}
	return admission.Config{
		QPS: 1 << 20, QPM: 1 << 26, QPD: 1 << 30,
		MaxCallers: maxCallers,
		Seed:       1,
		Identity:   admission.Identity{TrustedProxies: trusted},
	}, nil
}

// stack is the serving system under test: the gateway with per-client
// admission in front of the webapp, each on its own loopback listener.
type stack struct {
	transport *http.Transport
	servers   []*http.Server
	done      chan error
	addr      string
}

// startStack loads the model from its saved bytes and brings the stack
// up; this is what setup_s times. A non-nil tracer installs the span
// wrappers.
func startStack(modelJSON []byte, t *tracer) (*stack, error) {
	m, err := core.Load(bytes.NewReader(modelJSON))
	if err != nil {
		return nil, fmt.Errorf("load model: %w", err)
	}
	cfg, err := admissionConfig()
	if err != nil {
		return nil, err
	}
	// done has room for both servers' Serve results.
	s := &stack{done: make(chan error, 2)}

	up := &upstream{app: webapp.New(webappPages), t: t}
	upLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.serve(upLn, up)

	s.transport = &http.Transport{MaxIdleConnsPerHost: 8, IdleConnTimeout: time.Minute}
	var rt http.RoundTripper = s.transport
	var det ids.Detector = m
	if t != nil {
		rt, det = tracedTransport{rt: rt, t: t}, tracedDetector{d: m, t: t}
	}
	gw, err := gateway.New("http://"+upLn.Addr().String(), det, gateway.Options{
		Admission: admission.New(cfg),
		Client:    &http.Client{Transport: rt},
	})
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	var h http.Handler = gw
	if t != nil {
		h = tracedHandler{name: spanGateway, h: h, t: t}
	}
	s.serve(gwLn, h)
	s.addr = gwLn.Addr().String()
	return s, nil
}

func (s *stack) serve(ln net.Listener, h http.Handler) {
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	s.servers = append(s.servers, srv)
	go func() { s.done <- srv.Serve(ln) }()
}

// close stops both servers and waits for their Serve loops to return.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(s.servers) - 1; i >= 0; i-- {
		if err := s.servers[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	for range s.servers {
		if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	return errors.Join(errs...)
}
