package gateway

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// hopByHopHeaders are stripped when copying headers either direction
// (RFC 9110 §7.6.1), together with any header the Connection field
// names; everything else passes through untouched.
var hopByHopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// forward is the upstream leg: breaker check, a bounded-deadline round
// trip, and a fully-buffered bounded body read before the first byte is
// written downstream. Buffering first means a mid-body upstream failure
// (reset, truncation) becomes a clean 502 instead of a half-written 200.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, body []byte, budget time.Duration) {
	if !g.breakerAllow() {
		g.stats.breakerRejected.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(g.opts.RetryAfter))
		http.Error(w, "gateway: upstream circuit open", http.StatusServiceUnavailable)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	target := *g.upstream
	target.Path = r.URL.Path
	target.RawQuery = r.URL.RawQuery
	out, err := http.NewRequestWithContext(ctx, r.Method, target.String(), bytes.NewReader(body))
	if err != nil {
		g.upstreamFailed(w, err)
		return
	}
	copyHeaders(out.Header, r.Header)
	setForwardedFor(out.Header, r)

	// One round trip, not Client.Do: an upstream redirect is the
	// application's answer and goes back to the client with its Location
	// and cookies, instead of being followed here unscored.
	resp, err := g.transport.RoundTrip(out)
	if err != nil {
		g.upstreamFailed(w, err)
		return
	}
	defer resp.Body.Close()

	// Bounded full read: a Truncate fault or oversized response surfaces
	// here, while downstream has seen nothing yet.
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, g.opts.MaxResponseBytes+1))
	if err != nil {
		g.upstreamFailed(w, err)
		return
	}
	if int64(len(respBody)) > g.opts.MaxResponseBytes {
		g.upstreamFailed(w, errResponseTooLarge)
		return
	}

	// The round trip completed: the transport is healthy, whatever the
	// status. Upstream 5xx are application responses (the demo webapp
	// answers SQL errors with 500) and pass through without feeding the
	// breaker — the breaker protects against a dead transport, not an
	// unhappy application.
	g.breakerSuccess()
	g.stats.forwarded.Add(1)

	copyHeaders(w.Header(), resp.Header)
	w.Header().Set("Content-Length", strconv.Itoa(len(respBody)))
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(respBody)
}

// errResponseTooLarge marks an upstream body that blew the cap.
var errResponseTooLarge = errTooLarge{}

type errTooLarge struct{}

func (errTooLarge) Error() string { return "gateway: upstream response exceeds cap" }

// upstreamFailed answers 502 and feeds the breaker one failure.
func (g *Gateway) upstreamFailed(w http.ResponseWriter, err error) {
	g.stats.upstreamErrors.Add(1)
	g.breakerFailure()
	http.Error(w, "gateway: upstream failed: "+err.Error(), http.StatusBadGateway)
}

// breakerAllow, breakerSuccess, breakerFailure wrap the single-threaded
// resilience.Breaker in the gateway mutex. A nil breaker allows all.
func (g *Gateway) breakerAllow() bool {
	if g.breaker == nil {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.breaker.Allow()
}

func (g *Gateway) breakerSuccess() {
	if g.breaker == nil {
		return
	}
	g.mu.Lock()
	g.breaker.Success()
	g.mu.Unlock()
}

func (g *Gateway) breakerFailure() {
	if g.breaker == nil {
		return
	}
	g.mu.Lock()
	g.breaker.Failure()
	g.mu.Unlock()
}

// setForwardedFor appends the client IP (RemoteAddr minus the port) to
// any X-Forwarded-For chain an outer proxy already built (as copied into
// h), rather than overwriting it.
func setForwardedFor(h http.Header, r *http.Request) {
	ip := r.RemoteAddr
	if host, _, err := net.SplitHostPort(ip); err == nil {
		ip = host
	}
	if ip == "" {
		return
	}
	if prior := strings.Join(h.Values("X-Forwarded-For"), ", "); prior != "" {
		ip = prior + ", " + ip
	}
	h.Set("X-Forwarded-For", ip)
}

// copyHeaders adds src's end-to-end headers to dst.
func copyHeaders(dst, src http.Header) {
	conn := src.Values("Connection")
	for k, vs := range src {
		if hopByHopHeaders[http.CanonicalHeaderKey(k)] || listsToken(conn, k) {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// listsToken reports whether any comma-separated element of vs equals
// tok, ignoring case and surrounding whitespace.
func listsToken(vs []string, tok string) bool {
	for _, v := range vs {
		for v != "" {
			var elem string
			elem, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(elem), tok) {
				return true
			}
		}
	}
	return false
}
