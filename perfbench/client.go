package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// conn is one keep-alive HTTP/1.1 client connection. It writes prebuilt
// request bytes and parses only what the verdict check needs, so the
// load generator itself allocates nothing per request.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	out  []byte
	sigs []byte
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	c.close()
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.c, c.br = nc, bufio.NewReaderSize(nc, 16<<10)
	return nil
}

// close drops the connection. A close error on a client socket that is
// being abandoned changes nothing the benchmark reports.
func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
	}
}

// failure classifies a request that did not get the oracle's verdict.
type failure struct {
	kind string // "transport", "verdict" or "status <code>"
	err  error
}

func (f *failure) Error() string { return f.kind + ": " + f.err.Error() }

var (
	headerContentLength = []byte("Content-Length")
	headerSignatures    = []byte("X-Psigene-Signatures")
	headerUpstream      = []byte(upstreamMarker)
)

// exchange sends one request and checks the response against the oracle:
// a block must be a 403 carrying exactly the oracle's signatures, and a
// pass must be the upstream's own response with no signatures. Anything
// else — a transport error, a gateway 5xx, a 429 or 503 shed, a wrong
// verdict — is a *failure. It reports whether the request was blocked.
// A non-empty caller is sent as X-Forwarded-For.
func (c *conn) exchange(it *item, caller string) (blocked bool, err error) {
	c.out = append(c.out[:0], it.head...)
	if caller != "" {
		c.out = append(append(append(c.out, "X-Forwarded-For: "...), caller...), "\r\n"...)
	}
	c.out = append(c.out, "\r\n"...)
	if _, err := c.c.Write(c.out); err != nil {
		return false, &failure{"transport", err}
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return false, &failure{"transport", err}
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return false, &failure{"transport", fmt.Errorf("bad status line %q", line)}
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return false, &failure{"transport", fmt.Errorf("bad status line %q", line)}
	}
	clen, fromUpstream, hasSigs := -1, false, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return false, &failure{"transport", err}
		}
		line = bytes.TrimRight(line, "\r\n")
		if len(line) == 0 {
			break
		}
		k, v, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			continue
		}
		v = bytes.TrimSpace(v)
		switch {
		case bytes.EqualFold(k, headerContentLength):
			if clen, err = strconv.Atoi(string(v)); err != nil {
				return false, &failure{"transport", fmt.Errorf("bad Content-Length %q", v)}
			}
		case bytes.EqualFold(k, headerSignatures):
			hasSigs = true
			c.sigs = append(c.sigs[:0], v...)
		case bytes.EqualFold(k, headerUpstream):
			fromUpstream = true
		}
	}
	if clen < 0 {
		return false, &failure{"transport", errors.New("response without Content-Length")}
	}
	if _, err := c.br.Discard(clen); err != nil {
		return false, &failure{"transport", err}
	}
	switch {
	case it.alert && status == 403 && hasSigs && !fromUpstream:
		if string(c.sigs) != it.sigs {
			return false, &failure{"verdict", fmt.Errorf("signatures %q, oracle %q", c.sigs, it.sigs)}
		}
		return true, nil
	case !it.alert && fromUpstream && !hasSigs:
		return false, nil
	case fromUpstream, status == 403:
		return false, &failure{"verdict", fmt.Errorf("status %d (signatures %q), oracle alert=%v", status, c.sigs, it.alert)}
	}
	return false, &failure{"status " + strconv.Itoa(status), fmt.Errorf("gateway answered %d", status)}
}

// tally counts requests and failures across every phase of a run.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	blocked   int64
	kinds     map[string]int64
	first     error
}

func (t *tally) add(blocked bool, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if blocked {
		t.blocked++
	}
	if err == nil {
		return
	}
	t.failed++
	if t.kinds == nil {
		t.kinds = map[string]int64{}
	}
	kind := "transport"
	var f *failure
	if errors.As(err, &f) {
		kind = f.kind
	}
	t.kinds[kind]++
	if t.first == nil {
		t.first = err
	}
}

// send runs one exchange and records it, re-dialing after a transport
// error. Only a failed re-dial is returned: every other failure is
// counted in t and the phase goes on.
func (c *conn) send(it *item, caller string, t *tally) error {
	blocked, err := c.exchange(it, caller)
	t.add(blocked, err)
	var f *failure
	if errors.As(err, &f) && f.kind == "transport" {
		if rerr := c.redial(); rerr != nil {
			return fmt.Errorf("redial: %w", rerr)
		}
	}
	return nil
}

// closedWindow is one slice of a closed-loop phase.
type closedWindow struct {
	lat []time.Duration
	dur time.Duration
}

// closedLoop sends l's requests back to back over one connection for
// dur, starting at request start, and splits the samples into equal time
// windows. A non-nil tracer gets a client span per request. It returns
// the windows and the index of the next unsent request.
func closedLoop(addr string, l *load, start int, dur time.Duration, windows int, t *tally, tr *tracer) ([]closedWindow, int, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, start, err
	}
	defer c.close()
	ws := make([]closedWindow, windows)
	for w := range ws {
		ws[w].dur = dur / time.Duration(windows)
		ws[w].lat = make([]time.Duration, 0, 4096)
	}
	i := start
	t0 := time.Now()
	for {
		s := time.Now()
		el := s.Sub(t0)
		if el >= dur {
			break
		}
		if tr != nil {
			tr.cur.Store(int64(i))
		}
		it, caller := l.at(i)
		ferr := c.send(it, caller, t)
		d := time.Since(s)
		if tr != nil {
			tr.record(spanClient, s)
			tr.cur.Store(-1)
		}
		if ferr != nil {
			return nil, i, ferr
		}
		w := int(el * time.Duration(windows) / dur)
		ws[w].lat = append(ws[w].lat, d)
		i++
	}
	return ws, i, nil
}

// openStep is one fixed-rate open-loop phase.
type openStep struct {
	rate float64
	lat  []time.Duration // completion minus due time
	late []time.Duration // send start minus when the send could start
	lag  []time.Duration // send start minus due time, in schedule order
}

// openLoop offers l's requests, from request start on, at a fixed rate
// for dur from at most senders connections. Each request has a due time
// on the schedule; any free sender takes the next request, waits for its
// due time and sends it. Latency is timed from the due time, so a stall
// that holds back later requests is charged to them (no coordinated
// omission). The generator's own lateness is measured from the due
// time, or from when a sender became free if the request was already
// overdue.
func openLoop(addr string, l *load, start int, rate float64, dur time.Duration, senders int, t *tally) (*openStep, error) {
	n := int(rate * dur.Seconds())
	interval := float64(time.Second) / rate
	st := &openStep{rate: rate, lat: make([]time.Duration, n), late: make([]time.Duration, n), lag: make([]time.Duration, n)}
	conns := make([]*conn, senders)
	for k := range conns {
		c, err := dial(addr)
		if err != nil {
			for _, c := range conns[:k] {
				c.close()
			}
			return nil, err
		}
		conns[k] = c
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, senders)
	t0 := time.Now().Add(time.Millisecond)
	for k := range conns {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			c := conns[k]
			defer c.close()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) * interval))
				ref := time.Now()
				if ref.Before(due) {
					if senders == 1 {
						spinUntil(due)
					} else {
						waitUntil(due)
					}
					ref = due
				}
				s := time.Now()
				it, caller := l.at(start + i)
				err := c.send(it, caller, t)
				st.lat[i] = time.Since(due)
				st.late[i] = s.Sub(ref)
				st.lag[i] = s.Sub(due)
				if err != nil {
					errs[k] = err
					return
				}
			}
		}(k)
	}
	wg.Wait()
	return st, errors.Join(errs...)
}

// waitUntil blocks until due. time.Sleep rounds short waits up to the
// runtime's timer granularity (about a millisecond), so it only covers
// the far part of a wait; a nanosleep covers most of the rest, and a
// spin the last stretch, which is shorter than a nanosleep overshoots.
func waitUntil(due time.Time) {
	for {
		d := time.Until(due)
		switch {
		case d <= 0:
			return
		case d > 3*time.Millisecond:
			time.Sleep(d - 2*time.Millisecond)
		case d > spinWindow:
			ts := syscall.NsecToTimespec(int64(d - spinWindow))
			_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
		}
	}
}

// spinUntil busy-waits until due. A single sender has nothing in
// flight while it waits, so spinning takes no CPU the stack needs, and
// unlike a sleep it does not let the virtual CPU go idle and wake late.
func spinUntil(due time.Time) {
	for time.Now().Before(due) {
	}
}

// spinWindow is the part of a wait spent spinning: about the median
// overshoot of a nanosleep on an idle virtual CPU.
const spinWindow = 80 * time.Microsecond
