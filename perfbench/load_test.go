package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testItem(target string, alert bool, sigs string) *item {
	head := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: test\r\n", target)
	return &item{head: []byte(head), alert: alert, sigs: sigs}
}

// TestOpenLoopChargesStallToQueuedRequests stalls the server once for a
// fixed interval in the middle of an open-loop run. Timed from each
// request's due time, the stall reaches p99: every request due during
// the stall waits for it. Timed from when each request was actually sent
// — what a generator that waits for the server before sending measures —
// only the requests in flight see it, and p99 stays far below it.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 150 * time.Millisecond
	start := time.Now()
	var once sync.Once
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Since(start) > 400*time.Millisecond {
			once.Do(func() { time.Sleep(stall) })
		}
		w.Header().Set(upstreamMarker, "1")
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	ld := &load{items: []*item{testItem("/", false, "")}, callers: []string{"192.0.2.1"}}
	var tl tally
	st, err := openLoop(strings.TrimPrefix(srv.URL, "http://"), ld, 0, 500, 1500*time.Millisecond, 2, &tl)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 0 {
		t.Fatalf("%d failed requests, first: %v", tl.failed, tl.first)
	}
	fromSend := make([]time.Duration, len(st.lat))
	for i := range st.lat {
		fromSend[i] = st.lat[i] - st.lag[i]
	}
	due := time.Duration(percentileUS(st.lat, 99) * 1e3)
	sent := time.Duration(percentileUS(fromSend, 99) * 1e3)
	if due < stall/2 {
		t.Errorf("p99 from due time = %v, want at least %v after a %v stall", due, stall/2, stall)
	}
	if sent > stall/5 {
		t.Errorf("p99 from send time = %v; expected the stall to hide below %v", sent, stall/5)
	}
}

// TestRequestsCycleTheCallerStream checks that request i goes out as
// item i mod len(items) from caller i mod len(callers), so a caller
// stream longer than the item list reaches the server in full.
func TestRequestsCycleTheCallerStream(t *testing.T) {
	var mu sync.Mutex
	var got []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		got = append(got, r.URL.Path+" "+r.Header.Get("X-Forwarded-For"))
		mu.Unlock()
		w.Header().Set(upstreamMarker, "1")
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()
	ld := &load{
		items:   []*item{testItem("/a", false, ""), testItem("/b", false, "")},
		callers: []string{"192.0.2.1", "192.0.2.2", "192.0.2.3"},
	}
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	var tl tally
	for i := 0; i < 6; i++ {
		it, caller := ld.at(i)
		if err := c.send(it, caller, &tl); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"/a 192.0.2.1", "/b 192.0.2.2", "/a 192.0.2.3", "/b 192.0.2.1", "/a 192.0.2.2", "/b 192.0.2.3"}
	if tl.failed != 0 || strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("server saw %q (%d failed), want %q", got, tl.failed, want)
	}
}

// TestExchangeChecksVerdicts serves canned responses and checks that
// exchange accepts exactly the responses that agree with the oracle.
func TestExchangeChecksVerdicts(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/forwarded":
			w.Header().Set(upstreamMarker, "1")
			w.WriteHeader(http.StatusNotFound)
		case "/blocked":
			w.Header().Set("X-Psigene-Signatures", "psigene:1,psigene:4")
			http.Error(w, "blocked", http.StatusForbidden)
		case "/limited":
			http.Error(w, "slow down", http.StatusTooManyRequests)
		}
	}))
	defer srv.Close()
	c, err := dial(strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	cases := []struct {
		it          *item
		wantBlocked bool
		wantKind    string
	}{
		{testItem("/forwarded", false, ""), false, ""},
		{testItem("/blocked", true, "psigene:1,psigene:4"), true, ""},
		{testItem("/blocked", true, "psigene:1"), false, "verdict"},
		{testItem("/blocked", false, ""), false, "verdict"},
		{testItem("/forwarded", true, "psigene:1"), false, "verdict"},
		{testItem("/limited", false, ""), false, "status 429"},
	}
	for _, tc := range cases {
		blocked, err := c.exchange(tc.it, "")
		kind := ""
		if f, ok := err.(*failure); ok {
			kind = f.kind
		} else if err != nil {
			t.Fatalf("%q: unexpected error %v", tc.it.head, err)
		}
		if blocked != tc.wantBlocked || kind != tc.wantKind {
			t.Errorf("%q alert=%v: blocked=%v failure=%q, want %v %q", tc.it.head, tc.it.alert, blocked, kind, tc.wantBlocked, tc.wantKind)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric lists the result
// line carries in step with BENCHMARK.json at the repository root.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		spec []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark %d", c.name, len(c.spec), len(c.defs))
			continue
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), benchmark %s (%s)", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
