package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"

	"psigene/internal/attackgen"
	"psigene/internal/core"
	"psigene/internal/httpx"
	"psigene/internal/traffic"
)

// The two serving workloads. Both are built from the run's seed; the
// program under test only ever sees the generated requests.
//
//   - benign-mix is the production shape (the paper's week-long benign
//     trace): 95% benign GETs with 5% SQLMap attacks interleaved evenly.
//     Callers come from a stream of their own, zipfian over 2^18
//     addresses, so a run meets about 14,900 distinct callers, ~14.5x
//     the admission LRU bound. Most requests are forwarded, so the
//     forward leg, net/http and admission LRU churn do most of the work,
//     and the literal prefilter skips most regex evaluations.
//   - attack-burst is a scanner burst: 90% attacks across all four
//     attackgen profiles (with their tampers) from a handful of scanner
//     IPs. The prefilter lets most patterns through, so regex feature
//     counting dominates; most requests are blocked with 403, so the
//     forward leg does little and admission stays on LRU hits.
//
// A workload returns its distinct requests and its caller stream:
// request i of a run is reqs[i mod len(reqs)], sent by
// callers[i mod len(callers)].
var workloads = map[string]func(seed int64, n int) ([]httpx.Request, []string){
	"benign-mix":   benignMix,
	"attack-burst": attackBurst,
}

// Workload sizes. distinctRequests is how many distinct requests a
// serving run cycles through. benign-mix draws callerStream callers,
// zipfian (s=1.1) over callerPopulation addresses: about 14,900
// distinct ones, and a run sends more requests than the stream holds, so
// it meets them all. The admission LRU bound, maxCallers, is scaled down
// with them from the deployed default of 65536, which faces populations
// of millions: at 1024 the run's population is ~14.5x the bound, so the
// LRU churns as a deployed one does, and evicts in every pass.
const (
	distinctRequests = 8192
	callerStream     = 1 << 16
	callerPopulation = 1 << 18
	maxCallers       = 1024
)

// interleave spreads minority evenly through majority: element i of the
// result is a minority item whenever the running share falls behind.
func interleave(majority, minority []httpx.Request) []httpx.Request {
	total := len(majority) + len(minority)
	out := make([]httpx.Request, 0, total)
	ai, bi := 0, 0
	for i := 0; i < total; i++ {
		if ai < len(minority) && (i+1)*len(minority) > ai*total {
			out = append(out, minority[ai])
			ai++
			continue
		}
		out = append(out, majority[bi])
		bi++
	}
	return out
}

func benignMix(seed int64, n int) ([]httpx.Request, []string) {
	attacks := n / 20
	reqs := interleave(
		traffic.NewGenerator(seed*31+1).Requests(n-attacks),
		attackgen.NewGenerator(attackgen.SQLMapProfile(), seed*31+2).Requests(attacks),
	)
	rng := rand.New(rand.NewSource(seed*31 + 3))
	zipf := rand.NewZipf(rng, 1.1, 1, callerPopulation-1)
	callers := make([]string, callerStream)
	for i := range callers {
		k := zipf.Uint64()
		callers[i] = fmt.Sprintf("10.%d.%d.%d", k>>16&0xff, k>>8&0xff, k&0xff)
	}
	return reqs, callers
}

func attackBurst(seed int64, n int) ([]httpx.Request, []string) {
	profiles := []attackgen.Profile{
		attackgen.CrawlProfile(), attackgen.SQLMapProfile(),
		attackgen.ArachniProfile(), attackgen.VegaProfile(),
	}
	benign := n / 10
	gens := make([]*attackgen.Generator, len(profiles))
	for k, p := range profiles {
		gens[k] = attackgen.NewGenerator(p, seed*31+int64(k)+1)
	}
	attacks := make([]httpx.Request, n-benign)
	scanner := make([]string, n-benign)
	for i := range attacks {
		k := i % len(gens)
		attacks[i] = gens[k].Sample().Request
		scanner[i] = fmt.Sprintf("203.0.113.%d", k+1)
	}
	reqs := interleave(attacks, traffic.NewGenerator(seed*31+9).Requests(benign))
	callers := make([]string, len(reqs))
	ai := 0
	for i, r := range reqs {
		if r.Malicious {
			callers[i] = scanner[ai]
			ai++
		} else {
			callers[i] = fmt.Sprintf("198.51.100.%d", 1+i%4)
		}
	}
	return reqs, callers
}

// item is one prebuilt request: its wire bytes up to the caller header
// for the socket client, the server-side *http.Request for in-process
// layer timings (sent by the caller the stream pairs it with first), the
// httpx view the gateway scores, and the verdict the in-process oracle
// expects.
type item struct {
	view  httpx.Request
	head  []byte
	req   *http.Request
	alert bool
	sigs  string // expected X-Psigene-Signatures on a block
}

// wireTarget renders a generated request as an origin-form request
// target. Bytes a request line cannot carry (controls, space, non-ASCII,
// '#') are percent-encoded; the oracle scores the target as the server
// parses it back, so the gateway and the oracle see the same payload.
func wireTarget(r httpx.Request) string {
	path := r.Path
	if path == "" {
		path = "/"
	}
	if r.RawQuery == "" {
		return path
	}
	var b strings.Builder
	b.WriteString(path)
	b.WriteByte('?')
	for i := 0; i < len(r.RawQuery); i++ {
		c := r.RawQuery[i]
		if c <= ' ' || c >= 0x7f || c == '#' {
			fmt.Fprintf(&b, "%%%02X", c)
			continue
		}
		b.WriteByte(c)
	}
	return b.String()
}

// load is what a serving run sends: request i is items[i mod len(items)]
// from callers[i mod len(callers)].
type load struct {
	items   []*item
	callers []string
}

func (l *load) at(i int) (*item, string) {
	return l.items[i%len(l.items)], l.callers[i%len(l.callers)]
}

// distinctCallers counts the addresses in the caller stream.
func (l *load) distinctCallers() int {
	seen := make(map[string]struct{}, len(l.callers))
	for _, c := range l.callers {
		seen[c] = struct{}{}
	}
	return len(seen)
}

// buildItems prepares every request of a workload and computes the
// oracle verdicts with oracle (a separately loaded copy of the serving
// model). It also re-verifies that the literal prefilter does not change
// any verdict on these requests; a disagreement fails the run.
func buildItems(reqs []httpx.Request, callers []string, oracle *core.Model) ([]*item, error) {
	items := make([]*item, len(reqs))
	for i, r := range reqs {
		target := wireTarget(r)
		u, err := url.ParseRequestURI(target)
		if err != nil {
			return nil, fmt.Errorf("request %d: target %q: %w", i, target, err)
		}
		view := httpx.Request{Method: "GET", Host: r.Host, Path: u.Path, RawQuery: u.RawQuery}
		if view.Path == "" {
			view.Path = "/"
		}
		hr := httptest.NewRequest(http.MethodGet, target, nil)
		hr.Host = r.Host
		hr.RemoteAddr = "127.0.0.1:40000"
		hr.Header.Set("X-Forwarded-For", callers[i%len(callers)])
		head := fmt.Sprintf("GET %s HTTP/1.1\r\nHost: %s\r\n", target, r.Host)
		items[i] = &item{view: view, head: []byte(head), req: hr}
	}
	for pass, on := range []bool{false, true} {
		oracle.SetPrefilter(on)
		for i, it := range items {
			v := oracle.Inspect(it.view)
			if pass == 0 {
				it.alert, it.sigs = v.Alert, strings.Join(v.Matched, ",")
				continue
			}
			if v.Alert != it.alert || strings.Join(v.Matched, ",") != it.sigs {
				return nil, fmt.Errorf("prefilter parity violated on request %d (%q): on=%+v off alert=%v sigs=%q",
					i, it.view.RawQuery, v, it.alert, it.sigs)
			}
		}
	}
	return items, nil
}
