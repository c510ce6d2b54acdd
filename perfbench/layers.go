package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"psigene/internal/acmatch"
	"psigene/internal/admission"
	"psigene/internal/core"
	"psigene/internal/feature"
	"psigene/internal/gateway"
	"psigene/internal/httpx"
	"psigene/internal/ids"
	"psigene/internal/normalize"
	"psigene/internal/webapp"
)

// Per-layer costs come from outside the program: each layer's public
// entry point is timed in isolation on the workload's prebuilt inputs.

const (
	layerReps   = 3                     // timed repetitions; the median is reported
	layerMinDur = 60 * time.Millisecond // each repetition runs whole passes for at least this long
	// patternMinDur is shorter: the attribution table times every regex
	// feature of the model, and ranks them rather than reporting each.
	patternMinDur = 0
)

// opCost is the per-call cost of one timed operation.
type opCost struct{ ns, allocs, bytes float64 }

// timeOp calls op(i) over i = 0..n-1 in whole passes until layerMinDur
// has elapsed, layerReps times, and returns per-call medians.
func timeOp(n int, op func(i int)) opCost { return timeOpFor(n, layerMinDur, op) }

func timeOpFor(n int, minDur time.Duration, op func(i int)) opCost {
	var ns, allocs, bytes []float64
	for r := 0; r < layerReps; r++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		calls := 0
		start := time.Now()
		for calls == 0 || time.Since(start) < minDur {
			for i := 0; i < n; i++ {
				op(i)
			}
			calls += n
		}
		el := time.Since(start)
		runtime.ReadMemStats(&m1)
		ns = append(ns, float64(el.Nanoseconds())/float64(calls))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(calls))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(calls))
	}
	return opCost{median(ns), median(allocs), median(bytes)}
}

// discardWriter is a reusable ResponseWriter for in-process ServeHTTP
// timings.
type discardWriter struct {
	h      http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) reset()                      { clear(w.h); w.status = 0 }

// memUpstream answers every forwarded request in memory with an empty
// 200, so gateway timings exclude the loopback and the webapp.
type memUpstream struct{}

func (memUpstream) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return nil, err
		}
		if err := r.Body.Close(); err != nil {
			return nil, err
		}
	}
	return &http.Response{
		StatusCode: http.StatusOK, Status: "200 OK",
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: make(http.Header), Body: http.NoBody, Request: r,
	}, nil
}

// neverAlert is a detector that does no work, leaving only the gateway's
// own overhead and the forward leg.
type neverAlert struct{}

func (neverAlert) Name() string                      { return "never-alert" }
func (neverAlert) Inspect(httpx.Request) ids.Verdict { return ids.Verdict{} }

// patternCost is one regex feature's isolated cost on a workload.
type patternCost struct {
	Pattern     string  `json:"pattern"`
	NsPerReq    float64 `json:"nsPerReq"`
	EvalsPerReq float64 `json:"evalsPerReq"`
}

// layerCosts times every layer on the workload's requests and adds the
// per-layer series to the report.
func (rep *report) layerCosts(m *core.Model, ld *load) error {
	items := ld.items
	n := len(items)
	payloads := make([][]byte, n)
	norms := make([][]byte, n)
	for i, it := range items {
		payloads[i] = it.view.AppendPayload(nil)
		norms[i] = []byte(normalize.Normalize(it.view.Payload()))
	}

	var buf []byte
	c := timeOp(n, func(i int) { buf = items[i].view.AppendPayload(buf[:0]) })
	rep.add("httpx.payload_ns", "ns", c.ns)
	var nb normalize.Buffer
	c = timeOp(n, func(i int) { nb.NormalizeBytes(payloads[i]) })
	rep.add("normalize.ns", "ns", c.ns)

	set := m.Features
	ex, err := feature.NewExtractor(set)
	if err != nil {
		return err
	}
	sc := ex.AcquireScratch()
	c = timeOp(n, func(i int) { ex.SparseInto(norms[i], sc) })
	rep.add("feature.extract_ns", "ns", c.ns)
	rep.add("feature.extract_allocs", "count", c.allocs)
	ps := ex.PrefilterStats()
	rep.add("feature.regex_evals_per_req", "count", float64(ps.Evaluated)/float64(ps.Samples))
	rep.add("feature.skip_frac", "frac", float64(ps.Skipped)/float64(ps.Evaluated+ps.Skipped))

	var wordIdx, patIdx []int
	var lits []string
	for j, f := range set.Features {
		if f.Word != "" {
			wordIdx = append(wordIdx, j)
			continue
		}
		patIdx = append(patIdx, j)
		if l, ok := feature.RequiredLiterals(f.Pattern); ok {
			lits = append(lits, l...)
		}
	}
	words, err := subExtractor(set, wordIdx)
	if err != nil {
		return err
	}
	wsc := words.AcquireScratch()
	c = timeOp(n, func(i int) { words.SparseInto(norms[i], wsc) })
	rep.add("feature.words_ns", "ns", c.ns)
	ac, err := acmatch.New(dedup(lits))
	if err != nil {
		return err
	}
	hits := 0
	c = timeOp(n, func(i int) { ac.Scan(norms[i], func(int32) { hits++ }) })
	rep.add("feature.prefilter_ns", "ns", c.ns)
	if err := rep.patternTable(set, patIdx, norms); err != nil {
		return err
	}

	cols := make([][]int, n)
	vals := make([][]float64, n)
	for i := range items {
		cols[i], vals[i] = ex.SparseVector(string(norms[i]))
	}
	var sink float64
	c = timeOp(n, func(i int) {
		for _, s := range m.Signatures {
			sink += s.ProbabilitySparse(cols[i], vals[i])
		}
	})
	rep.add("core.score_ns", "ns", c.ns)
	sess := m.NewSession()
	c = timeOp(n, func(i int) { sess.Inspect(items[i].view) })
	sess.Close()
	rep.add("core.inspect_ns", "ns", c.ns)
	rep.add("core.inspect_allocs", "count", c.allocs)

	cfg, err := admissionConfig()
	if err != nil {
		return err
	}
	// Admission only reads the socket peer and X-Forwarded-For, so its
	// requests carry the caller stream and nothing else.
	creqs := make([]*http.Request, len(ld.callers))
	for i, caller := range ld.callers {
		creqs[i] = &http.Request{Method: http.MethodGet, URL: items[i%n].req.URL,
			Header: http.Header{"X-Forwarded-For": {caller}}, RemoteAddr: items[i%n].req.RemoteAddr}
	}
	ctrl := admission.New(cfg)
	for _, r := range creqs {
		ctrl.Check(r)
	}
	rep.add("admission.evictions", "count", float64(ctrl.Stats().Evictions))
	c = timeOp(len(creqs), func(i int) { ctrl.Check(creqs[i]) })
	rep.add("admission.check_ns", "ns", c.ns)
	rep.add("admission.check_allocs", "count", c.allocs)

	w := &discardWriter{h: http.Header{}}
	client := &http.Client{Transport: memUpstream{}}
	gw, err := gateway.New("http://upstream.invalid", m, gateway.Options{Admission: admission.New(cfg), Client: client})
	if err != nil {
		return err
	}
	c = timeOp(n, func(i int) { w.reset(); gw.ServeHTTP(w, items[i].req) })
	rep.add("gateway.serve_ns", "ns", c.ns)
	rep.add("gateway.serve_allocs", "count", c.allocs)
	rep.add("gateway.serve_bytes", "B", c.bytes)
	// The legacy BENCH_*.json gateway loops built each request and
	// recorder inside the timed loop; this is what that adds per op.
	targets := make([]string, n)
	for i, it := range items {
		targets[i] = it.req.URL.RequestURI()
	}
	c = timeOp(n, func(i int) {
		benchReq = httptest.NewRequest(http.MethodGet, targets[i], nil)
		benchRec = httptest.NewRecorder()
	})
	rep.notef("legacy harness overhead (httptest.NewRequest + NewRecorder per op): %.0f ns, %.1f allocs, %.0f B",
		c.ns, c.allocs, c.bytes)
	fw, err := gateway.New("http://upstream.invalid", neverAlert{}, gateway.Options{Client: client})
	if err != nil {
		return err
	}
	c = timeOp(n, func(i int) { w.reset(); fw.ServeHTTP(w, items[i].req) })
	rep.add("gateway.forward_ns", "ns", c.ns)
	app := webapp.New(webappPages)
	c = timeOp(n, func(i int) { w.reset(); app.ServeHTTP(w, items[i].req) })
	rep.add("webapp.serve_ns", "ns", c.ns)
	benchSink = sink + float64(hits)
	return nil
}

// Sinks keep the results of timed pure calls observable.
var (
	benchSink float64
	benchReq  *http.Request
	benchRec  *httptest.ResponseRecorder
)

func subExtractor(set feature.Set, idx []int) (*feature.Extractor, error) {
	sub, err := set.Select(idx)
	if err != nil {
		return nil, err
	}
	return feature.NewExtractor(sub)
}

func dedup(ss []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range ss {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// patternTable times each regex feature alone: an extractor over that
// one pattern, prefilter on, over the workload's normalized payloads,
// minus the same pass through an extractor with no features. It records
// the five costliest patterns' share of the total and lists the top
// patterns by time and by evaluations per request.
func (rep *report) patternTable(set feature.Set, patIdx []int, norms [][]byte) error {
	n := len(norms)
	base, err := feature.NewExtractor(feature.Set{})
	if err != nil {
		return err
	}
	bsc := base.AcquireScratch()
	baseNs := timeOpFor(n, patternMinDur, func(i int) { base.SparseInto(norms[i], bsc) }).ns
	costs := make([]patternCost, 0, len(patIdx))
	total := 0.0
	for _, j := range patIdx {
		ex, err := subExtractor(set, []int{j})
		if err != nil {
			return err
		}
		sc := ex.AcquireScratch()
		ns := timeOpFor(n, patternMinDur, func(i int) { ex.SparseInto(norms[i], sc) }).ns - baseNs
		if ns < 0 {
			ns = 0
		}
		ps := ex.PrefilterStats()
		costs = append(costs, patternCost{set.Features[j].Pattern, ns, float64(ps.Evaluated) / float64(ps.Samples)})
		total += ns
	}
	sort.Slice(costs, func(a, b int) bool { return costs[a].NsPerReq > costs[b].NsPerReq })
	top := 0.0
	for k := 0; k < 5 && k < len(costs); k++ {
		top += costs[k].NsPerReq
	}
	rep.add("feature.regex_top5_share", "frac", top/total)
	rep.Patterns = costs
	rep.notef("regex features by isolated time (%d patterns, %.0f ns/req in all):", len(costs), total)
	for k := 0; k < 8 && k < len(costs); k++ {
		rep.notef("  %8.0f ns/req %6.3f evals/req  %s", costs[k].NsPerReq, costs[k].EvalsPerReq, costs[k].Pattern)
	}
	byEvals := append([]patternCost(nil), costs...)
	sort.SliceStable(byEvals, func(a, b int) bool { return byEvals[a].EvalsPerReq > byEvals[b].EvalsPerReq })
	rep.notef("regex features by evaluations per request:")
	for k := 0; k < 8 && k < len(byEvals); k++ {
		rep.notef("  %6.3f evals/req %8.0f ns/req  %s", byEvals[k].EvalsPerReq, byEvals[k].NsPerReq, byEvals[k].Pattern)
	}
	return nil
}
