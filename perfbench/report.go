package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type metricDef struct{ name, unit string }

// The metrics the result line carries: endToEnd with --trace 0, perLayer
// with --trace 1. BENCHMARK.json names the same lists.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"rps", "1/s"}, {"p50_us", "us"}, {"p90_us", "us"},
	{"open.p50_us", "us"},
	{"heap_mb", "MB"}, {"train_s", "s"}, {"heldout.tpr", "frac"}, {"heldout.tnr", "frac"},
}

var perLayer = []metricDef{
	{"httpx.payload_ns", "ns"}, {"normalize.ns", "ns"},
	{"feature.extract_ns", "ns"}, {"feature.extract_allocs", "count"}, {"feature.words_ns", "ns"},
	{"feature.prefilter_ns", "ns"}, {"feature.regex_evals_per_req", "count"}, {"feature.skip_frac", "frac"},
	{"feature.regex_top5_share", "frac"}, {"feature.matrix_s", "s"},
	{"core.score_ns", "ns"}, {"core.inspect_ns", "ns"}, {"core.inspect_allocs", "count"},
	{"cluster.run_s", "s"}, {"ml.train_s", "s"}, {"core.train_other_s", "s"},
	{"admission.check_ns", "ns"}, {"admission.check_allocs", "count"}, {"admission.evictions", "count"},
	{"gateway.serve_ns", "ns"}, {"gateway.serve_allocs", "count"}, {"gateway.serve_bytes", "B"},
	{"gateway.forward_ns", "ns"}, {"gateway.blocked_frac", "frac"}, {"webapp.serve_ns", "ns"},
	{"span.net_us", "us"}, {"span.gateway_self_us", "us"}, {"span.inspect_us", "us"},
	{"span.upstream_us", "us"}, {"span.webapp_us", "us"}, {"trace.overhead_frac", "frac"},
	{"open.late_p99_us", "us"}, {"p99_us", "us"}, {"open.p90_us", "us"}, {"open.p99_us", "us"},
	{"open.capacity_rps", "1/s"},
}

type report struct {
	opts     options
	Stamp    stamp            `json:"stamp"`
	Series   []series         `json:"series"`
	Notes    []string         `json:"notes"`
	Fails    map[string]int64 `json:"failures"`
	Patterns []patternCost    `json:"patterns,omitempty"`
	Checks   []string         `json:"failedChecks,omitempty"`
	retrain  *retrainResult
	tally    tally
}

func newReport(o options) *report {
	return &report{opts: o, Stamp: newStamp(o)}
}

func (r *report) add(name, unit string, values ...float64) {
	r.Series = append(r.Series, newSeries(name, unit, values...))
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// failCheck records an output check that failed; the run is then
// incorrect.
func (r *report) failCheck(format string, args ...any) {
	r.Checks = append(r.Checks, fmt.Sprintf(format, args...))
}

func (r *report) lookup(name string) (series, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return series{}, false
}

func (r *report) correct() bool {
	return r.tally.failed == 0 && r.tally.attempted > 0 && len(r.Checks) == 0
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

func (r *report) result() result {
	defs := endToEnd
	if r.opts.trace {
		defs = perLayer
	}
	res := result{Correct: r.correct(), Attempted: r.tally.attempted, Failed: r.tally.failed,
		Metrics: map[string]resultMetric{}}
	for _, d := range defs {
		s, ok := r.lookup(d.name)
		if !ok {
			res.Correct = false
			continue
		}
		res.Metrics[d.name] = resultMetric{Value: s.Median, Unit: d.unit}
	}
	return res
}

func (r *report) print(w io.Writer) {
	st := r.Stamp
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%d trace=%v\n", st.Workload, st.Seed, st.Seconds, st.Trace)
	fmt.Fprintf(w, "machine: GOMAXPROCS=%d nproc=%d cpu=%q go=%s commit=%s\n", st.GOMAXPROCS, st.NumCPU, st.CPUModel, st.GoVersion, st.Commit)
	if rt := r.retrain; rt != nil {
		fmt.Fprintf(w, "model: %d signatures over %d features, sha256 %s (repeats over %d trainings)\n",
			rt.sigs, rt.features, rt.hash[:16], rt.trainings())
		fmt.Fprintf(w, "held-out: %+v\n", rt.conf)
	}
	fmt.Fprintf(w, "requests: attempted=%d failed=%d blocked=%d fail_frac=%g\n",
		r.tally.attempted, r.tally.failed, r.tally.blocked, r.failFrac())
	if r.tally.failed > 0 {
		kinds := make([]string, 0, len(r.tally.kinds))
		for k, n := range r.tally.kinds {
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(kinds)
		fmt.Fprintf(w, "FAILURES: %s; first: %v\n", strings.Join(kinds, " "), r.tally.first)
	}
	for _, c := range r.Checks {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", c)
	}
	fmt.Fprintf(w, "%-28s %-6s %12s %12s %12s  values\n", "metric", "unit", "median", "min", "max")
	for _, s := range r.Series {
		vals := make([]string, len(s.Values))
		for i, v := range s.Values {
			vals[i] = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintf(w, "%-28s %-6s %12.5g %12.5g %12.5g  [%s]\n", s.Name, s.Unit, s.Median, s.Min, s.Max, strings.Join(vals, " "))
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, n)
	}
}

func (r *report) failFrac() float64 {
	if r.tally.attempted == 0 {
		return 0
	}
	return float64(r.tally.failed) / float64(r.tally.attempted)
}

// save writes the full report as JSON next to the span file.
func (r *report) save(o options) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	r.Fails = r.tally.kinds
	path := filepath.Join(outDir, fmt.Sprintf("report-%s-seed%d-trace%v.json", o.workload, o.seed, o.trace))
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
