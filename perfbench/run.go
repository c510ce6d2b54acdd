package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"psigene/internal/core"
)

// Run shape. A run measures --seconds of serving traffic in rounds; each
// round times a few set-ups of a fresh stack, then runs one closed-loop
// window, one window of the headline open rate and one step of the
// capacity search against the serving stack. Interleaving them means a
// spell of contention on the machine spoils one window of each figure,
// which the median over rounds drops, instead of a whole phase. The two
// trainings run before and after the rounds, so they too meet the
// machine at two different times.
const (
	rounds         = 12
	setupsPerRound = 3
	warmup         = 500 * time.Millisecond
	openHeadline   = 1500.0 // offered req/s for the open.p* figures
	openP90LimitUS = 2000.0 // p90 latency limit that defines open.capacity_rps
)

// Shares of a round: closed loop, headline open rate, capacity step.
const (
	closedShare   = 0.33
	headlineShare = 0.30
)

func run(o options) (*report, error) {
	rep := newReport(o)
	rt := &retrainResult{}
	rep.retrain = rt
	c := paperCorpus()
	if err := rt.train(c, o.trace); err != nil {
		return nil, err
	}
	rep.add("heldout.tpr", "frac", rt.tpr)
	rep.add("heldout.tnr", "frac", rt.tnr)
	var tr *tracer
	var stg stageTimes
	if o.trace {
		tr = newTracer()
		var err error
		if stg, err = trainStages(c, rt.model, tr); err != nil {
			return nil, fmt.Errorf("training stages: %w", err)
		}
		rt.model = nil
		rep.add("feature.matrix_s", "s", stg.matrixS)
		rep.add("cluster.run_s", "s", stg.clusterS)
		rep.add("ml.train_s", "s", stg.mlS)
		if !stg.matches {
			rep.failCheck("the training stages re-run from public calls do not reproduce core.Train's signatures, so feature.matrix_s, cluster.run_s, ml.train_s and core.train_other_s would time another pipeline: update stages.go to follow core.Train")
		}
	}
	c = corpus{}

	oracle, err := core.Load(bytes.NewReader(rt.modelJSON))
	if err != nil {
		return nil, fmt.Errorf("load oracle: %w", err)
	}
	reqs, callers := workloads[o.workload](o.seed, distinctRequests)
	items, err := buildItems(reqs, callers, oracle)
	if err != nil {
		return nil, err
	}
	ld := &load{items: items, callers: callers}
	rep.notef("callers: %d distinct in a stream of %d; admission MaxCallers %d", ld.distinctCallers(), len(callers), maxCallers)

	sv := &serving{rep: rep, ld: ld, modelJSON: rt.modelJSON}
	if !o.trace {
		sv.setupsPerRound = setupsPerRound
	}
	st, d, err := setUp(rt.modelJSON, ld, &rep.tally)
	if err != nil {
		return nil, err
	}
	sv.setups = append(sv.setups, d)
	round := time.Duration(o.seconds) * time.Second / rounds
	m := startSteal()
	if err := sv.run(st.addr, round); err != nil {
		return nil, errors.Join(err, st.close())
	}
	rep.notef("cpu steal during the serving rounds: %.1f%%", 100*m.share())
	if o.trace {
		// The traced run: the same closed loop through a stack with the
		// span wrappers installed.
		if err := st.close(); err != nil {
			return nil, fmt.Errorf("stop stack: %w", err)
		}
		if st, err = startStack(rt.modelJSON, tr); err != nil {
			return nil, err
		}
		ws, _, err := closedLoop(st.addr, ld, sv.next, time.Duration(float64(round)*closedShare)*rounds, rounds, &rep.tally, tr)
		if err != nil {
			return nil, errors.Join(err, st.close())
		}
		var tp50 []float64
		for _, w := range ws {
			tp50 = append(tp50, percentileUS(w.lat, 50))
		}
		for name, v := range tr.selfTimes() {
			rep.add(name, "us", v)
		}
		p50, _ := rep.lookup("p50_us")
		rep.add("trace.overhead_frac", "frac", median(tp50)/p50.Median-1)
	}
	if !o.trace {
		rep.add("heap_mb", "MB", liveHeap()/(1<<20))
	}
	if err := st.close(); err != nil {
		return nil, fmt.Errorf("stop stack: %w", err)
	}

	// The second training checks that the model repeats for the corpus.
	if err := rt.train(paperCorpus(), false); err != nil {
		return nil, err
	}
	trainS := rt.seconds()
	rep.add("train_s", "s", trainS...)
	if !o.trace {
		return rep, nil
	}
	rep.add("core.train_other_s", "s", median(trainS)-stg.matrixS-stg.clusterS-stg.mlS)
	rep.add("gateway.blocked_frac", "frac", float64(rep.tally.blocked)/float64(rep.tally.attempted))
	if err := rep.layerCosts(oracle, ld); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
	if err := tr.write(path); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	rep.notef("spans written to %s", path)
	return rep, nil
}

// setUp brings up a fresh stack and times it: load the model from its
// saved bytes, start the webapp and the gateway on loopback listeners,
// and serve the first request. This is what setup_s measures.
func setUp(modelJSON []byte, ld *load, t *tally) (*stack, float64, error) {
	runtime.GC()
	start := time.Now()
	st, err := startStack(modelJSON, nil)
	if err != nil {
		return nil, 0, err
	}
	if err := firstRequest(st.addr, ld, t); err != nil {
		return nil, 0, errors.Join(err, st.close())
	}
	return st, time.Since(start).Seconds(), nil
}

// serving runs the measured rounds against one stack and collects their
// figures.
type serving struct {
	rep            *report
	ld             *load
	next           int // next request to send
	modelJSON      []byte
	setupsPerRound int

	setups []float64     // the serving stack's own set-up, then the counted rounds'
	rounds []roundResult // every measured round, in order
	steps  []openResult  // capacity steps of clean rounds
}

// roundResult is what one round measured and how much CPU time the host
// stole from it.
type roundResult struct {
	fig    map[string]float64
	setups []float64
	step   openResult
	steal  float64
}

// roundMetrics are the per-round figures, in report order.
var roundMetrics = []metricDef{
	{"rps", "1/s"}, {"p50_us", "us"}, {"p90_us", "us"}, {"p99_us", "us"},
	{"open.p50_us", "us"}, {"open.p90_us", "us"}, {"open.p99_us", "us"}, {"open.late_p99_us", "us"},
	{"cpu_steal_pct", "%"},
}

// run measures rounds until it has the planned number whose CPU steal
// stayed below maxSteal, or a quarter again as many in all. A contended
// round's figures, set-ups and capacity step are set aside: the search
// goes on from the clean steps only. If fewer than half the planned
// rounds were clean, the half with the least steal count instead.
func (sv *serving) run(addr string, round time.Duration) error {
	rep := sv.rep
	var err error
	if _, sv.next, err = closedLoop(addr, sv.ld, sv.next, warmup, 1, &rep.tally, nil); err != nil {
		return err
	}
	closedDur := time.Duration(float64(round) * closedShare)
	headDur := time.Duration(float64(round) * headlineShare)
	stepDur := round - closedDur - headDur
	clean := 0
	for r := 0; clean < rounds && r < rounds+rounds/4; r++ {
		m := startSteal()
		var setups []float64
		for k := 0; k < sv.setupsPerRound; k++ {
			st, d, err := setUp(sv.modelJSON, sv.ld, &rep.tally)
			if err != nil {
				return err
			}
			if err := st.close(); err != nil {
				return fmt.Errorf("stop stack: %w", err)
			}
			setups = append(setups, d)
		}
		ws, next, err := closedLoop(addr, sv.ld, sv.next, closedDur, 1, &rep.tally, nil)
		if err != nil {
			return err
		}
		sv.next = next
		w := ws[0]
		head, err := sv.open(addr, openHeadline, headDur, 1, 1)
		if err != nil {
			return err
		}
		fig := map[string]float64{
			"rps":    float64(len(w.lat)) / w.dur.Seconds(),
			"p50_us": percentileUS(w.lat, 50), "p90_us": percentileUS(w.lat, 90), "p99_us": percentileUS(w.lat, 99),
			"open.p50_us": head.p50, "open.p90_us": head.p90, "open.p99_us": head.p99, "open.late_p99_us": head.lateP99,
		}
		step, err := sv.searchStep(addr, stepDur, fig["rps"])
		if err != nil {
			return err
		}
		steal := m.share()
		fig["cpu_steal_pct"] = 100 * steal
		sv.rounds = append(sv.rounds, roundResult{fig: fig, setups: setups, step: step, steal: steal})
		if steal > maxSteal {
			rep.notef("round %d set aside: cpu steal %.1f%%", r, 100*steal)
			continue
		}
		clean++
		sv.steps = append(sv.steps, step)
	}
	limit := maxSteal
	if clean < rounds/2 {
		steals := make([]float64, len(sv.rounds))
		for i, rr := range sv.rounds {
			steals[i] = rr.steal
		}
		sort.Float64s(steals)
		limit = steals[rounds/2-1]
		rep.notef("only %d of %d rounds below %.0f%% cpu steal: the %d with the least steal count", clean, rounds, 100*maxSteal, rounds/2)
	}
	var counted []roundResult
	var steps []openResult
	for _, rr := range sv.rounds {
		if rr.steal <= limit {
			counted = append(counted, rr)
			sv.setups = append(sv.setups, rr.setups...)
			steps = append(steps, rr.step)
		}
	}
	rep.add("setup_s", "s", sv.setups...)
	for _, d := range roundMetrics {
		var vals []float64
		for _, rr := range counted {
			vals = append(vals, rr.fig[d.name])
		}
		rep.add(d.name, d.unit, vals...)
	}
	rep.add("open.capacity_rps", "1/s", capacity(bracket(steps)))
	return nil
}

// open runs one open-loop step and logs it in the report.
func (sv *serving) open(addr string, rate float64, d time.Duration, senders, windows int) (openResult, error) {
	s, err := openLoop(addr, sv.ld, sv.next, rate, d, senders, &sv.rep.tally)
	if err != nil {
		return openResult{}, err
	}
	sv.next += len(s.lat)
	r := s.summary(windows)
	sv.rep.notef("open rate=%.0f/s senders=%d n=%d p50=%.0fus p90=%.0fus p99=%.0fus late_p99=%.0fus tail_lag=%.0fus ok=%v",
		rate, senders, len(s.lat), r.p50, r.p90, r.p99, r.lateP99, r.tailLag, r.ok())
	return r, nil
}

// searchStep runs one step of the capacity search from nproc senders.
// The first step offers closedRPS, the round's closed-loop rate; the search
// then walks up (or down) by capacityGrowth until a step crosses the
// limit, and bisects the bracket after that.
func (sv *serving) searchStep(addr string, d time.Duration, closedRPS float64) (openResult, error) {
	rate := closedRPS
	switch pass, fail := bracket(sv.steps); {
	case pass != nil && fail != nil:
		rate = math.Sqrt(pass.rate * fail.rate)
	case fail != nil:
		rate = fail.rate / capacityGrowth
	case pass != nil:
		rate = pass.rate * capacityGrowth
	}
	return sv.open(addr, rate, d, runtime.NumCPU(), stepWindows)
}

// bracket returns the fastest step that met the limit and the slowest
// that did not; either may be nil.
func bracket(steps []openResult) (pass, fail *openResult) {
	for i := range steps {
		r := &steps[i]
		if r.ok() && (pass == nil || r.rate > pass.rate) {
			pass = r
		}
		if !r.ok() && (fail == nil || r.rate < fail.rate) {
			fail = r
		}
	}
	return pass, fail
}

// Capacity search shape: windows per step (a step's figures are medians
// over them) and the factor between rates while no step has crossed the
// limit yet.
const (
	stepWindows    = 3
	capacityGrowth = 1.25
)

// capacity interpolates, on a log scale, the rate at which p90 crosses
// the limit between the fastest passing and the slowest failing step.
// With no failing step it is the fastest passing rate, with no passing
// step half the slowest failing one.
func capacity(pass, fail *openResult) float64 {
	switch {
	case fail == nil:
		return pass.rate
	case pass == nil:
		return fail.rate / 2
	}
	lo, hi := math.Log(pass.p90), math.Log(math.Max(fail.p90, openP90LimitUS))
	f := 1.0
	if hi > lo {
		f = (math.Log(openP90LimitUS) - lo) / (hi - lo)
	}
	return pass.rate + f*(fail.rate-pass.rate)
}

type openResult struct {
	rate                            float64
	p50, p90, p99, lateP99, tailLag float64
}

// ok reports whether a step met the p90 limit without a growing backlog:
// over its last tenth, requests were still sent within the limit of
// their due time.
func (r openResult) ok() bool {
	return r.p90 <= openP90LimitUS && r.tailLag <= openP90LimitUS
}

// summary splits a step into windows by schedule position and takes the
// median of the per-window percentiles.
func (s *openStep) summary(windows int) openResult {
	var p50, p90, p99, late []float64
	n := len(s.lat)
	for w := 0; w < windows; w++ {
		lat := append([]time.Duration(nil), s.lat[n*w/windows:n*(w+1)/windows]...)
		p50 = append(p50, percentileUS(lat, 50))
		p90 = append(p90, percentileUS(lat, 90))
		p99 = append(p99, percentileUS(lat, 99))
		late = append(late, percentileUS(append([]time.Duration(nil), s.late[n*w/windows:n*(w+1)/windows]...), 99))
	}
	return openResult{
		rate: s.rate,
		p50:  median(p50), p90: median(p90), p99: median(p99), lateP99: median(late),
		tailLag: percentileUS(append([]time.Duration(nil), s.lag[n*9/10:]...), 50),
	}
}

// firstRequest serves one request on a fresh connection: set-up ends
// when the stack has answered.
func firstRequest(addr string, l *load, t *tally) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	it, caller := l.at(0)
	return c.send(it, caller, t)
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}
