// Command perfbench is the repository's benchmark: it trains pSigene on a
// fixed paper-scale corpus, brings up the serving stack (gateway with
// per-client admission in front of the webapp, on loopback listeners) and
// drives one workload through it over real sockets, checking every
// verdict against an in-process oracle before it reports any timing.
//
//	bash perfbench/run.sh --workload benign-mix --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the run's
// metrics; the lines before it are the human-readable report. See
// perfbench/README.md for the workloads and the metric-to-layer map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

// outDir holds the report and span files, inside the checkout's build
// directory.
var outDir = filepath.Join(".bench_build", "perfbench")

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload to run: benign-mix or attack-burst")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 30, "seconds of serving measurement")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced, per-layer variant")
	flag.Parse()
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	rep.print(os.Stdout)
	if path, err := rep.save(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing report:", err)
	} else {
		fmt.Printf("report written to %s\n", path)
	}
	res := rep.result()
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// stamp identifies the machine and build a run came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpuModel"`
	GoVersion  string `json:"goVersion"`
	Commit     string `json:"commit"`
	Started    string `json:"started"`
}

func newStamp(o options) stamp {
	return stamp{
		Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: cpuModel(), GoVersion: runtime.Version(), Commit: commit(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the source revision go build stamped into the binary, with
// "+modified" when the tree had uncommitted changes, or "unknown" when
// it was built outside a version-controlled tree.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, modified := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if modified && rev != "unknown" {
		rev += "+modified"
	}
	return rev
}

// stealMeter measures the share of CPU time the host stole from this
// virtual machine since it started: time a virtual CPU was ready to run
// but the host ran something else. It reads /proc/stat and measures 0
// where that cannot be read.
type stealMeter struct{ steal, total float64 }

// maxSteal is the CPU steal above which a measurement is set aside.
const maxSteal = 0.05

func startSteal() stealMeter {
	s, t := cpuTimes()
	return stealMeter{s, t}
}

func (m stealMeter) share() float64 {
	s, t := cpuTimes()
	if t <= m.total {
		return 0
	}
	return (s - m.steal) / (t - m.total)
}

// cpuTimes returns the steal and total jiffies of /proc/stat's cpu line.
func cpuTimes() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
