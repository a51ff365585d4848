// Command gdnbench is the GDN's end-to-end and per-layer benchmark: a
// single-process, closed-loop load generator. Each run builds an
// in-process gdn.World (the three-region DefaultTopology on the
// simulated WAN, in-memory stores), publishes the workload's inputs,
// drives the world only through its public surfaces — HTTP to
// GDN-HTTPDs on loopback, the moderator tool, user bindings — and checks
// every output against the generator's own copy of the input.
//
//	gdnbench --workload bulk-download --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is one JSON object
// holding every end-to-end metric; with --trace 1 the run replays the
// same inputs sequentially, times the generator's own calls into each
// layer's public functions after every operation and prints the
// per-layer ledger instead. --smoke runs one round per client with every
// check on. See README.md for the workloads, metrics and their meaning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"gdn"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
}

// workload is one set of inputs and its operation mix, built on its own
// world. Each client runs whole rounds: a fixed sequence of operations
// drawn from the seed, identical on every repetition.
type workload interface {
	// clients is the number of closed-loop clients.
	clients() int
	// round runs client c's operations once, recording each into rec
	// and, when lg is non-nil, into the per-layer ledger.
	round(c int, rec *recorder, lg *ledger)
	// probe runs the write-side ledger operations a read-only workload
	// lacks, so that every traced run reports the whole per-layer list
	// (a no-op for workloads that publish).
	probe(lg *ledger)
	// world is the deployment the workload drives.
	world() *gdn.World
	close()
}

// spec names a workload and how to build it.
type spec struct {
	name string
	// build makes the world and publishes the inputs (set-up minus
	// warm-up).
	build func(seed uint64) (workload, error)
	// warmRounds is how many rounds each client runs, discarded, at
	// the end of set-up.
	warmRounds int
}

var specs = []spec{
	{name: "bulk-download", build: newBulk, warmRounds: 1},
	{name: "catalog-browse", build: newCatalog, warmRounds: 1},
	{name: "release-publish", build: newPublish, warmRounds: 2},
}

// setups is how many times a measured run builds its world; set-up time
// is their median, and the last one is measured.
const setups = 3

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: bulk-download, catalog-browse or release-publish")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long the measured phase lasts")
	flag.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "one set-up, one round per client, every check on")
	flag.Parse()
	cfg.trace = trace == 1
	if trace != 0 && trace != 1 {
		fatalf("--trace takes 0 or 1")
	}
	if cfg.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	var sp *spec
	for i := range specs {
		if specs[i].name == cfg.workload {
			sp = &specs[i]
		}
	}
	if sp == nil {
		fatalf("unknown --workload %q", cfg.workload)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	res, err := run(*sp, cfg)
	if err != nil {
		fatalf("%s: %v", cfg.workload, err)
	}
	res.print(os.Stdout)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gdnbench: "+format+"\n", args...)
	os.Exit(1)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a run prints: a summary of operation counts, then the
// one-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	header []string // "# " lines printed before the JSON
}

func (r *result) print(f *os.File) {
	for _, l := range r.header {
		fmt.Fprintln(f, "# "+l)
	}
	b, err := json.Marshal(r)
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Fprintln(f, string(b))
}

// run sets the workload up (several times for a measured run), measures
// it and returns the result.
func run(sp spec, cfg config) (*result, error) {
	n := setups
	if cfg.smoke || cfg.trace {
		n = 1
	}
	var w workload
	var setupSecs []float64
	for i := 0; i < n; i++ {
		if w != nil {
			w.close()
			runtime.GC()
		}
		start := time.Now()
		var err error
		w, err = sp.build(cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		warm := sp.warmRounds
		if cfg.smoke {
			warm = 0
		}
		recs := runRounds(w, warm, 0, false, nil)
		if bad := mergeRecorders(recs); bad.failed() > 0 {
			return nil, fmt.Errorf("warm-up: %d operations failed: %v", bad.failed(), bad.firstErr)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
	}
	defer w.close()

	res := &result{Metrics: map[string]metric{}}
	res.header = append(res.header, fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%v smoke=%v gomaxprocs=%d nproc=%d clients=%d go=%s",
		sp.name, cfg.seed, cfg.seconds, cfg.trace, cfg.smoke, runtime.GOMAXPROCS(0), runtime.NumCPU(), w.clients(), runtime.Version()))

	dur := time.Duration(cfg.seconds) * time.Second
	rounds := 0
	if cfg.smoke {
		rounds, dur = 1, 0
	}
	var all *recorder
	ticks := hostTicks()
	if cfg.trace {
		// Untraced sequential replay first, then the traced one: the
		// ratio of their per-operation times is the tracing overhead.
		base := mergeRecorders(runRounds(w, rounds, dur/3, true, nil))
		lg := newLedger(w.world())
		traced := mergeRecorders(runRounds(w, rounds, dur-dur/3, true, lg))
		w.probe(lg)
		lg.report(res, base, traced)
		all = mergeRecorders([]*recorder{base, traced})
	} else {
		runtime.GC()
		m := startMeter(w.world().Net)
		recs := runRounds(w, rounds, dur, false, nil)
		all = mergeRecorders(recs)
		m.stop(all, res)
		res.Metrics["setup_s"] = metric{median(setupSecs), "s"}
		res.header = append(res.header, fmt.Sprintf("setup_s each: %v", setupSecs))
	}
	res.header = append(res.header, "host steal share over the measured phase="+stealShare(ticks, hostTicks()))
	res.Attempted = all.attempted()
	res.Failed = all.failed()
	res.Correct = all.mismatches == 0
	res.header = append(res.header, all.summary()...)
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	return res, nil
}

// runRounds runs whole rounds on every client until each has done at
// least minRounds and dur has passed. Clients run concurrently, one
// goroutine each, unless sequential is set (the traced replay), in
// which case one goroutine alternates their rounds.
func runRounds(w workload, minRounds int, dur time.Duration, sequential bool, lg *ledger) []*recorder {
	n := w.clients()
	recs := make([]*recorder, n)
	for i := range recs {
		recs[i] = newRecorder()
	}
	if minRounds == 0 && dur == 0 {
		return recs
	}
	start := time.Now()
	more := func(done int) bool { return done < minRounds || time.Since(start) < dur }
	if sequential {
		for done := 0; more(done); done++ {
			for c := 0; c < n; c++ {
				w.round(c, recs[c], lg)
			}
		}
		wallAll(recs, time.Since(start))
		return recs
	}
	finished := make(chan struct{}, n) // one send per client
	for c := 0; c < n; c++ {
		go func() {
			for done := 0; more(done); done++ {
				w.round(c, recs[c], nil)
			}
			finished <- struct{}{}
		}()
	}
	for c := 0; c < n; c++ {
		<-finished
	}
	wallAll(recs, time.Since(start))
	return recs
}

func wallAll(recs []*recorder, d time.Duration) {
	for _, r := range recs {
		r.wall = d
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// percentile returns the q-quantile (0..1) of sorted samples by the
// nearest-rank method.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}
