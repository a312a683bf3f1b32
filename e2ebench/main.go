// Command e2ebench is the repository's end-to-end benchmark. It starts a
// real bagcd as a child process, drives it with pkg/bagclient from one
// closed-loop client in this single generator process, checks
// every verdict against the paper's oracles, and prints one JSON result
// line last on standard output.
//
// Usage (from the repository root; run.sh builds both binaries first):
//
//	e2ebench -bagcd BIN -workload acyclic-cold|cyclic-cold|hot-repeat
//	         -seed N -seconds S -trace 0|1
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics: /metrics deltas of the timed run and the
// self times of a separate traced replay. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"

	"bagconsistency/internal/metrics"
	"bagconsistency/pkg/bagclient"
)

// setUps is how many times a run sets bagcd up; setup_s is their median
// and the last one serves the timed run.
const setUps = 3

// closedConns is the number of closed-loop clients of every workload.
// With one request in flight, bagcd and the generator take turns rather
// than contend for the runner's CPUs: on a 2-CPU runner, two clients made
// acyclic-cold's run-to-run spread about twice as large.
const closedConns = 1

func main() {
	workload := flag.String("workload", "", "acyclic-cold, cyclic-cold or hot-repeat")
	seed := flag.Int64("seed", 1, "workload seed; bagcd only sees the generated requests")
	seconds := flag.Float64("seconds", 10, "nominal run length: request lists are sized to it")
	traceFlag := flag.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end metrics")
	bin := flag.String("bagcd", "", "path of the bagcd binary")
	scratch := flag.String("scratch", ".bench_build", "directory for bagcd data directories")
	flag.Parse()
	if *bin == "" || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: need -bagcd, -seconds > 0 and -trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *traceFlag == 1,
		bin: *bin, scratch: *scratch}
	rep, err := run(context.Background(), cfg)
	if rep != nil {
		line, _ := json.Marshal(rep)
		fmt.Println(string(line))
	}
	if err == nil {
		line, _ := json.Marshal(rep.Result)
		fmt.Println(string(line))
		if !rep.Result.Correct {
			err = fmt.Errorf("run failed its checks: %s", strings.Join(rep.Checks, "; "))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	bin      string
	scratch  string
}

// metric is one named number of the result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output, in the benchmark's contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the full record of a run, printed before the result line.
type report struct {
	Schema    string  `json:"schema"`
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Runner    runner  `json:"runner"`
	Succeeded int     `json:"succeeded"`
	// WrongVerdicts and WitnessFailures are part of Failed.
	WrongVerdicts   int `json:"wrong_verdicts"`
	WitnessFailures int `json:"witness_failures"`
	LatencySamples  int `json:"latency_samples"`
	// RunP99Ms is the p99 over the whole run; latency_p99_ms is the
	// interquartile mean of the P99Windows.
	RunP99Ms   float64   `json:"latency_p99_run_ms"`
	P99Windows []float64 `json:"latency_p99_windows"`
	SlowestMs  float64   `json:"slowest_request_ms"`
	RunWallS   float64   `json:"run_wall_s"`
	// SlowestShare is the slowest request's latency over the timed wall
	// time: the sizing evidence that no single request dominates a run.
	SlowestShare float64   `json:"slowest_share_of_run"`
	SetupS       []float64 `json:"setup_s_each"`
	// GeneratorCPUS and GeneratorGCs are the generator's own CPU time and
	// garbage collections in the timed window.
	GeneratorCPUS float64 `json:"generator_cpu_s"`
	GeneratorGCs  uint64  `json:"generator_gcs"`
	// StealShare is the share of the machine's CPU time that the
	// hypervisor stole in the timed window.
	StealShare   float64   `json:"steal_share"`
	Segments     []segStat `json:"segments,omitempty"`
	Checks       []string  `json:"checks_failed,omitempty"`
	Untraced     *result   `json:"untraced_e2e,omitempty"`
	Result       result    `json:"result"`
	TracedPrefix int       `json:"traced_requests,omitempty"`
}

type runner struct {
	NumCPU        int      `json:"num_cpu"`
	GeneratorProc int      `json:"generator_gomaxprocs"`
	BagcdProcs    int      `json:"bagcd_gomaxprocs"`
	ClosedConns   int      `json:"closed_loop_connections"`
	GoVersion     string   `json:"go_version"`
	BagcdBuild    string   `json:"bagcd_build"`
	BagcdFlags    []string `json:"bagcd_flags"`
}

type segStat struct {
	N     int     `json:"n"`
	WallS float64 `json:"wall_s"`
	CPUS  float64 `json:"bagcd_cpu_s"`
}

// runEnv is what every set-up of a run shares.
type runEnv struct {
	bin     string
	scratch string
	procs   int
}

// setUp starts bagcd and sends the workload's warm-up: the measured
// set-up time runs from spawning bagcd until it is healthy and warm. The
// generator's collector is off meanwhile, as in the timed run: a
// collection of the freshly built request list otherwise lands in some
// set-ups and not others.
func (e *runEnv) setUp(ctx context.Context, p *plan) (*server, *bagclient.Client, time.Duration, error) {
	defer quietGC()()
	t0 := time.Now()
	srv, err := startServer(ctx, e.bin, e.scratch, e.procs)
	if err != nil {
		return nil, nil, 0, err
	}
	cli, err := newClient(srv.addr, &http.Transport{MaxConnsPerHost: e.procs, MaxIdleConnsPerHost: e.procs})
	if err == nil {
		err = warm(ctx, cli, p.warmup, e.procs)
	}
	if err != nil {
		srv.stop()
		return nil, nil, 0, err
	}
	return srv, cli, time.Since(t0), nil
}

func run(ctx context.Context, cfg config) (*report, error) {
	p, err := buildPlan(cfg.workload, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	procs := runtime.GOMAXPROCS(0)
	env := &runEnv{bin: cfg.bin, scratch: cfg.scratch, procs: procs}

	var srv *server
	var cli *bagclient.Client
	var setups []float64
	for k := range setUps {
		s, c, d, err := env.setUp(ctx, p)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < setUps-1 {
			if err := s.stop(); err != nil {
				return nil, fmt.Errorf("stopping bagcd after set-up: %w", err)
			}
			continue
		}
		srv, cli = s, c
	}
	m, err := timedRun(ctx, srv, cli, p)
	if serr := srv.stop(); err == nil && serr != nil {
		err = fmt.Errorf("stopping bagcd: %w", serr)
	}
	if err != nil {
		return nil, err
	}
	rep := m.report(cfg, procs, srv.flags, setups)
	if cfg.trace && rep.Result.Correct {
		_, hi := segmentBounds(len(p.reqs), p.segments, 0)
		prefix := p.reqs[:hi]
		tr, err := traceRun(ctx, env, p, prefix)
		if err != nil {
			return rep, fmt.Errorf("traced run: %w", err)
		}
		m.addLayers(rep, tr)
	}
	return rep, nil
}

// measured is everything the timed run observed.
type measured struct {
	p           *plan
	out         []outcome
	segs        []segment
	wall        time.Duration
	rssMB       float64
	before      promSnapshot
	after       promSnapshot
	build       string
	witnessFail int
	witnessErr  error
	genCPU      float64
	genGCs      uint64
	steal       float64
}

// generatorUsage returns the generator's user+system CPU seconds and its
// count of completed garbage collections.
func generatorUsage() (float64, uint64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN(), 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	s := []rtmetrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	rtmetrics.Read(s)
	return tv(ru.Utime) + tv(ru.Stime), s[0].Value.Uint64()
}

func timedRun(ctx context.Context, srv *server, cli *bagclient.Client, p *plan) (*measured, error) {
	m := &measured{p: p}
	var err error
	if m.before, err = scrape(ctx, cli); err != nil {
		return nil, err
	}
	steal0, ticks0, err := machineTicks()
	if err != nil {
		return nil, err
	}
	restoreGC := quietGC()
	cpu0, gc0 := generatorUsage()
	t0 := time.Now()
	m.out, m.segs, err = runClosed(ctx, cli, srv, p.reqs, closedConns, p.segments)
	m.wall = time.Since(t0)
	cpu1, gc1 := generatorUsage()
	restoreGC()
	if err != nil {
		return nil, err
	}
	m.genCPU, m.genGCs = cpu1-cpu0, gc1-gc0
	steal1, ticks1, err := machineTicks()
	if err != nil {
		return nil, err
	}
	m.steal = (steal1 - steal0) / max(1, ticks1-ticks0)
	if m.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	if m.after, err = scrape(ctx, cli); err != nil {
		return nil, err
	}
	for series := range m.after {
		if strings.HasPrefix(series, "bagcd_build_info{") {
			m.build = strings.TrimPrefix(series, "bagcd_build_info")
		}
	}
	m.witnessFail, m.witnessErr = verifyWitnesses(p.reqs, m.out)
	return m, nil
}

func (m *measured) report(cfg config, procs int, flags []string, setups []float64) *report {
	rep := &report{
		Schema: "e2ebench/v1", Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Runner: runner{
			NumCPU: runtime.NumCPU(), GeneratorProc: procs, BagcdProcs: procs, ClosedConns: closedConns,
			GoVersion: runtime.Version(), BagcdBuild: m.build, BagcdFlags: flags,
		},
		SetupS:        setups,
		RunWallS:      m.wall.Seconds(),
		GeneratorCPUS: m.genCPU,
		GeneratorGCs:  m.genGCs,
		StealShare:    m.steal,
	}
	fail := func(format string, args ...any) { rep.Checks = append(rep.Checks, fmt.Sprintf(format, args...)) }

	lat := metrics.NewSample(len(m.out))
	var inOrder []float64 // successful latencies in list order
	var hits, nodes int64
	var firstErr error
	for _, o := range m.out {
		if o.rep != nil {
			rep.Succeeded++
			if o.rep.CacheHit {
				hits++
			} else {
				nodes += o.rep.Nodes
			}
		}
		if o.err != nil {
			if o.rep != nil {
				rep.WrongVerdicts++
			}
			if firstErr == nil {
				firstErr = o.err
			}
			continue
		}
		lat.Observe(o.lat.Seconds() * 1000)
		inOrder = append(inOrder, o.lat.Seconds()*1000)
	}
	rep.WitnessFailures = m.witnessFail
	failed := len(m.out) - lat.N() + m.witnessFail
	if firstErr != nil {
		fail("%d requests failed, first: %v", len(m.out)-lat.N(), firstErr)
	}
	if m.witnessErr != nil {
		fail("%d witnesses failed verification, first: %v", m.witnessFail, m.witnessErr)
	}

	// Client/server conservation: the two sides must count the same work.
	d := func(name string, labels ...string) float64 { return delta(m.before, m.after, name, labels...) }
	if got := d("bagcd_requests_total", `outcome="ok"`); got != float64(rep.Succeeded) {
		fail("client saw %d successes, bagcd_requests_total{outcome=ok} grew by %g", rep.Succeeded, got)
	}
	if got := d("bagcd_cache_hits_total"); got != float64(hits) {
		fail("client saw %d cache hits, bagcd_cache_hits_total grew by %g", hits, got)
	}
	wantHits := int64(0)
	if m.p.hits {
		wantHits = int64(len(m.out))
	}
	if hits != wantHits {
		fail("%s expects %d cache hits, saw %d", m.p.name, wantHits, hits)
	}
	if got := d("bagcd_ilp_nodes_total"); got != float64(nodes) {
		fail("replies report %d search nodes, bagcd_ilp_nodes_total grew by %g", nodes, got)
	}

	ls := lat.Quantiles(0.5, 0.99, 1)
	rep.LatencySamples = lat.N()
	rep.RunP99Ms = ls[1]
	p99, windows := windowP99(inOrder, m.p.segments)
	rep.P99Windows = windows
	rep.SlowestMs = ls[2]
	rep.SlowestShare = ls[2] / 1000 / m.wall.Seconds()
	// Interquartile means over segments: one heavy cyclic item, or a few
	// seconds of a busier machine, moves one segment, not the run's
	// figure. The heavy items still show in latency_p99_ms.
	var rates, cpus []float64
	for _, s := range m.segs {
		rep.Segments = append(rep.Segments, segStat{N: s.n, WallS: s.wall.Seconds(), CPUS: s.cpu})
		rates = append(rates, float64(s.n)/s.wall.Seconds())
		cpus = append(cpus, s.cpu*1000/float64(s.n))
	}
	tput, cpuPerReq := midMean(rates), midMean(cpus)
	rep.Result = result{
		Correct:   len(rep.Checks) == 0,
		Attempted: len(m.out),
		Failed:    failed,
		Metrics: map[string]metric{
			"throughput_rps": {tput, "1/s"},
			"latency_p50_ms": {ls[0], "ms"},
			"latency_p99_ms": {p99, "ms"},
			"cpu_ms_per_req": {cpuPerReq, "ms"},
			"peak_rss_mb":    {m.rssMB, "MB"},
			"setup_s":        {median(setups), "s"},
		},
	}
	if cfg.trace {
		e2e := rep.Result
		rep.Untraced = &e2e
	}
	return rep
}

// addLayers replaces the result's metrics with the per-layer ones: the
// timed run's /metrics deltas and the traced run's self times.
func (m *measured) addLayers(rep *report, tr *traceResult) {
	d := func(name string, labels ...string) float64 { return delta(m.before, m.after, name, labels...) }
	n := float64(len(m.out))
	count := d("bagcd_service_seconds_count")
	svc, queue, total := d("bagcd_service_seconds_sum"), d("bagcd_queue_wait_seconds_sum"), d("bagcd_request_seconds_sum")
	// bagcd_request_seconds is queue wait plus service time, both timed
	// inside the service, so HTTP and wire-format cost is the client's
	// send-to-reply time minus it.
	var rtt time.Duration
	for _, o := range m.out {
		rtt += o.lat
	}
	hits, misses := d("bagcd_cache_hits_total"), d("bagcd_cache_misses_total")
	lm := map[string]metric{
		"service.queue_wait_ms":    {1000 * queue / count, "ms"},
		"service.service_ms":       {1000 * svc / count, "ms"},
		"service.http_overhead_ms": {rtt.Seconds()*1000/n - 1000*total/count, "ms"},
		"cache.hit_ratio":          {hits / (hits + misses), "ratio"},
		"cache.evictions_per_req":  {d("bagcd_cache_evictions_total") / n, "count"},
		"store.puts_per_req":       {d("bagcd_store_puts_total") / n, "count"},
		"store.bytes_per_req":      {d("bagcd_store_disk_bytes") / n, "B"},
		"ilp.nodes_per_req":        {d("bagcd_ilp_nodes_total") / n, "count"},
	}
	tn := float64(tr.n)
	perReq := func(v time.Duration) float64 { return v.Seconds() * 1000 / tn }
	for _, layer := range replayLayers {
		ms := perReq(tr.self[layer])
		name := layer + "_ms"
		if layer == layerRPC {
			// The root's self time is the residual no layer accounts for;
			// the RPC metric is the whole root span.
			lm["trace.residual_ms"] = metric{ms, "ms"}
			var sum time.Duration
			for _, r := range tr.rpc {
				sum += r
			}
			ms = perReq(sum)
		}
		lm[name] = metric{ms, "ms"}
	}
	lm["bagclient.request_bytes"] = metric{float64(tr.reqBytes) / tn, "B"}
	lm["bagclient.response_bytes"] = metric{float64(tr.respBytes) / tn, "B"}
	rpc := make([]float64, len(tr.rpc))
	for i, r := range tr.rpc {
		rpc[i] = r.Seconds() * 1000
	}
	lm["trace.latency_p50_ms"] = metric{median(rpc), "ms"}
	lm["e2e.latency_p50_ms"] = rep.Untraced.Metrics["latency_p50_ms"]
	rep.TracedPrefix = tr.n
	rep.Result.Metrics = lm

	if float64(tr.replayILPNodes) != tr.serverILPNodes {
		rep.Checks = append(rep.Checks, fmt.Sprintf("replayed search nodes %d != bagcd_ilp_nodes_total delta %g",
			tr.replayILPNodes, tr.serverILPNodes))
		rep.Result.Correct = false
	}
}

// p99Window is the fewest requests a p99 is taken over, so that at least
// ten samples lie beyond it.
const p99Window = 1000

// windowP99 cuts the latencies, in list order, into at most maxWindows
// consecutive windows of at least p99Window requests and returns the
// interquartile mean of the windows' p99s, and the windows' p99s. A burst
// of steal time or one stall on the runner moves one window's p99, not
// the figure; with fewer than 2*p99Window requests it is the plain p99.
func windowP99(lat []float64, maxWindows int) (float64, []float64) {
	k := max(1, min(maxWindows, len(lat)/p99Window))
	p99s := make([]float64, k)
	for i := range k {
		lo, hi := segmentBounds(len(lat), k, i)
		w := metrics.NewSample(hi - lo)
		for _, v := range lat[lo:hi] {
			w.Observe(v)
		}
		p99s[i] = w.Quantile(0.99)
	}
	return midMean(p99s), p99s
}

// midMean is the mean of v without its lowest and highest quarter
// (rounded to the nearest count). Unlike the median, it moves smoothly
// with the share of a run that falls in a slow phase of the runner, and
// like the median, it ignores a few outliers.
func midMean(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	k := (len(s) + 2) / 4
	if len(s)-2*k < 1 {
		k = (len(s) - 1) / 2
	}
	sum := 0.0
	for _, x := range s[k : len(s)-k] {
		sum += x
	}
	return sum / float64(len(s)-2*k)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
