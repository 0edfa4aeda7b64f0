// Command e2ebench is xkprop's end-to-end benchmark. It runs one workload
// in one process against the program's Go API and a live in-process
// xkserve on loopback, checks every output against computations that do
// not share the code under test, and prints the metrics as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also times calls into each layer and prints the per-layer metrics. See
// README.md for the workloads, the metrics and how they relate.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"xkprop/internal/server"
)

// setupReps is how many times each workload builds its set-up; setup_s is
// the median, since one millisecond-scale set-up is too noisy alone.
const setupReps = 201

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what every workload receives.
type env struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil unless -trace 1
	scratch string  // directory for sink output and traces

	mu     sync.Mutex
	checks []string
}

// fail records a failed correctness check; the run then reports
// "correct": false and exits non-zero.
func (e *env) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.checks) < 20 {
		e.checks = append(e.checks, msg)
	}
}

// outcome is what a workload's timed phase produced.
type outcome struct {
	attempted, failed int64
	lat               []time.Duration // successful operations only
	bytes             int64           // input bytes consumed
	elapsed           time.Duration
	cpu               time.Duration
	gcCPU             time.Duration
	setup             time.Duration
	tailPct           float64
	// window, when non-zero, reads p50 and the tail per window of that
	// many consecutive operations and reports the median window, so one
	// host stall moves one window, not the run.
	window int
	layers map[string]metric // traced runs only
}

type workloadFunc func(e *env) (*outcome, error)

var workloads = map[string]workloadFunc{
	"ingest-dblp": runIngest,
	"design-cold": runDesign,
}

func main() { os.Exit(run()) }

// run runs one workload and returns the exit code: 0 when every check
// passed, 1 on a failed check or error, 2 on bad usage.
func run() int {
	name := flag.String("workload", "", "workload to run: ingest-dblp or design-cold")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	scratch := flag.String("scratch", ".bench_build", "directory for sink output and traces")
	flag.Parse()

	workload, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: e2ebench --workload ingest-dblp|design-cold --seed N --seconds S --trace 0|1")
		return 2
	}
	e := &env{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		scratch: filepath.Join(*scratch, fmt.Sprintf("run-%s-%d", *name, os.Getpid()))}
	if *trace == 1 {
		e.tr = newTracer()
	}
	defer os.RemoveAll(e.scratch)
	fmt.Println("host:", fingerprint())

	o, err := workload(e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", *name, err)
		return 1
	}
	res := result{Correct: len(e.checks) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: endToEnd(o)}
	printMetrics("end-to-end", res.Metrics)
	if e.tr != nil {
		printMetrics("per-layer", o.layers)
		path := filepath.Join(*scratch, "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := e.tr.write(path); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(e.tr.spans), path)
		res.Metrics = o.layers
	}
	for _, c := range e.checks {
		fmt.Println("CHECK FAILED:", c)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(kind string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-10s %-26s %14.4f %s\n", kind, n, m[n].Value, m[n].Unit)
	}
}

// endToEnd derives the user-visible metrics from a timed phase.
func endToEnd(o *outcome) map[string]metric {
	done := float64(len(o.lat))
	secs := o.elapsed.Seconds()
	var p50, t time.Duration
	var p float64
	var err error
	if o.window > 0 {
		p50 = windowed(o.lat, o.window, func(w []time.Duration) time.Duration { return percentile(sortDurations(w), 50) })
		t = windowed(o.lat, o.window, func(w []time.Duration) time.Duration {
			t, p, err = tail(w, o.tailPct)
			return t
		})
	} else {
		p50 = percentile(sortDurations(o.lat), 50)
		t, p, err = tail(o.lat, o.tailPct)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "warning: tail_ms:", err)
	}
	fmt.Printf("samples: %d completed, tail_ms is p%g\n", len(o.lat), p)
	cpuPerOp := math.NaN()
	if done > 0 {
		cpuPerOp = ms(o.cpu) / done
	}
	return map[string]metric{
		"setup_s":     {o.setup.Seconds(), "s"},
		"ops_s":       {done / secs, "ops/s"},
		"mb_s":        {float64(o.bytes) / 1e6 / secs, "MB/s"},
		"p50_ms":      {ms(p50), "ms"},
		"tail_ms":     {ms(t), "ms"},
		"cpu_ms_op":   {cpuPerOp, "ms"},
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// meter brackets a timed phase: wall time, process CPU and GC CPU.
type meter struct {
	t0   time.Time
	cpu0 time.Duration
	gc0  time.Duration
}

func startMeter() meter {
	runtime.GC()
	return meter{t0: time.Now(), cpu0: processCPU(), gc0: gcCPU()}
}

func (m meter) stop(o *outcome) {
	o.elapsed = time.Since(m.t0)
	o.cpu = processCPU() - m.cpu0
	o.gcCPU = gcCPU() - m.gc0
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func readMetric(name string) metrics.Value {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value
}

func gcCPU() time.Duration {
	v := readMetric("/cpu/classes/gc/total:cpu-seconds")
	if v.Kind() != metrics.KindFloat64 {
		return 0
	}
	return time.Duration(v.Float64() * 1e9)
}

// allocs reports cumulative heap allocations (objects, bytes).
func allocs() (objects, bytes uint64) {
	return readMetric("/gc/heap/allocs:objects").Uint64(), readMetric("/gc/heap/allocs:bytes").Uint64()
}

// setupMedian builds a workload's set-up setupReps times and returns the
// median duration with the last instance; earlier instances are torn down.
func setupMedian[T any](build func() (T, error), teardown func(T)) (T, time.Duration, error) {
	var last T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(last)
		}
		t0 := time.Now()
		v, err := build()
		if err != nil {
			return last, 0, err
		}
		times = append(times, float64(time.Since(t0)))
		last = v
	}
	return last, time.Duration(median(times)), nil
}

// live is an in-process xkserve on a loopback port.
type live struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
}

// startServer boots xkserve on 127.0.0.1:0. wrap, when non-nil, wraps the
// server's handler (the traced runs' timing middleware).
func startServer(cfg server.Config, wrap func(http.Handler) http.Handler) (*live, error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	l := &live{srv: srv, http: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.http.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "e2ebench: serve:", err)
		}
	}()
	return l, nil
}

// stop closes the server and waits for its serve loop to return.
func (l *live) stop() {
	l.http.Close()
	<-l.done
}

// transport returns an HTTP transport holding at most nproc connections.
func transport() *http.Transport {
	n := runtime.NumCPU()
	return &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}
}

// fingerprint names the host a figure came from.
func fingerprint() string {
	model := "unknown CPU"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s", model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}
