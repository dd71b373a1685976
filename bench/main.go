// Command bench is the repository's benchmark: five workloads over the
// stream-sharing system, end-to-end metrics with regression bounds, and a
// per-layer cost ledger. BENCHMARK.json at the repo root declares the
// workloads and every metric; README.md explains them.
//
//	go run -C bench streamshare/bench -workload grid-inproc -seed 1 -seconds 12 -trace 0
//	go run -C bench streamshare/bench -seed 1            # every workload, untraced
//	go run -C bench streamshare/bench -seed 1 -trace 1   # … then traced, with the ledger
//	go run -C bench streamshare/bench -diff A.json B.json
//
// With -workload the last line of standard output is one JSON object
// {"correct","attempted","failed","metrics"}; the exit code is non-zero when
// any output differed from the simulator reference.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single place workloads, metric names,
// units, directions and bounds are declared. The program reads it instead
// of repeating it.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec() (*benchSpec, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// metricValue is one reported measurement.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runRecord is the result of one workload run: the object printed as the
// last line of standard output, plus what identifies the run in a result
// file.
type runRecord struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     bool                   `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what the all-workloads mode writes and -diff reads.
type resultFile struct {
	Runs []runRecord `json:"runs"`
}

var workloads = map[string]func(*runCtx) error{
	"grid-inproc":         runGridInproc,
	"cluster-feed-open":   func(c *runCtx) error { return runCluster(c, feedOpen) },
	"cluster-feed-sat":    func(c *runCtx) error { return runCluster(c, feedSat) },
	"cluster-durable-sat": func(c *runCtx) error { return runCluster(c, durableSat) },
	"subscribe-churn":     runChurn,
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run one workload and print its result as the last line; empty runs all of them")
	seed := flag.Int64("seed", 1, "seed for the generated items and the churn order")
	seconds := flag.Float64("seconds", 0, "seconds each run measures (default: run_seconds of BENCHMARK.json)")
	trace := flag.String("trace", "0", "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	runs := flag.Int("runs", 1, "all-workloads mode: repeat every workload this many times, seeds seed..seed+runs-1, and report the spread")
	out := flag.String("out", "", "all-workloads mode: result file (default bench/out/result.json)")
	diff := flag.Bool("diff", false, "compare two result files: -diff A.json B.json")
	flag.Parse()

	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	spec, err := loadSpec()
	if err != nil {
		return fail(err)
	}
	if *diff {
		if flag.NArg() != 2 {
			return fail(errors.New("usage: -diff A.json B.json"))
		}
		worse, err := diffFiles(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	traced := *trace != "0" && *trace != "false"
	cleanupOnSignal()
	defer cleanupAll()

	if *workload != "" {
		rec, err := runOne(spec, *workload, *seed, *seconds, traced, defaultSizes())
		if err != nil {
			return fail(err)
		}
		printRecord(os.Stdout, rec)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
		if !rec.Correct {
			return 2
		}
		return 0
	}
	if err := runAll(spec, *seed, *seconds, traced, *runs, *out); err != nil {
		return fail(err)
	}
	return 0
}

// runOne runs one workload in this process and checks that it reported
// exactly the metrics BENCHMARK.json declares for the mode.
func runOne(spec *benchSpec, name string, seed int64, seconds float64, traced bool, sz sizes) (*runRecord, error) {
	fn := workloads[name]
	if fn == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	c := &runCtx{workload: name, seed: seed, seconds: seconds, traced: traced, sz: sz, m: map[string]float64{}, probe: newProber()}
	if traced {
		c.tr = newTracer()
	}
	if err := fn(c); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	c.logf("wall: %s", strings.Join(c.phases, ", "))
	c.logf("probe: median %.2f ms over %d samples (reference %.1f ms)", median(c.probe.ms), len(c.probe.ms), probeRefMs)
	if c.tr != nil {
		dir, err := outDir()
		if err != nil {
			return nil, err
		}
		if err := writeTrace(filepath.Join(dir, "trace-"+name+".json"), name, c.tr.finish()); err != nil {
			return nil, err
		}
	}
	declared := spec.EndToEnd
	if traced {
		declared = spec.PerLayer
	}
	rec := &runRecord{Workload: name, Seed: seed, Trace: traced,
		Correct: c.failed == 0, Attempted: c.attempted, Failed: c.failed,
		Metrics: map[string]metricValue{}}
	for _, ms := range declared {
		v, ok := c.m[ms.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", name, ms.Name)
		}
		if !traced && v == 0 {
			return nil, fmt.Errorf("%s: end-to-end metric %s is 0", name, ms.Name)
		}
		rec.Metrics[ms.Name] = metricValue{Value: v, Unit: ms.Unit}
	}
	if rec.Attempted < 1 {
		return nil, fmt.Errorf("%s: no operation attempted", name)
	}
	return rec, nil
}

// printRecord lists a run's metrics by name with their units.
func printRecord(w *os.File, rec *runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d operations, %d failed\n", rec.Workload, rec.Seed, rec.Trace, rec.Attempted, rec.Failed)
	for _, n := range names {
		fmt.Fprintf(w, "  %-40s %14.6g %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
}

// runAll runs every workload in a fresh child process each — the same
// isolation the contract's one-workload invocations have, so peak memory
// and heap state never carry from one workload into the next — untraced
// first, then traced when asked, and writes the result file.
func runAll(spec *benchSpec, seed int64, seconds float64, traced bool, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if out == "" {
		dir, err := outDir()
		if err != nil {
			return err
		}
		out = filepath.Join(dir, "result.json")
	}
	var file resultFile
	incorrect := 0
	modes := []bool{false}
	if traced {
		modes = append(modes, true)
	}
	for _, tr := range modes {
		for _, w := range spec.Workloads {
			for r := 0; r < runs; r++ {
				rec, err := runChild(self, w.Name, seed+int64(r), seconds, tr)
				if err != nil {
					return err
				}
				printRecord(os.Stdout, rec)
				if !rec.Correct {
					incorrect++
				}
				file.Runs = append(file.Runs, *rec)
			}
		}
	}
	if runs > 1 {
		printSpread(os.Stdout, spec, file.Runs)
	}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", out)
	if incorrect > 0 {
		return fmt.Errorf("%d run(s) produced output that differs from the reference", incorrect)
	}
	return nil
}

// runChild runs one workload in a child process and parses the last line
// of its output.
func runChild(self, workload string, seed int64, seconds float64, traced bool) (*runRecord, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", tr)
	cmd.Stderr = os.Stderr
	var outb bytes.Buffer
	cmd.Stdout = &outb
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	trackProc(cmd)
	err := cmd.Wait()
	untrackProc(cmd)
	lines := strings.Split(strings.TrimSpace(outb.String()), "\n")
	rec := &runRecord{Workload: workload, Seed: seed, Trace: traced}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), rec); jerr != nil {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		return nil, fmt.Errorf("%s: last output line is not a result: %w", workload, jerr)
	}
	return rec, nil
}

// printSpread reports, per (workload, end-to-end metric), the median over
// the runs and the interquartile spread as a share of the median, next to
// the metric's bound.
func printSpread(w *os.File, spec *benchSpec, runs []runRecord) {
	fmt.Fprintf(w, "\n%-20s %-24s %5s %14s %9s %7s\n", "workload", "metric", "runs", "median", "spread", "bound")
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			vs := metricValues(runs, wl.Name, ms.Name)
			if len(vs) == 0 {
				continue
			}
			flag := ""
			if sp := iqrShare(vs); sp > ms.Bound {
				flag = "  WIDER THAN BOUND"
			} else if sp > ms.Bound/3 {
				flag = "  above a third of the bound"
			}
			fmt.Fprintf(w, "%-20s %-24s %5d %14.6g %8.2f%% %6.0f%%%s\n", wl.Name, ms.Name, len(vs), median(vs), 100*iqrShare(vs), 100*ms.Bound, flag)
		}
	}
}

// metricValues collects one end-to-end metric's values over the untraced
// runs of one workload.
func metricValues(runs []runRecord, workload, metric string) []float64 {
	var vs []float64
	for _, r := range runs {
		if r.Workload == workload && !r.Trace {
			if mv, ok := r.Metrics[metric]; ok {
				vs = append(vs, mv.Value)
			}
		}
	}
	return vs
}
