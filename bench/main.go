// Command bench is the repository's benchmark: four workloads measured
// end to end through the real binaries (shears, figures, dataset,
// atlasd, built from this tree and run as child processes), and a
// traced run that composes the same pipeline in process from the
// layers' public functions with a span around each call.
//
//	bash bench/run.sh --workload serve_windows --seed 7 --seconds 15 --trace 0
//	bash bench/run.sh --workload paper_run --seed 7 --seconds 15 --trace 1
//	bash bench/run.sh -repeat 2        # whole set twice, pairs vs bounds
//	bash bench/run.sh                  # every workload once
//
// The last line of standard output is one JSON object (correct,
// attempted, failed, metrics); the readable report goes to standard
// error. See README.md for the metric, layer and workload tables.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     int
	traceOut  string
	repeat    int
	smoke     bool
	root      string
	printSpec bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == launchFlag {
		os.Exit(launchMain(os.Args[2:]))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (default: every workload in turn)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's inputs: world, windows, epochs")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "nominal length of the timed phase; op counts scale from it")
	flag.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics from child processes; 1: per-layer metrics from the traced in-process run")
	flag.StringVar(&o.traceOut, "trace-out", "", "Chrome trace file of a traced run (default <root>/.bench_build/trace-<workload>.json)")
	flag.IntVar(&o.repeat, "repeat", 0, "run the whole set this many times on the same tree and compare pairs against the bounds")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny scale (what the package tests run)")
	flag.StringVar(&o.root, "root", "..", "root of the repository to measure")
	flag.BoolVar(&o.printSpec, "print-spec", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if o.printSpec {
		b, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, os.Stdout, os.Stderr); err != nil {
		stop()
		fatal(err)
	}
}

// workloads is the selection: the one named, or every workload in turn.
func (o options) workloads() []string {
	if o.workload != "" {
		return []string{o.workload}
	}
	names := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		names[i] = w.Name
	}
	return names
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

func run(ctx context.Context, o options, stdout, stderr io.Writer) error {
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", o.trace)
	}
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
	}
	e, err := newEnv(o.root, stderr)
	if err != nil {
		return err
	}
	if err := e.buildBinaries(ctx); err != nil {
		return err
	}
	sha, err := e.treeSHA()
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "bench: tree=%s go=%s GOMAXPROCS=%d NumCPU=%d child_GOMAXPROCS=%d seed=%d seconds=%d\n",
		sha, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), childProcs, o.seed, o.seconds)

	sz := sizeFor(o.seconds)
	if o.smoke {
		sz = smokeSize()
	}
	if o.repeat > 0 {
		return runRepeat(ctx, e, o, sz, stderr)
	}
	for _, name := range o.workloads() {
		res, err := runOne(ctx, e, name, o, sz)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		specs := endToEnd
		if o.trace == 1 {
			specs = perLayer
		}
		report(stderr, name, res, specs)
		if err := emit(stdout, res, specs); err != nil {
			return err
		}
	}
	return nil
}

// runOne runs one workload: untraced through the child processes, or
// the traced in-process composition.
func runOne(ctx context.Context, e *env, name string, o options, sz sizing) (*result, error) {
	if o.trace == 1 {
		out := o.traceOut
		if out == "" {
			out = filepath.Join(e.work, "trace-"+name+".json")
		}
		return runTraced(ctx, e, name, o.seed, sz, out)
	}
	switch name {
	case "paper_run":
		return runPaper(ctx, e, o.seed, sz)
	case "reanalyze":
		return runReanalyze(ctx, e, o.seed, sz)
	case "serve_windows":
		return runServeWindows(ctx, e, o.seed, sz)
	case "serve_ingest":
		return runServeIngest(ctx, e, o.seed, sz)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// report prints the readable form: every metric by name with its unit,
// the sample counts, the output checks and failed/attempted.
func report(w io.Writer, name string, res *result, specs []metricSpec) {
	fmt.Fprintf(w, "== %s: correct=%v failed=%d/%d\n", name, res.Correct, res.Failed, res.Attempted)
	for _, m := range specs {
		fmt.Fprintf(w, "   %-34s %14.4f %s\n", m.Name, res.Metrics[m.Name], m.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "   - %s\n", n)
	}
}

// emit writes the contract's result line: exactly the metrics of specs.
func emit(w io.Writer, res *result, specs []metricSpec) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	var missing []string
	for _, m := range specs {
		v, ok := res.Metrics[m.Name]
		if !ok {
			missing = append(missing, m.Name)
		}
		out.Metrics[m.Name] = value{v, m.Unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("run did not measure %v", missing)
	}
	b, err := json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
