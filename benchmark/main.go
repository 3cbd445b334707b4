// Command benchmark is the repository's benchmark: it measures MinoanER from
// bytes on disk to bytes on the wire. End-to-end numbers come from the real
// binaries (cmd/minoaner, cmd/minoanerd) run as child processes with tracing
// off; per-layer numbers come from a separate traced run in which this
// program calls each layer's public functions under spans. BENCHMARK.json at
// the repository root declares the workloads, metrics, units and regression
// bounds; README.md in this directory explains the choices.
//
// Run it through run.sh, which builds the binaries first:
//
//	bash benchmark/run.sh -workload batch-yago -seed 1 -seconds 15 -trace 0
//	bash benchmark/run.sh -workload all -seed 1 -out report.json -spans spans.json
//	bash benchmark/run.sh -aa > aa.md
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// metric is one measured value as the driver reads it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// declaration is BENCHMARK.json: the one place where workloads, metrics,
// units and bounds are declared. Every workload measures every end-to-end
// metric on its own children; what each stands for on each workload is in
// README.md.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

// declared is one metric of the declaration.
type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// declarationFile is read from the working directory: run.sh starts the
// program in the root of the checkout.
const declarationFile = "BENCHMARK.json"

func readDeclaration(path string) (declaration, error) {
	var d declaration
	raw, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(raw, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if len(d.Workloads) == 0 || len(d.EndToEnd) == 0 || len(d.PerLayer) == 0 {
		return d, fmt.Errorf("%s declares no workloads or no metrics", path)
	}
	return d, nil
}

// metrics returns the metrics a run in the given mode reports.
func (d declaration) metrics(trace int) []declared {
	if trace == 1 {
		return d.PerLayer
	}
	return d.EndToEnd
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes carry what the numbers rest on: sample counts, which percentile
	// the tail is, every violated check.
	Notes []string `json:"notes,omitempty"`

	defs []declared // what BENCHMARK.json declares for this run's mode
}

func newReport(workload string, seed int64, trace int, defs []declared) *report {
	return &report{Workload: workload, Seed: seed, Trace: trace, Correct: true,
		Metrics: make(map[string]metric, len(defs)), defs: defs}
}

// set records a metric declared for this run's mode.
func (r *report) set(name string, v float64) {
	for _, d := range r.defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in " + declarationFile)
}

// ops adds operations attempted and failed.
func (r *report) ops(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
}

// check records a correctness check; a violated one fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.Correct = false
		r.note("FAILED CHECK: "+format, args...)
	}
}

func (r *report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// complete reports the declared metrics that were not measured.
func (r *report) complete() error {
	for _, d := range r.defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			return fmt.Errorf("workload %s: metric %s was not measured", r.Workload, d.Name)
		}
	}
	return nil
}

// print writes every metric by name with its unit, then the notes.
func (r *report) print() {
	fmt.Fprintf(os.Stderr, "== %s seed %d trace %d: correct=%t failed=%d/%d\n",
		r.Workload, r.Seed, r.Trace, r.Correct, r.Failed, r.Attempted)
	for _, d := range r.defs {
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", d.Name, r.Metrics[d.Name].Value, d.Unit)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(os.Stderr, "  # %s\n", n)
	}
}

// line is the one-object result the driver parses from the last line of
// standard output.
func (r *report) line() string {
	b, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, max(r.Attempted, 1), r.Failed, r.Metrics})
	if err != nil {
		panic(err) // floats and strings only
	}
	return string(b)
}

// options are the settings of one run.
type options struct {
	seed    int64
	seconds time.Duration
	scale   float64 // factor on every pair's scale; 1 except in the smoke test
	spans   *[]span // where a traced run leaves its spans, if wanted
	// fault names an input to damage once it is written ("e2" or
	// "snapshot"): the test that the correctness checks catch a broken run.
	fault string
}

// damage truncates the file at path to half its size when the run was asked
// to inject that fault.
func (o options) damage(fault, path string) error {
	if o.fault != fault {
		return nil
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	return os.Truncate(path, st.Size()/2)
}

// workload is one set of inputs and the traffic run over them.
type workload struct {
	name string
	// main is the pair the children work on; churn, where set, the second
	// pair that is loaded and unloaded beside the queries.
	main  pairSpec
	churn *pairSpec
	run   func(ctx context.Context, e *env, w workload, o options, r *report) error
}

// The scales are the largest that let the driver's 92 runs finish inside its
// cap on two cores (README.md, "Sizing"): YAGO ×5 is 50,000 × 52,500
// entities, BBC ×1.5 is 6,000 × 18,000, both about 30 MB of N-Triples.
var workloads = []workload{
	{name: "batch-yago", main: pairSpec{"YAGO-IMDb", 5}, run: runBatch},
	{name: "batch-bbc", main: pairSpec{"BBCmusic-DBpedia", 1.5}, run: runBatch},
	{name: "serve-query", main: pairSpec{"YAGO-IMDb", 5}, run: runServeQuery},
	{name: "serve-churn", main: pairSpec{"YAGO-IMDb", 5}, churn: &pairSpec{"YAGO-IMDb", 2}, run: runServeChurn},
}

func (s pairSpec) scaled(f float64) pairSpec { return pairSpec{s.preset, s.scale * f} }

// runOne runs one workload once, traced or not, in a scratch directory of
// its own.
func runOne(ctx context.Context, bin string, decl declaration, w workload, o options, trace int) (*report, error) {
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	dir, err := newScratch(root)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{bin: bin, dir: dir, nproc: runtime.NumCPU()}
	r := newReport(w.name, o.seed, trace, decl.metrics(trace))
	measure := w.run
	if trace == 1 {
		measure = runTraced
	}
	if err := measure(ctx, e, w, o, r); err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.name, err)
	}
	if err := r.complete(); err != nil {
		return nil, err
	}
	return r, nil
}

// flags are the command line.
type flags struct {
	workload, bin, out, spans string
	trace                     int
	aa                        bool
	o                         options
}

func main() {
	if len(os.Args) == 2 && os.Args[1] == spinArg {
		fmt.Fprintln(os.Stderr, "benchmark:", spin())
		os.Exit(1)
	}
	var f flags
	var secs float64
	flag.StringVar(&f.workload, "workload", "all", "workload to run, or all (every workload, untraced then traced)")
	flag.Int64Var(&f.o.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&secs, "seconds", 15, "how long one run measures")
	flag.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics from child processes; 1: per-layer metrics from the traced run")
	flag.StringVar(&f.bin, "bin", "", "directory holding the minoaner and minoanerd binaries (run.sh sets it)")
	flag.StringVar(&f.out, "out", "", "also write the reports to this JSON file")
	flag.StringVar(&f.spans, "spans", "", "write the traced runs' spans to this JSON file")
	flag.StringVar(&f.o.fault, "fault", "", "damage an input after writing it, e2 or snapshot: the run must then fail")
	flag.BoolVar(&f.aa, "aa", false, "run every workload twice over ten seeds, as the driver does, and judge the two sets against BENCHMARK.json")
	flag.Parse()
	f.o.seconds = time.Duration(secs * float64(time.Second))
	f.o.scale = 1
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	err := run(ctx, f)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run is main without the exit: it prints every report, one result line
// per report last, and returns an error when a run could not be made or a
// correctness check failed.
func run(ctx context.Context, f flags) error {
	if f.bin == "" {
		return fmt.Errorf("-bin is required: run this program through benchmark/run.sh, which builds the binaries under test")
	}
	bin, err := filepath.Abs(f.bin)
	if err != nil {
		return err
	}
	decl, err := readDeclaration(declarationFile)
	if err != nil {
		return err
	}
	if f.aa {
		return runAA(ctx, bin, decl, f.o.seconds)
	}
	var spans []span
	if f.spans != "" {
		f.o.spans = &spans
	}
	var reports []*report
	for _, w := range workloads {
		if f.workload != "all" && f.workload != w.name {
			continue
		}
		modes := []int{f.trace}
		if f.workload == "all" {
			modes = []int{0, 1}
		}
		for _, mode := range modes {
			r, err := runOne(ctx, bin, decl, w, f.o, mode)
			if err != nil {
				return err
			}
			r.print()
			reports = append(reports, r)
		}
	}
	if len(reports) == 0 {
		return fmt.Errorf("unknown workload %q", f.workload)
	}
	if f.out != "" {
		if err := writeJSON(f.out, reports); err != nil {
			return err
		}
	}
	if f.spans != "" {
		if err := writeJSON(f.spans, spans); err != nil {
			return err
		}
	}
	correct := true
	for _, r := range reports {
		fmt.Println(r.line())
		correct = correct && r.Correct
	}
	if !correct {
		return fmt.Errorf("a correctness check failed (see the FAILED CHECK notes above)")
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
