// Command hexbench measures hexd end to end and layer by layer.
//
// It drives the real serving stack in process — service.New with hexd's
// default options, a durable store, service.Handler on a 127.0.0.1
// listener and the sweep jobs manager — with four closed-loop workloads
// generated from -seed. Each rep runs in a fresh child process. Untraced
// reps give the end-to-end metrics; one traced rep per workload, whose ops
// are replayed stage by stage through each layer's public function, gives
// the per-layer metrics. Every body served is checked, and hexbench exits
// non-zero if any is wrong.
//
// Usage:
//
//	hexbench -seed 1 -out result.json             # all workloads, both kinds of metric
//	hexbench -workload cold-small -seed 3 -seconds 20 -trace 0
//	hexbench -compare A.json B.json               # verdict per metric and workload
//
// With one -workload, the last line of standard output is a JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with -trace 0, the per-layer metrics with -trace 1. See
// bench/README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// childEnv carries a child process's JSON config; its presence makes the
// binary run one rep instead of a benchmark.
const childEnv = "HEXBENCH_CHILD"

// childTimeout bounds one rep, so a hung child cannot hang the run.
const childTimeout = 150 * time.Second

func main() {
	if cfg := os.Getenv(childEnv); cfg != "" {
		os.Exit(childMain(cfg, os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// childMain runs one rep and prints its result as JSON.
func childMain(raw string, stdout io.Writer) int {
	var cfg childConfig
	if err := json.Unmarshal([]byte(raw), &cfg); err != nil {
		fmt.Fprintln(os.Stderr, "hexbench child: bad config:", err)
		return 2
	}
	res, err := runChild(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hexbench child %s: %v\n", cfg.Plan.Workload, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "hexbench child:", err)
		return 1
	}
	return 0
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hexbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "all", "workload to run: all, or one of cold-small, warm-hits, large-run, campaign-agg")
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		seconds  = fs.Int("seconds", nominalSeconds, "run length in seconds at the nominal rate; op counts scale with it")
		trace    = fs.Int("trace", 0, "with one -workload: 0 prints end-to-end metrics, 1 per-layer metrics")
		out      = fs.String("out", "", "write the full result file here")
		workdir  = fs.String("workdir", "", "scratch directory for stores and traces (default: a new temporary directory)")
		traceDir = fs.String("trace-dir", "", "directory for trace-<workload>.jsonl (default: <workdir>/traces)")
		compare  = fs.Bool("compare", false, "compare two result files: hexbench -compare A.json B.json")
		bench    = fs.String("benchmark", "BENCHMARK.json", "benchmark definition whose bounds -compare applies")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "hexbench: -compare takes two result files")
			return 2
		}
		ok, err := compareFiles(*bench, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(stderr, "hexbench:", err)
			return 2
		}
		if !ok {
			return 1
		}
		return 0
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "hexbench: want -seconds >= 1, -trace 0 or 1, and no arguments")
		return 2
	}
	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(stderr, "hexbench: unknown workload %q\n", *name)
			return 2
		}
		ws = []workload{w}
	}
	if *workdir == "" {
		dir, err := os.MkdirTemp("", "hexbench-")
		if err != nil {
			fmt.Fprintln(stderr, "hexbench:", err)
			return 1
		}
		*workdir = dir
	}
	if *traceDir == "" {
		*traceDir = filepath.Join(*workdir, "traces")
	}

	// A whole benchmark runs every workload untraced, then traced. One
	// workload prints one kind of metric: five untraced reps for the
	// end-to-end ones, or one untraced rep (the process.* metrics and the
	// tracing overhead need it) and one traced rep for the per-layer ones.
	untraced, traced := reps, true
	if *name != "all" {
		traced = *trace == 1
		if traced {
			untraced = 1
		}
	}
	var plans []plan
	for _, w := range ws {
		plans = append(plans, newPlan(w, *seed, *seconds))
	}
	start := time.Now()
	reports, err := measure(plans, untraced, traced, *workdir, *traceDir, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "hexbench:", err)
		return 1
	}
	res := resultFile{Header: newHeader(*seed, *seconds, untraced, plans, time.Since(start)), Workloads: reports}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintln(stderr, "hexbench:", err)
			return 1
		}
	}
	correct := true
	for _, r := range reports {
		correct = correct && r.Correct
		for _, p := range r.Problems {
			fmt.Fprintf(stderr, "hexbench: %s: %s\n", r.Plan.Workload, p)
		}
	}
	if *name == "all" {
		printTable(stdout, res)
		fmt.Fprintf(stderr, "hexbench: traces in %s\n", *traceDir)
	} else {
		line, err := json.Marshal(resultLine(reports[ws[0].name], traced))
		if err != nil {
			fmt.Fprintln(stderr, "hexbench:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
	}
	if !correct {
		return 1
	}
	return 0
}

// measure runs untraced reps of every plan, interleaved round-robin
// (W1 rep 1, W2 rep 1, …, W1 rep 2, …) so machine drift lands on every
// workload alike, then one traced rep of each when traced is set.
func measure(plans []plan, untraced int, traced bool, workdir, traceDir string, log io.Writer) (map[string]*workloadReport, error) {
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	runs := make(map[string][]*repResult)
	tracedRuns := make(map[string]*repResult)
	for _, st := range schedule(plans, untraced, traced) {
		p := st.plan
		fmt.Fprintf(log, "hexbench: %s rep %d%s\n", p.Workload, st.rep+1, map[bool]string{true: " (traced)"}[st.traced])
		r, err := spawn(childConfig{Plan: p, Traced: st.traced, WorkDir: workdir, TraceDir: traceDir})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.Workload, err)
		}
		if st.traced {
			tracedRuns[p.Workload] = r
		} else {
			runs[p.Workload] = append(runs[p.Workload], r)
		}
	}
	reports := make(map[string]*workloadReport)
	for _, p := range plans {
		reports[p.Workload] = newReport(p, runs[p.Workload], tracedRuns[p.Workload], log)
	}
	return reports, nil
}

// step is one child process of a run.
type step struct {
	plan   plan
	rep    int
	traced bool
}

// schedule orders a run's reps: untraced reps round-robin across
// workloads, then the traced reps.
func schedule(plans []plan, untraced int, traced bool) []step {
	var out []step
	for r := 0; r < untraced; r++ {
		for _, p := range plans {
			out = append(out, step{p, r, false})
		}
	}
	if traced {
		for _, p := range plans {
			out = append(out, step{p, 0, true})
		}
	}
	return out
}

// spawn runs one rep in a fresh child process: this binary, re-executed
// with the config in its environment.
func spawn(cfg childConfig) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cfg.T0 = time.Now().UnixNano()
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var r repResult
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	return &r, nil
}

// workloadReport is one workload's part of a result file.
type workloadReport struct {
	Plan       plan     `json:"plan"`
	Reps       int      `json:"reps"`
	Attempted  int      `json:"attempted"`
	Failed     int      `json:"failed"`
	ErrorRatio float64  `json:"error_ratio"`
	Correct    bool     `json:"correct"`
	Problems   []string `json:"problems,omitempty"`
	Digest     string   `json:"digest"`
	// Counts repeat exactly between runs of one commit at one plan.
	Counts   map[string]float64 `json:"counts"`
	EndToEnd map[string]summary `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`
}

//go:embed testdata/digests.json
var digestsJSON []byte

// referenceDigests are the digests of a correct build at one seed and the
// nominal run length.
type referenceDigests struct {
	Seed      uint64 `json:"seed"`
	Workloads map[string]struct {
		Ops    int    `json:"ops"`
		Digest string `json:"digest"`
	} `json:"workloads"`
}

// newReport checks a workload's reps against each other and against the
// reference digest, and reduces them to its metrics.
func newReport(p plan, rs []*repResult, traced *repResult, log io.Writer) *workloadReport {
	all := append([]*repResult(nil), rs...)
	if traced != nil {
		all = append(all, traced)
	}
	rep := &workloadReport{Plan: p, Reps: len(rs), Counts: map[string]float64{}}
	var fsyncs, fresh uint64
	var storeBytes int64
	for _, r := range all {
		rep.Attempted += r.Attempted
		rep.Failed += r.Failed
		rep.Problems = append(rep.Problems, r.Problems...)
		if rep.Digest == "" {
			rep.Digest = r.Digest
		} else if r.Digest != rep.Digest {
			rep.Failed++
			rep.Problems = append(rep.Problems, "reps of one plan were served different results (digests differ)")
		}
		fsyncs += r.Fsyncs
		fresh += r.Fresh
		storeBytes += r.StoreBytes
	}
	var ref referenceDigests
	if err := json.Unmarshal(digestsJSON, &ref); err != nil {
		rep.Failed++
		rep.Problems = append(rep.Problems, "testdata/digests.json: "+err.Error())
	} else if want, ok := ref.Workloads[p.Workload]; ok && ref.Seed == p.Seed && want.Ops == p.Ops && want.Digest != rep.Digest {
		rep.Failed++
		rep.Problems = append(rep.Problems, fmt.Sprintf("digest %s, want %s from testdata/digests.json", rep.Digest, want.Digest))
	}
	rep.Correct = rep.Failed == 0
	rep.ErrorRatio = ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.Counts["fsyncs_per_op"] = ratio(float64(fsyncs), float64(rep.Attempted))
	rep.Counts["store_bytes_per_op"] = ratio(float64(storeBytes), float64(fresh))
	if len(rs) > 0 {
		rep.EndToEnd = endToEndSummaries(rs)
	}
	if traced != nil {
		rep.PerLayer = traced.Layers
		for k, v := range processMetrics(rs, runtime.NumCPU()) {
			rep.PerLayer[k] = v
		}
		rep.PerLayer["trace.overhead_ratio"] = ratio(median(traced.Rates), rep.EndToEnd["ops_per_s"].Value)
		rep.Counts["core.events_per_run"] = rep.PerLayer["core.events_per_run"]
		run, sim := rep.PerLayer["core.run_ms"], rep.PerLayer["service.sim_span_ms"]
		if agree := ratio(run, sim); agree < 1-simAgreementBound || agree > 1+simAgreementBound {
			fmt.Fprintf(log, "hexbench: %s: core.run_ms %.3f and service.sim_span_ms %.3f differ by more than %.0f%%\n",
				p.Workload, run, sim, simAgreementBound*100)
		}
	}
	return rep
}

// lineMetric is one metric of the one-workload output line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-workload output: end-to-end metrics, or with
// traced the per-layer ones.
func resultLine(r *workloadReport, traced bool) any {
	metrics := make(map[string]lineMetric)
	if traced {
		for _, m := range perLayer {
			metrics[m.Name] = lineMetric{r.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			metrics[m.Name] = lineMetric{r.EndToEnd[m.Name].Value, m.Unit}
		}
	}
	return struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// header records the conditions of a run.
type header struct {
	Nproc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	GoVersion  string         `json:"go_version"`
	CPUModel   string         `json:"cpu_model"`
	Commit     string         `json:"commit"`
	Seed       uint64         `json:"seed"`
	Seconds    int            `json:"seconds"`
	Reps       int            `json:"reps"`
	Ops        map[string]int `json:"ops_per_rep"`
	WallS      float64        `json:"wall_s"`
}

func newHeader(seed uint64, seconds, reps int, plans []plan, wall time.Duration) header {
	h := header{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		Commit:     "unknown",
		Seed:       seed,
		Seconds:    seconds,
		Reps:       reps,
		Ops:        make(map[string]int),
		WallS:      wall.Seconds(),
	}
	for _, p := range plans {
		h.Ops[p.Workload] = p.Ops
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads")
	}
	return &r, nil
}

// printTable prints a whole run's metrics, one row per metric and
// workload.
func printTable(w io.Writer, res resultFile) {
	fmt.Fprintf(w, "hexbench seed=%d seconds=%d reps=%d nproc=%d commit=%s wall=%.0fs\n",
		res.Header.Seed, res.Header.Seconds, res.Header.Reps, res.Header.Nproc, res.Header.Commit, res.Header.WallS)
	for _, wl := range workloads {
		r, ok := res.Workloads[wl.name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "\n%s  correct=%v attempted=%d failed=%d digest=%.16s\n", wl.name, r.Correct, r.Attempted, r.Failed, r.Digest)
		for _, m := range endToEnd {
			s := r.EndToEnd[m.Name]
			fmt.Fprintf(w, "  %-24s %14.6g %-8s q1 %-12.6g q3 %-12.6g spread %5.1f%%", m.Name, s.Value, m.Unit, s.Q1, s.Q3, 100*s.spread())
			if s.Percentile > 0 {
				fmt.Fprintf(w, "  p%d of %d", s.Percentile, s.Samples)
			}
			fmt.Fprintln(w)
		}
		for _, k := range []string{"fsyncs_per_op", "store_bytes_per_op"} {
			fmt.Fprintf(w, "  %-24s %14.6g\n", k, r.Counts[k])
		}
		for _, m := range perLayer {
			if v, ok := r.PerLayer[m.Name]; ok {
				fmt.Fprintf(w, "  %-24s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
	}
}
