// Command benchjson converts `go test -bench` text output into a stable,
// diff-friendly JSON document so benchmark baselines can be committed and
// compared across PRs without external tooling.
//
// Usage:
//
//	go test -run '^$' -bench . -benchmem -count 5 . | benchjson -out BENCH.json
//	benchjson -compare [-fail-above 5] OLD.json NEW.json
//
// Repeated samples of the same benchmark (from -count) are aggregated into
// mean/min/max per metric unit, which is what a baseline comparison needs;
// the raw sample values are preserved alongside for re-analysis.
//
// The -compare mode prints a per-benchmark delta table for the headline
// metrics (ns/op, events/s, B/op, allocs/op), direction-aware: a higher
// events/s is an improvement, a higher ns/op is a regression. With
// -fail-above P, the command exits non-zero if any benchmark regresses by
// more than P percent on a timing metric (ns/op or events/s), which is the
// contract the bench-compare make target and the CI bench smoke rely on;
// -gate-filter RE narrows that gate to matching benchmark names, so e.g.
// machine-sensitive rows recorded on a different host inform without
// failing the build.
//
// The JSON header records goos/goarch/cpu plus the GOMAXPROCS the run used,
// so a committed baseline declares the conditions it was measured under.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// Metric aggregates the samples of one unit (ns/op, allocs/op, events/s …)
// across -count repetitions of a benchmark.
type Metric struct {
	Mean    float64   `json:"mean"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Samples []float64 `json:"samples"`
}

// Benchmark is one named benchmark with all its metrics.
type Benchmark struct {
	Name    string             `json:"name"`
	Runs    int                `json:"runs"`
	Metrics map[string]*Metric `json:"metrics"`
}

// Report is the top-level JSON document.
type Report struct {
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Gomaxprocs is the parallelism the benchmarks ran under, recovered
	// from the -N suffix go test appends to benchmark names (1 when no
	// suffix is present). Multi-goroutine benchmarks are meaningless
	// without it, so the comparison reader needs the recording conditions.
	Gomaxprocs int          `json:"gomaxprocs,omitempty"`
	Benchmarks []*Benchmark `json:"benchmarks"`
}

// gomaxprocsSuffix strips the trailing -N procs marker go test appends to
// benchmark names when GOMAXPROCS > 1; the value is preserved in the
// report header.
var gomaxprocsSuffix = regexp.MustCompile(`-(\d+)$`)

func main() {
	out := flag.String("out", "", "write JSON here instead of stdout")
	compare := flag.Bool("compare", false, "compare two JSON reports: benchjson -compare OLD.json NEW.json")
	failAbove := flag.Float64("fail-above", 0, "with -compare: exit 1 if any benchmark regresses more than this percent on ns/op or events/s (0 disables)")
	gateFilter := flag.String("gate-filter", "", "with -compare: regexp restricting which benchmarks the -fail-above gate applies to; the delta table always shows everything (use to gate only the rows the recording machine reproduces)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare wants exactly two arguments: OLD.json NEW.json"))
		}
		var gate *regexp.Regexp
		if *gateFilter != "" {
			var err error
			if gate, err = regexp.Compile(*gateFilter); err != nil {
				fatal(fmt.Errorf("-gate-filter: %w", err))
			}
		}
		oldRep, err := readReport(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		newRep, err := readReport(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		regressed := writeComparison(os.Stdout, oldRep, newRep, *failAbove, gate)
		if *failAbove > 0 && len(regressed) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) regressed more than %.1f%%: %s\n",
				len(regressed), *failAbove, strings.Join(regressed, ", "))
			os.Exit(1)
		}
		return
	}

	rep, err := convert(os.Stdin)
	if err != nil {
		fatal(err)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)
}

// convert parses `go test -bench` text output into an aggregated Report.
func convert(r io.Reader) (*Report, error) {
	rep := &Report{}
	byName := map[string]*Benchmark{}
	var order []string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if err := addLine(rep, byName, &order, line); err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: skipping %q: %v\n", line, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	if rep.Gomaxprocs == 0 {
		rep.Gomaxprocs = 1 // go test appends no suffix at GOMAXPROCS=1
	}

	for _, name := range order {
		b := byName[name]
		for _, m := range b.Metrics {
			sort.Float64s(m.Samples)
			m.Min = m.Samples[0]
			m.Max = m.Samples[len(m.Samples)-1]
			var sum float64
			for _, v := range m.Samples {
				sum += v
			}
			m.Mean = sum / float64(len(m.Samples))
		}
		rep.Benchmarks = append(rep.Benchmarks, b)
	}
	return rep, nil
}

// addLine parses one result line: name, iteration count, then value/unit
// pairs. Sub-benchmarks keep their full slash-joined name; the -N procs
// suffix is folded into the report header.
func addLine(rep *Report, byName map[string]*Benchmark, order *[]string, line string) error {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return fmt.Errorf("want an even field count of at least 4, got %d", len(fields))
	}
	name := fields[0]
	if m := gomaxprocsSuffix.FindStringSubmatch(name); m != nil {
		if n, err := strconv.Atoi(m[1]); err == nil && n > rep.Gomaxprocs {
			rep.Gomaxprocs = n
		}
		name = name[:len(name)-len(m[0])]
	}
	iters, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return fmt.Errorf("iteration count: %w", err)
	}
	b := byName[name]
	if b == nil {
		b = &Benchmark{Name: name, Metrics: map[string]*Metric{}}
		byName[name] = b
		*order = append(*order, name)
	}
	b.Runs++
	add := func(unit string, v float64) {
		m := b.Metrics[unit]
		if m == nil {
			m = &Metric{}
			b.Metrics[unit] = m
		}
		m.Samples = append(m.Samples, v)
	}
	add("iterations", iters)
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return fmt.Errorf("value for %s: %w", fields[i+1], err)
		}
		add(fields[i+1], v)
	}
	return nil
}

// compareUnits are the headline metrics shown in the delta table, in column
// order. higherIsBetter flips the sign convention: for events/s a positive
// raw delta is an improvement, for ns/op it is a regression.
var compareUnits = []struct {
	unit           string
	higherIsBetter bool
	timing         bool // participates in the -fail-above gate
}{
	{"ns/op", false, true},
	{"events/s", true, true},
	{"runs/s", true, true},
	{"B/op", false, false},
	{"allocs/op", false, false},
}

// delta is the signed percentage change of one metric between two reports,
// normalized so positive always means better.
type delta struct {
	old, new float64
	pct      float64 // (new-old)/old in percent, sign-normalized to better>0
	ok       bool    // both sides present with a nonzero old mean
}

// compareReports lines up the benchmarks of two reports by name and
// computes normalized deltas for the headline metrics. Benchmarks present
// on only one side are listed with no deltas rather than dropped, so a
// renamed benchmark is visible instead of silently ungated.
func compareReports(oldRep, newRep *Report) (names []string, table map[string][]delta) {
	oldBy := map[string]*Benchmark{}
	for _, b := range oldRep.Benchmarks {
		oldBy[b.Name] = b
	}
	newBy := map[string]*Benchmark{}
	for _, b := range newRep.Benchmarks {
		newBy[b.Name] = b
	}
	for _, b := range newRep.Benchmarks {
		names = append(names, b.Name)
	}
	for _, b := range oldRep.Benchmarks {
		if newBy[b.Name] == nil {
			names = append(names, b.Name)
		}
	}

	table = map[string][]delta{}
	for _, name := range names {
		ds := make([]delta, len(compareUnits))
		ob, nb := oldBy[name], newBy[name]
		for i, cu := range compareUnits {
			var om, nm *Metric
			if ob != nil {
				om = ob.Metrics[cu.unit]
			}
			if nb != nil {
				nm = nb.Metrics[cu.unit]
			}
			if om == nil || nm == nil || om.Mean == 0 {
				continue
			}
			pct := (nm.Mean - om.Mean) / om.Mean * 100
			if !cu.higherIsBetter {
				pct = -pct
			}
			ds[i] = delta{old: om.Mean, new: nm.Mean, pct: pct, ok: true}
		}
		table[name] = ds
	}
	return names, table
}

// writeComparison prints the delta table and returns the names of
// benchmarks whose timing metrics regressed beyond failAbove percent
// (empty when failAbove <= 0). A non-nil gate restricts the failure check
// to matching benchmark names; the table itself is never filtered.
func writeComparison(w io.Writer, oldRep, newRep *Report, failAbove float64, gate *regexp.Regexp) []string {
	names, table := compareReports(oldRep, newRep)

	tw := tabwriter.NewWriter(w, 2, 0, 2, ' ', 0)
	fmt.Fprint(tw, "benchmark")
	for _, cu := range compareUnits {
		fmt.Fprintf(tw, "\told %s\tnew %s\tdelta", cu.unit, cu.unit)
	}
	fmt.Fprintln(tw)

	var regressed []string
	for _, name := range names {
		fmt.Fprint(tw, strings.TrimPrefix(name, "Benchmark"))
		bad := false
		for i, d := range table[name] {
			if !d.ok {
				fmt.Fprint(tw, "\t-\t-\t-")
				continue
			}
			// The sign convention in the printed delta column follows the
			// raw metric (new vs old); the normalized d.pct drives the
			// better/worse marker and the gate.
			raw := (d.new - d.old) / d.old * 100
			marker := ""
			switch {
			case d.pct > 0.05:
				marker = " +"
			case d.pct < -0.05:
				marker = " -"
			}
			fmt.Fprintf(tw, "\t%s\t%s\t%+.1f%%%s", formatValue(d.old), formatValue(d.new), raw, marker)
			if compareUnits[i].timing && d.pct < -failAbove {
				bad = true
			}
		}
		fmt.Fprintln(tw)
		if failAbove > 0 && bad && (gate == nil || gate.MatchString(name)) {
			regressed = append(regressed, name)
		}
	}
	tw.Flush()
	return regressed
}

// formatValue renders a metric mean compactly: integers stay integral,
// large values keep no decimals, small ones keep two.
func formatValue(v float64) string {
	switch {
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', 0, 64)
	case math.Abs(v) >= 1000:
		return strconv.FormatFloat(v, 'f', 0, 64)
	default:
		return strconv.FormatFloat(v, 'f', 2, 64)
	}
}

// readReport loads a JSON report written by the convert mode.
func readReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{}
	if err := json.Unmarshal(buf, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
