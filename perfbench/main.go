// Command perfbench is the repository's benchmark: three workloads over
// the engine (oltp, htap, vdm), each on a fresh engine, with
// end-to-end metrics from raw per-operation samples, correctness checks
// that fail the run, and a traced mode that reports per-layer numbers.
//
//	go run . --workload oltp|htap|vdm|all --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones:
//
//   - setup_s: median of three fixture set-ups (engine open, load,
//     merge, statistics, view deployment);
//   - op_p50_us, op_p90_us: exact percentiles over every operation of
//     every session, a writer transaction from Begin to Commit return, a
//     reader statement from call to result; a failed operation ranks
//     above every duration;
//   - cycle_ms: median time of one pass through the reader's statement
//     cycle (on oltp, which has no reader, the writer's 10-transaction
//     cycle);
//   - peak_rss_mb: the process's peak resident set after the measured
//     window (with --workload all it carries over from the workloads
//     run before).
//
// With --trace 1 they are the per-layer ones (see buildLayers), and a
// span file is written beside the WAL directories. Every line before
// the JSON starts with '#' and is for people: the environment, every
// latency series with its sample count, throughput totals, the checks
// made, and with --workload all the interference ratio.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"vdm/internal/s4"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "oltp, htap, vdm, or all")
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds per workload")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run with per-layer metrics")
	fs.StringVar(&cfg.dir, "dir", filepath.Join(".bench_build", "run"), "directory for WAL files and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	var names []string
	switch cfg.workload {
	case "all":
		names = []string{"oltp", "htap", "vdm"}
	case "oltp", "htap", "vdm":
		names = []string{cfg.workload}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want oltp, htap, vdm or all)\n", cfg.workload)
		return 2
	}
	if cfg.seconds < 2 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 2 and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := bufio.NewWriter(stdout)
	defer out.Flush()
	printEnv(out, cfg)

	summary := struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]jsonVal `json:"metrics"`
	}{Correct: true, Metrics: map[string]jsonVal{}}
	writeTPS := map[string]float64{}
	for _, name := range names {
		w := workloads[name]
		res, err := runWorkload(w, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		ms, err := report(out, res, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		for _, m := range ms {
			key := m.name
			if len(names) > 1 {
				key = name + "." + key
			}
			summary.Metrics[key] = jsonVal{Value: m.value, Unit: m.unit}
		}
		p := e2eOf(res.win, res.writer, res.reader)
		summary.Attempted += p.attempted
		summary.Failed += p.failed
		writeTPS[name] = p.writeTPS
		if len(res.check.violations) > 0 {
			summary.Correct = false
		}
	}
	if o, h := writeTPS["oltp"], writeTPS["htap"]; o > 0 && h > 0 {
		fmt.Fprintf(out, "# interference ratio write_tps(htap)/write_tps(oltp) = %.1f/%.1f = %.3f\n", h, o, h/o)
	}
	line, err := json.Marshal(summary)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(out, string(line))
	if !summary.Correct {
		fmt.Fprintln(os.Stderr, "perfbench: correctness violations (see the report)")
		return 1
	}
	return 0
}

type jsonVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one workload's human summary and returns the metrics
// its JSON line carries.
func report(out io.Writer, res *result, cfg config) ([]metric, error) {
	fmt.Fprintf(out, "# workload %s: measured %.2fs", res.w.name, res.win.seconds())
	if cfg.trace {
		fmt.Fprint(out, " (traced half)")
	}
	fmt.Fprintln(out)
	printClasses(out, "writer", res.writer)
	printClasses(out, "reader", res.reader)
	for _, k := range sortedKeys(res.check.checked) {
		fmt.Fprintf(out, "#   check %s: %d made\n", k, res.check.checked[k])
	}
	fmt.Fprintf(out, "#   violations: %d\n", len(res.check.violations))
	for _, v := range res.check.violations {
		fmt.Fprintf(out, "#   violation %s\n", v)
	}
	var ms []metric
	if cfg.trace {
		ms = res.layers.metrics
		path := filepath.Join(cfg.dir, "spans-"+res.w.name+".csv")
		traces := []*sessionTrace{res.layers.maint}
		for _, st := range []*sessionStats{res.writer, res.reader} {
			if st != nil {
				traces = append(traces, st.trace)
			}
		}
		if err := writeSpans(path, traces, className); err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "#   spans written to %s\n", path)
	} else {
		var err error
		if ms, err = e2eMetrics(res); err != nil {
			return nil, err
		}
		p := e2eOf(res.win, res.writer, res.reader)
		fmt.Fprintf(out, "#   write_tps=%.1f read_qps=%.2f (totals over the window)", p.writeTPS, p.readQPS)
		if v, ok := p.pooled.quantile(0.99); ok {
			fmt.Fprintf(out, " op_p99_us=%.1f (n=%d)", us(v), p.pooled.n())
		}
		fmt.Fprintln(out)
	}
	for _, m := range ms {
		line := fmt.Sprintf("#   %-44s %14.4f %s", m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		fmt.Fprintln(out, line)
	}
	return ms, nil
}

func className(n spanName, class uint8) string {
	switch n {
	case spTxn, spTxnBody, spCommit:
		return writerKind(class).String()
	case spMerge, spVacuum, spCheckpoint:
		return "-"
	}
	return shape(class).String()
}

func sortedKeys(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// printEnv prints the environment header every report starts with.
func printEnv(out io.Writer, cfg config) {
	fmt.Fprintf(out, "# env go=%s GOMAXPROCS=%d nproc=%d cpu=%q\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	fmt.Fprintf(out, "# env workload=%s seed=%d seconds=%d trace=%v warmup=%s setups=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, warmup, setupRepeats)
	fmt.Fprintf(out, "# env fixtures: htapbench scale=%d (+%d drafts), s4 %+v, fig14 %+v\n",
		htapScale, htapScale/20, s4.BenchSize(), s4.Fig14Full())
	fmt.Fprintf(out, "# env engine options (durable workloads): %+v\n", engineOptions(filepath.Join(cfg.dir, "wal")))
	fmt.Fprintf(out, "# env engine options (vdm): %+v\n", engineOptions(""))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return "unknown"
}

// peakRSSMiB returns the process's peak resident set (VmHWM) in MiB.
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(line, "VmHWM:")), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
