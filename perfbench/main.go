// Command perfbench is the repository benchmark. It runs one of three
// workloads against the satwatch packages and prints every metric that
// BENCHMARK.json declares, checking the program's outputs as it goes:
//
//	perfbench --workload batch-paper|live-steady|pep-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics; with --trace 1 it carries the per-layer metrics,
// taken from a run under a CPU profile, the benchmark's own layer spans
// and live tracing. Every measured unit of work runs in a fresh child
// process of this binary, so no process-wide cache (the MAC cell grid)
// carries over between measurements. README.md documents the metrics.
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
	"strconv"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose batch-paper output digests are pinned.
const defaultSeed = 1

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// childResult is what one child process reports on its last stdout line.
type childResult struct {
	Metrics map[string]float64 `json:"metrics"`
	// Digests are the batch-paper output digests (sha256 per log).
	Digests map[string]string `json:"digests,omitempty"`
	// Problems lists every correctness check the child saw fail.
	Problems []string `json:"problems,omitempty"`
	// Attempted and Failed count the child's units of work.
	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`
}

// params are the flags shared by the parent and its children.
type params struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	workdir  string

	child     string // child role; empty in the parent
	customers int
	flows     int
	rate      float64
	traced    bool
	out       string
}

func main() {
	var p params
	var traceFlag int
	flag.StringVar(&p.workload, "workload", "", "workload name (batch-paper, live-steady, pep-mix)")
	flag.Uint64Var(&p.seed, "seed", defaultSeed, "input seed")
	flag.IntVar(&p.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&p.workdir, "workdir", ".bench_build/perfbench-work", "scratch directory for profiles and spans")
	flag.StringVar(&p.child, "child", "", "internal: run one measured unit in this process")
	flag.IntVar(&p.customers, "customers", 0, "internal: population size")
	flag.IntVar(&p.flows, "flows", 0, "internal: pep-mix flow count")
	flag.Float64Var(&p.rate, "rate", 1, "internal: live-steady rate multiplier")
	flag.BoolVar(&p.traced, "traced", false, "internal: profile and trace this child")
	flag.StringVar(&p.out, "out", "", "internal: directory for this child's profile and spans")
	flag.Parse()
	p.trace = traceFlag == 1

	if p.child != "" {
		if err := runChild(p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", p.child, err)
			os.Exit(1)
		}
		return
	}
	if err := run(p); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runChild(p params) error {
	var res childResult
	var err error
	switch p.child {
	case "batch":
		res, err = batchChild(p)
	case "live":
		res, err = liveChild(p, false)
	case "live-setup":
		res, err = liveChild(p, true)
	case "pep":
		res, err = pepChild(p)
	default:
		return fmt.Errorf("unknown child role %q", p.child)
	}
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

// run is the parent: it sizes the inputs from the seed, runs the
// workload's children, aggregates, and prints the result line.
func run(p params) error {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	known := false
	for _, w := range spec.Workloads {
		known = known || w.Name == p.workload
	}
	if !known {
		return fmt.Errorf("unknown workload %q", p.workload)
	}
	if p.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	dir := filepath.Join(p.workdir, fmt.Sprintf("%s-s%d-t%v", p.workload, p.seed, p.trace))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	p.workdir = dir

	var agg aggregate
	switch p.workload {
	case "batch-paper":
		agg, err = runBatch(p)
	case "live-steady":
		agg, err = runLive(p)
	case "pep-mix":
		agg, err = runPep(p)
	}
	if err != nil {
		return err
	}
	return report(spec, p, agg)
}

// aggregate is a workload's combined result over all its children.
type aggregate struct {
	metrics   map[string]float64
	problems  []string
	attempted int
	failed    int
	// profile is the traced child's CPU profile ("" when untraced).
	profile string
}

// fail records a failed correctness check. The child's output cannot be
// trusted, so its fail_ratio becomes 1 and at least one unit has failed.
func (r *childResult) fail(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	r.Failed = max(r.Failed, 1)
	r.Metrics["fail_ratio"] = 1
}

func (a *aggregate) add(r childResult) {
	a.problems = append(a.problems, r.Problems...)
	a.attempted += r.Attempted
	a.failed += r.Failed
}

// report prints the human-readable metric table and then the result
// line the contract asks for.
func report(spec benchSpec, p params, agg aggregate) error {
	want := spec.EndToEnd
	if p.trace {
		want = spec.PerLayer
		if agg.profile != "" {
			shares, err := cpuShares(agg.profile)
			if err != nil {
				return err
			}
			for k, v := range shares {
				agg.metrics[k] = v
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range want {
		v, ok := agg.metrics[m.Name]
		if !ok {
			if !p.trace {
				return fmt.Errorf("%s: end-to-end metric %s was not measured", p.workload, m.Name)
			}
			v = 0 // a layer this workload does not run
		}
		out[m.Name] = value{v, m.Unit}
		fmt.Printf("%-34s %14.6g %s\n", m.Name, v, m.Unit)
	}
	if !p.trace {
		fmt.Printf("%-34s %14.6g %s\n", "fail_ratio", agg.metrics["fail_ratio"], "ratio")
	}
	for _, pr := range agg.problems {
		fmt.Printf("check failed: %s\n", pr)
	}
	if agg.attempted < 1 {
		return errors.New("no unit of work was attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(agg.problems) == 0, agg.attempted, agg.failed, out})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", b)
	return nil
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("read benchmark spec (run from the repository root): %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", path, err)
	}
	return s, nil
}

// spawn runs one child of this binary and decodes its result line.
func spawn(p params, role string, extra ...string) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{
		"--child", role,
		"--workload", p.workload,
		"--seed", strconv.FormatUint(p.seed, 10),
		"--seconds", strconv.Itoa(p.seconds),
		"--workdir", p.workdir,
	}
	args = append(args, extra...)
	cmd := exec.Command(exe, args...)
	// The child dies with the parent, so a killed run leaves nothing behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", role, err)
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res childResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return childResult{}, fmt.Errorf("child %s: bad result line: %w", role, err)
	}
	logf("child %s: job_s=%.4g setup_s=%.4g cpu_us_per_flow=%.4g peak_rss_mib=%.4g",
		role, res.Metrics["job_s"], res.Metrics["setup_s"], res.Metrics["cpu_us_per_flow"], res.Metrics["peak_rss_mib"])
	return res, nil
}

// medians folds several children's metrics into per-metric medians.
func medians(rs []childResult) map[string]float64 {
	vals := map[string][]float64{}
	for _, r := range rs {
		for k, v := range r.Metrics {
			vals[k] = append(vals[k], v)
		}
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[k] = median(v)
	}
	return out
}

// logf reports progress on stderr; stdout carries only results.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench %s "+format+"\n", append([]any{time.Now().Format("15:04:05")}, args...)...)
}
