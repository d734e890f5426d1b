package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"satwatch"
	"satwatch/internal/analytics"
	"satwatch/internal/dist"
	"satwatch/internal/faults"
	"satwatch/internal/mac"
	"satwatch/internal/netsim"
	"satwatch/internal/tstat"
	"satwatch/internal/workload"
)

// batch-paper: the paper reproduction as a user runs it — GEO, the
// stress fault preset, two simulated days, one worker.
const (
	batchDays   = 2
	batchFaults = "stress"
	// batchParallelism is 1, not the 2 CPUs of the box the benchmark was
	// sized on. Two workers striped over customers, plus the collector,
	// keep both CPUs busy, so the job's wall time follows whichever CPU
	// a shared host slows: over ten seeds, job_s spread by 0.22-0.26
	// with 2 workers and by 0.10-0.23 with 1. The output is
	// byte-identical at any worker count.
	batchParallelism = 1
	batchMinReps     = 4
	// batchIntents is the offered load: the population is sized so its
	// two days hold about this many flow intents (160 customers on a
	// median seed). A fixed population size would let the seed alone
	// move the work by ±25 %.
	batchIntents = 250_000
)

// pinnedDigests are the batch-paper outputs for defaultSeed. A change
// that alters them changes what the pipeline computes, not how fast.
var pinnedDigests = map[string]string{
	"flows.tsv":    "sha256:f9bf2a111ce54e79abcc2ee989539eeed248660836501c80ea2651df8dc8dd8e",
	"dns.tsv":      "sha256:9580063134d078a13ae134da7fae6793f29e546090d33684c12b692591068792",
	"meta.tsv":     "sha256:167664efc759218d020d73cb13506eb464febc6883c48b8789dd0de185530ac2",
	"prefixes.tsv": "sha256:6c2b38a76444c2baee86182c2072fa52396bc44743cde7f131fbc3a7275194c7",
}

// batchLogs are the four logs a batch run encodes, in writing order.
var batchLogs = []string{"flows.tsv", "dns.tsv", "meta.tsv", "prefixes.tsv"}

func runBatch(p params) (aggregate, error) {
	n, err := sizePopulation(p.seed, batchIntents, 160, 0, batchDays*24*time.Hour)
	if err != nil {
		return aggregate{}, err
	}
	logf("batch-paper: seed %d, %d customers", p.seed, n)
	extra := []string{"--customers", fmt.Sprint(n)}
	var agg aggregate
	if p.trace {
		// One untraced and one traced job: the ratio of their job_s is
		// the tracing overhead; the traced one gives the layer numbers.
		plain, err := spawn(p, "batch", extra...)
		if err != nil {
			return agg, err
		}
		traced, err := spawn(p, "batch", append(extra, "--traced", "--out", p.workdir)...)
		if err != nil {
			return agg, err
		}
		reps := []childResult{plain, traced}
		checkDigests(p.seed, reps)
		agg.add(reps[0])
		agg.add(reps[1])
		agg.metrics = reps[1].Metrics
		agg.metrics["trace.overhead_ratio"] = reps[1].Metrics["job_s"] / reps[0].Metrics["job_s"]
		agg.profile = filepath.Join(p.workdir, "cpu.pprof")
		return agg, nil
	}
	// Repeat cold jobs until the measured time is spent, and at least
	// four times: one job's peak RSS and wall time move with the
	// collector's timing and the host, and every seed's digests are
	// compared across repeats.
	start := time.Now()
	var reps []childResult
	for len(reps) < batchMinReps || time.Since(start) < time.Duration(p.seconds)*time.Second {
		r, err := spawn(p, "batch", extra...)
		if err != nil {
			return agg, err
		}
		reps = append(reps, r)
	}
	checkDigests(p.seed, reps)
	for _, r := range reps {
		agg.add(r)
	}
	agg.metrics = medians(reps)
	return agg, nil
}

// checkDigests checks the batch outputs — pinned values for the default
// seed, equality across repeats for any other — and fails every repeat
// that disagrees.
func checkDigests(seed uint64, reps []childResult) {
	for _, name := range batchLogs {
		want := reps[0].Digests[name]
		if seed == defaultSeed {
			want = pinnedDigests[name]
		}
		for i := range reps {
			if got := reps[i].Digests[name]; got != want {
				reps[i].fail("batch-paper %s: repeat %d digest %s, want %s", name, i, got, want)
			}
		}
	}
}

// sizePopulation finds the population size whose flow intents starting
// in the simulated span [from, to) come closest to `target` for this
// seed. The count is a pure function of (seed, size), generated exactly
// as the simulator does, but it is not monotone in the size: one
// proportional step gets close, then the neighbouring sizes are scanned.
func sizePopulation(seed uint64, target, guess int, from, to time.Duration) (int, error) {
	got, err := countIntents(seed, guess, from, to)
	if err != nil {
		return 0, err
	}
	center := int(float64(guess)*float64(target)/float64(got) + 0.5)
	const reach = 8
	var wg sync.WaitGroup
	counts := make([]int, 2*reach+1)
	errs := make([]error, len(counts))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range counts {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			counts[i], errs[i] = countIntents(seed, center-reach+i, from, to)
		}(i)
	}
	wg.Wait()
	best := 0
	for i, c := range counts {
		if errs[i] != nil {
			return 0, errs[i]
		}
		if abs(c-target) < abs(counts[best]-target) {
			best = i
		}
	}
	return center - reach + best, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func countIntents(seed uint64, customers int, from, to time.Duration) (int, error) {
	root := dist.NewRand(seed)
	pop, err := workload.BuildPopulation(customers, root.Fork("population"))
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range pop {
		for d := 0; time.Duration(d)*24*time.Hour < to; d++ {
			for _, fi := range workload.GenerateDay(c, d, root.ForkN("day", uint64(c.ID)*1024+uint64(d))) {
				if fi.Start >= from && fi.Start < to {
					total++
				}
			}
		}
	}
	return total, nil
}

// batchChild runs one cold paper job: the steps of
// satwatch.Pipeline.RunContext, one at a time so each is timed, then the
// four log encoders.
func batchChild(p params) (childResult, error) {
	res := childResult{Metrics: map[string]float64{}, Digests: map[string]string{}, Attempted: 1}
	sched, err := faults.Preset(batchFaults, batchDays, p.seed)
	if err != nil {
		return res, err
	}
	pl := satwatch.New(
		satwatch.WithCustomers(p.customers),
		satwatch.WithDays(batchDays),
		satwatch.WithSeed(p.seed),
		satwatch.WithParallelism(batchParallelism),
		satwatch.WithFaults(sched),
	)
	cfg := pl.Config()

	stopProfile := func() error { return nil }
	if p.traced {
		var err error
		if stopProfile, err = startCPUProfile(filepath.Join(p.out, "cpu.pprof")); err != nil {
			return res, err
		}
	}
	defer stopProfile()

	sp := newSpans()
	cells0 := counter("mac_cells_built_total")
	u0 := readUsage()
	var (
		out     *netsim.Output
		runErr  error
		ds      *analytics.Dataset
		results *satwatch.Results
		text    string
	)
	m := res.Metrics
	job := sp.do("job", "", func() {
		sp.do("netsim.run", "job", func() { out, runErr = netsim.RunContext(context.Background(), cfg) })
		if runErr != nil {
			return
		}
		m["analytics.dataset_s"] = sp.do("analytics.dataset", "job", func() { ds = analytics.NewDataset(out, batchDays) }).Seconds()
		m["report.build_s"] = sp.do("report.build", "job", func() { results = pl.Analyze(out, ds) }).Seconds()
		m["report.render_s"] = sp.do("report.render", "job", func() { text = results.RenderAll() }).Seconds()
		m["tstat.encode_s"] = sp.do("tstat.encode", "job", func() { runErr = encodeLogs(out, res.Digests) }).Seconds()
	})
	u1 := readUsage()
	if runErr != nil {
		return res, runErr
	}

	st := out.Stats
	flows := len(out.Flows)
	m["job_s"] = job.Seconds()
	m["setup_s"] = (st.PassA + st.MACPrebuild).Seconds()
	phaseMetrics(m, u0, u1, flows)
	m["peak_rss_mib"] = peakRSSMiB()
	m["flows_per_s"] = float64(flows) / job.Seconds()
	// Batch delivers every record when the job ends: a record's delivery
	// latency is the job's.
	m["transfer_p50_ms"] = millis(job)
	m["netsim.pass_a_s"] = st.PassA.Seconds()
	m["netsim.mac_prebuild_s"] = st.MACPrebuild.Seconds()
	m["netsim.pass_b_s"] = st.PassB.Seconds()
	m["netsim.merge_s"] = st.Merge.Seconds()
	m["netsim.pass_b_allocs_per_flow"] = float64(st.StageAllocs["pass_b"].Objects) / float64(max(flows, 1))
	m["mac.cells_built"] = counter("mac_cells_built_total") - cells0
	failedDays := (p.customers - st.CustomersDone) * batchDays
	m["fail_ratio"] = float64(failedDays) / float64(p.customers*batchDays)

	grid := mac.NewModel(cfg.MAC).GridSize()
	if int(m["mac.cells_built"]) != grid {
		res.fail("batch-paper: %v MAC cells built, want the grid size %d (run did not start cold)", m["mac.cells_built"], grid)
	}
	if s := st.Status(); s != netsim.StatusOK {
		res.fail("batch-paper: run status %s (%d errors)", s, len(st.Errors))
	}
	if flows == 0 || len(text) == 0 {
		res.fail("batch-paper: empty flow log or report")
	}

	if p.traced {
		if err := stopProfile(); err != nil {
			return res, err
		}
		d, err := dayGen(p.seed, p.customers)
		if err != nil {
			return res, err
		}
		m["workload.day_gen_s"] = d
		if err := sp.write(filepath.Join(p.out, "spans.jsonl")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// encodeLogs serializes the four logs exactly as the CLIs write them,
// into sha256 digests.
func encodeLogs(out *netsim.Output, digests map[string]string) error {
	writers := map[string]func(io.Writer) error{
		"flows.tsv":    func(w io.Writer) error { return tstat.WriteFlows(w, out.Flows) },
		"dns.tsv":      func(w io.Writer) error { return tstat.WriteDNS(w, out.DNS) },
		"meta.tsv":     func(w io.Writer) error { return netsim.WriteMeta(w, out.Meta) },
		"prefixes.tsv": func(w io.Writer) error { return netsim.WritePrefixes(w, out.CountryPrefixes) },
	}
	for _, name := range batchLogs {
		h := sha256.New()
		if err := writers[name](h); err != nil {
			return fmt.Errorf("encode %s: %w", name, err)
		}
		digests[name] = "sha256:" + hex.EncodeToString(h.Sum(nil))
	}
	return nil
}

// dayGen times one full-day workload.Source generation (day 0) for the
// population a simulator with this seed and size builds.
func dayGen(seed uint64, customers int) (float64, error) {
	root := dist.NewRand(seed)
	pop, err := workload.BuildPopulation(customers, root.Fork("population"))
	if err != nil {
		return 0, err
	}
	src := workload.NewSource(pop, root)
	start := time.Now()
	src.Next()
	return time.Since(start).Seconds(), nil
}
