package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"regexp"
	"strings"
	"time"
)

// cpuLayers maps each cpu.<layer> metric to the entry functions of the
// layer: a sample counts toward the layer when any frame of its stack
// matches, so shares are cumulative and may overlap (GC assist runs
// under whatever allocated).
var cpuLayers = map[string]*regexp.Regexp{
	// Batch layers.
	"cpu.workload":      regexp.MustCompile(`^satwatch/internal/workload\.`),
	"cpu.mac_build":     regexp.MustCompile(`^satwatch/internal/mac\.SimulateAccessDelay$`),
	"cpu.simtime":       regexp.MustCompile(`^satwatch/internal/simtime\.`),
	"cpu.mac_sample":    regexp.MustCompile(`^satwatch/internal/mac\.\(\*Model\)\.Sample`),
	"cpu.classify":      regexp.MustCompile(`^satwatch/internal/(shaper\.ClassifyFlow|services\.Classify)`),
	"cpu.tcpmodel":      regexp.MustCompile(`^satwatch/internal/tcpmodel\.`),
	"cpu.pepmodel":      regexp.MustCompile(`^satwatch/internal/pepmodel\.`),
	"cpu.dnssim":        regexp.MustCompile(`^satwatch/internal/dnssim\.`),
	"cpu.cryptopan":     regexp.MustCompile(`^satwatch/internal/cryptopan\.`),
	"cpu.tstat_observe": regexp.MustCompile(`^satwatch/internal/tstat\.\(\*(Tracker|Sharded)\)\.Observe$`),
	"cpu.tstat_sort":    regexp.MustCompile(`^satwatch/internal/tstat\.(SortFlows|SortDNS|MergeFlows|MergeDNS)$`),
	"cpu.analytics":     regexp.MustCompile(`^satwatch/internal/analytics\.`),
	"cpu.report":        regexp.MustCompile(`^satwatch/internal/report\.|^satwatch\.\(\*Results\)\.RenderAll$`),
	"cpu.encode":        regexp.MustCompile(`^satwatch/internal/(tstat\.Write(Flows|DNS)|netsim\.Write(Meta|Prefixes))$`),
	"cpu.gc":            regexp.MustCompile(`^runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep|bgscavenge)$`),
	"cpu.malloc":        regexp.MustCompile(`^runtime\.mallocgc$`),
	// Live layers: the pipeline's stage functions and its queues.
	"cpu.live_generate":  regexp.MustCompile(`^satwatch/internal/live\.\(\*Pipeline\)\.generate$`),
	"cpu.live_dispatch":  regexp.MustCompile(`^satwatch/internal/live\.\(\*Pipeline\)\.dispatch$`),
	"cpu.live_synth":     regexp.MustCompile(`^satwatch/internal/live\.\(\*Pipeline\)\.synth$`),
	"cpu.live_analytics": regexp.MustCompile(`^satwatch/internal/live\.\(\*Pipeline\)\.analyze$`),
	"cpu.live_queue":     regexp.MustCompile(`^satwatch/internal/live\.\(\*Queue\[.*\]\)\.(Push|Pop)$`),
	"cpu.timers":         regexp.MustCompile(`^runtime\.(\(\*timers\)\.run|\(\*timer\)\.unlockAndRun|runOneTimer|runtimer)$`),
	// PEP layers.
	"cpu.tunnel":    regexp.MustCompile(`^satwatch/internal/tunnel\.`),
	"cpu.linkemu":   regexp.MustCompile(`^satwatch/internal/linkemu\.`),
	"cpu.pep_relay": regexp.MustCompile(`^satwatch/internal/pep\.(relay|\(\*CPE\)\.ProxyConn|\(\*Gateway\)\.handle)`),
	"cpu.syscall":   regexp.MustCompile(`^(syscall\.|internal/runtime/syscall\.)`),
}

// cpuShares buckets a CPU profile's samples into the cpu.* layer shares
// with the installed `go tool pprof`.
func cpuShares(profile string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", profile)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %v: %s", profile, err, stderr.String())
	}
	stacks, err := parseTraces(out.String())
	if err != nil {
		return nil, err
	}
	var total time.Duration
	perLayer := map[string]time.Duration{}
	for _, st := range stacks {
		total += st.value
		for name, re := range cpuLayers {
			for _, fn := range st.frames {
				if re.MatchString(fn) {
					perLayer[name] += st.value
					break
				}
			}
		}
	}
	if total == 0 {
		return nil, fmt.Errorf("cpu profile %s holds no samples", profile)
	}
	shares := make(map[string]float64, len(cpuLayers))
	for name := range cpuLayers {
		shares[name] = float64(perLayer[name]) / float64(total)
	}
	return shares, nil
}

type stack struct {
	value  time.Duration
	frames []string
}

// parseTraces reads `pprof -traces` text: blocks separated by dashed
// lines, each optional label lines ("stage:  passB"), then a sample value
// followed by one frame per line.
func parseTraces(text string) ([]stack, error) {
	var out []stack
	open := false // inside a block whose value line has been read
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "-----------+"):
			open = false
			continue
		case trimmed == "":
			continue
		}
		trimmed = strings.TrimSuffix(trimmed, " (inline)")
		if open {
			out[len(out)-1].frames = append(out[len(out)-1].frames, trimmed)
			continue
		}
		if !strings.HasPrefix(line, " ") {
			continue // header lines before the first block
		}
		value, frame, _ := strings.Cut(trimmed, " ")
		if strings.HasSuffix(value, ":") {
			continue // a label line
		}
		v, err := time.ParseDuration(value)
		if err != nil {
			return nil, fmt.Errorf("pprof -traces: bad sample value in %q", line)
		}
		out = append(out, stack{value: v, frames: []string{strings.TrimSpace(frame)}})
		open = true
	}
	return out, sc.Err()
}
