package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"sync"
	"time"

	"satwatch/internal/dist"
	"satwatch/internal/linkemu"
	"satwatch/internal/pep"
	"satwatch/internal/tunnel"
)

// pep-mix: pep.RunLoad as a closed loop of two clients over a short
// lossy link, with the tunnel tuned like the pepload bench scenarios.
const (
	pepClients = 2
	// pepBytesPerSecond sizes a run: the flow count is the smallest whose
	// seeded sizes add up to this many bytes per measured second (about
	// 70 flows of the default mix).
	pepBytesPerSecond = 7 << 19
	// pepSetups is how many cold stack bring-ups a run measures.
	pepSetups = 5
	// pepProbeBytes is the size of the flow that proves a fresh stack
	// carries traffic.
	pepProbeBytes = 8 << 10
)

var (
	pepLink   = linkemu.Link{Delay: 5 * time.Millisecond, Jitter: time.Millisecond, Loss: 0.005}
	pepTunnel = tunnel.Config{RTO: 120 * time.Millisecond, Window: 64, MaxPayload: 1200}
	// pepMix is pep.LoadConfig's default size mix, normalized.
	pepMix = []pep.SizeWeight{{Bytes: 8 << 10, Weight: 0.6}, {Bytes: 64 << 10, Weight: 0.3}, {Bytes: 256 << 10, Weight: 0.1}}
)

// Registry names the pep workload reads (internal/tunnel, internal/pep).
var pepCounters = []string{
	"tunnel_retransmits_total", "tunnel_frames_sent_total", "tunnel_window_stalls_total",
	"tunnel_streams_timedout_total", "pep_relays_total", "pep_dial_retries_total", "pep_relay_errors_total",
}

func runPep(p params) (aggregate, error) {
	flows, _ := pepFlows(p.seed, p.seconds)
	logf("pep-mix: seed %d, %d flows", p.seed, flows)
	extra := []string{"--flows", fmt.Sprint(flows)}
	var agg aggregate
	plain, err := spawn(p, "pep", extra...)
	if err != nil {
		return agg, err
	}
	agg.add(plain)
	agg.metrics = plain.Metrics
	if p.trace {
		traced, err := spawn(p, "pep", append(extra, "--traced", "--out", p.workdir)...)
		if err != nil {
			return agg, err
		}
		agg.add(traced)
		agg.metrics = traced.Metrics
		agg.metrics["trace.overhead_ratio"] = traced.Metrics["job_s"] / plain.Metrics["job_s"]
		agg.profile = filepath.Join(p.workdir, "cpu.pprof")
	}
	return agg, nil
}

// pepFlows returns the flow count for a run and the bytes those flows
// download, drawing each flow's size exactly as pep.RunLoad does.
func pepFlows(seed uint64, secs int) (flows int, bytes int64) {
	rnd := dist.NewRand(seed)
	target := int64(secs) * pepBytesPerSecond
	for bytes < target {
		bytes += int64(pickSize(rnd.ForkN("size", uint64(flows)).Float64()))
		flows++
	}
	return flows, bytes
}

// pickSize maps a uniform draw onto pepMix the way pep.RunLoad does.
func pickSize(u float64) int {
	total := 0.0
	for _, m := range pepMix {
		total += m.Weight
	}
	acc := 0.0
	for _, m := range pepMix {
		acc += m.Weight / total
		if u < acc {
			return m.Bytes
		}
	}
	return pepMix[len(pepMix)-1].Bytes
}

// pepChild measures stack bring-ups, then one load run of p.flows.
func pepChild(p params) (childResult, error) {
	res := childResult{Metrics: map[string]float64{}}
	m := res.Metrics
	stopProfile := func() error { return nil }
	if p.traced {
		var err error
		if stopProfile, err = startCPUProfile(filepath.Join(p.out, "cpu.pprof")); err != nil {
			return res, err
		}
	}
	defer stopProfile()

	sp := newSpans()
	var setups []float64
	for i := 0; i < pepSetups; i++ {
		var d time.Duration
		var err error
		sp.do("pep.bring_up", "", func() { d, err = bringUp(p.seed + uint64(i)) })
		res.Attempted++
		if err != nil {
			res.Failed++
			res.fail("pep-mix: stack bring-up %d: %v", i, err)
			continue
		}
		setups = append(setups, d.Seconds())
	}
	m["setup_s"] = median(setups)

	c0 := counters(pepCounters...)
	u0 := readUsage()
	var rep *pep.LoadReport
	var err error
	job := sp.do("pep.run_load", "", func() {
		rep, err = pep.RunLoad(pep.LoadConfig{
			Flows: p.flows, Concurrency: pepClients, Mix: pepMix,
			Link: pepLink, Tunnel: pepTunnel, Seed: p.seed,
			DrainTimeout: 30 * time.Second,
		})
	})
	u1 := readUsage()
	if err != nil {
		return res, err
	}
	c1 := counters(pepCounters...)
	d := func(name string) float64 { return c1[name] - c0[name] }

	done := rep.Flows - rep.Errors
	res.Attempted += rep.Flows
	res.Failed += rep.Errors
	m["job_s"] = job.Seconds()
	phaseMetrics(m, u0, u1, done)
	m["peak_rss_mib"] = peakRSSMiB()
	m["flows_per_s"] = float64(done) / rep.Duration.Seconds()
	m["transfer_p50_ms"] = millis(rep.TransferP50)
	m["pep.transfer_p99_ms"] = millis(rep.TransferP99)
	m["pep.handshake_p50_ms"] = millis(rep.HandshakeP50)
	m["pep.handshake_p99_ms"] = millis(rep.HandshakeP99)
	n := float64(max(rep.Flows, 1))
	m["tunnel.retransmits_per_flow"] = d("tunnel_retransmits_total") / n
	m["tunnel.frames_per_flow"] = d("tunnel_frames_sent_total") / n
	m["tunnel.window_stalls"] = d("tunnel_window_stalls_total")
	m["tunnel.timeouts"] = d("tunnel_streams_timedout_total")
	m["pep.relays"] = d("pep_relays_total")
	m["pep.dial_retries"] = d("pep_dial_retries_total")
	m["pep.relay_errors"] = d("pep_relay_errors_total")
	m["fail_ratio"] = float64(rep.Errors+rep.Leaked()) / n

	_, wantBytes := pepFlows(p.seed, p.seconds)
	if rep.Flows != p.flows {
		res.fail("pep-mix: %d flows ran, want %d", rep.Flows, p.flows)
	}
	if rep.Errors != 0 || rep.Leaked() != 0 {
		res.fail("pep-mix: %d flow errors, %d leaked streams", rep.Errors, rep.Leaked())
	}
	if rep.BytesDown != wantBytes {
		res.fail("pep-mix: %d bytes down, want the seeded mix total %d", rep.BytesDown, wantBytes)
	}
	if p.traced {
		if err := sp.write(filepath.Join(p.out, "spans.jsonl")); err != nil {
			return res, err
		}
	}
	return res, nil
}

// bringUp builds a fresh CPE–gateway stack over a new emulated link and
// returns the time until it has carried one flow end to end.
func bringUp(seed uint64) (time.Duration, error) {
	origin, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		serveOrigin(origin)
	}()
	defer wg.Wait()
	defer origin.Close()

	start := time.Now()
	linkA, linkB := linkemu.NewPair(pepLink, pepLink, seed)
	cpe := pep.NewCPE(linkA, pepTunnel, nil)
	gw := pep.NewGateway(linkB, pepTunnel, nil, nil)
	wg.Add(1)
	go func() {
		defer wg.Done()
		gw.Serve()
	}()
	defer gw.Close()
	defer cpe.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		cpe.ServeListener(ln, origin.Addr().String())
	}()
	defer ln.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	var req [4]byte
	binary.BigEndian.PutUint32(req[:], pepProbeBytes)
	if _, err := conn.Write(req[:]); err != nil {
		return 0, err
	}
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		return 0, err
	}
	if n != pepProbeBytes {
		return 0, fmt.Errorf("probe flow got %d bytes, want %d", n, pepProbeBytes)
	}
	return time.Since(start), nil
}

// serveOrigin answers each connection's 4-byte size request with that
// many bytes, until the listener closes.
func serveOrigin(ln net.Listener) {
	var wg sync.WaitGroup
	defer wg.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer conn.Close()
			var req [4]byte
			if _, err := io.ReadFull(conn, req[:]); err != nil {
				return
			}
			io.CopyN(conn, zeros{}, int64(binary.BigEndian.Uint32(req[:])))
		}()
	}
}

// zeros is an endless reader of zero bytes.
type zeros struct{}

func (zeros) Read(b []byte) (int, error) {
	clear(b)
	return len(b), nil
}
