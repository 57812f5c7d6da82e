package bench

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"rootless/bench/driver"
	"rootless/bench/oracle"
	"rootless/internal/udpengine"
)

const (
	// Window is the closed loop's fixed number of outstanding queries.
	Window = 64
	// engineBatch is the daemons' default -udp-batch.
	engineBatch = 8
	// MaxFailFrac is the share of operations that may fail before a run
	// is reported incorrect.
	MaxFailFrac = 0.001
	// lateLimitUS is how late the paced sender's 99th-percentile
	// departure may be. Past it the schedule was not kept, the paced
	// latencies describe the machine and not the server, and they are
	// withheld.
	lateLimitUS = 200.0
	// capacitySlices is how many equal closed-loop phases the untraced
	// run's interval is cut into; capacity_qps, cpu_us_per_query and
	// allocs_per_query are the median slice, which a machine that stops
	// for a second in one of them does not move.
	capacitySlices = 3
	// refreshEvery is zone_refresh's cadence: one delta cycle per
	// interval, each followed by one full bootstrap. The first cycle of a
	// phase starts with the phase, so equal phases hold equal numbers.
	refreshEvery = 1500 * time.Millisecond
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is the measured interval: untraced, all of it is the
	// capacity phase; traced, it is shared out as traced describes.
	Seconds float64
	// Trace selects the traced run, which reports the per-layer metrics
	// in place of the end-to-end ones.
	Trace bool
	// WarmUp is the discarded closed-loop interval before measuring.
	WarmUp time.Duration
	// SetupRuns is how many times the workload is set up; setup_s is the
	// median. The last set-up is the one that is measured against.
	SetupRuns int
	// OutDir receives trace-<workload>.json from a traced run.
	OutDir string
}

// Quick returns the options rootbench -quick and the tests use: phases
// too short to measure anything, long enough to exercise every path.
func Quick(workload string, trace bool) Options {
	return Options{Workload: workload, Seed: 1, Seconds: 0.6, Trace: trace, WarmUp: 100 * time.Millisecond, SetupRuns: 1}
}

// Metric is one reported number.
type Metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Better  string  `json:"better"`
	Samples int64   `json:"samples"`
}

// Report is the outcome of one run.
type Report struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Trace     bool     `json:"trace"`
	Correct   bool     `json:"correct"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	Metrics   []Metric `json:"metrics"`
	// Notes are the validity warnings and the first failure seen.
	Notes []string `json:"notes,omitempty"`
	Env   Env      `json:"env"`
}

// Env is the run environment stamp.
type Env struct {
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go"`
	Kernel     string  `json:"kernel"`
	Network    string  `json:"network"`
	Loop       string  `json:"loop"`
	RateQPS    float64 `json:"rate_qps"` // 0 in an untraced run, which has no paced phase
}

func (r *Report) add(name string, value float64, samples int64) {
	def, ok := catalogue[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Value: value, Unit: def.Unit, Better: def.Better, Samples: samples})
}

func (r *Report) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Metric returns the named metric's value (0 when absent).
func (r *Report) Metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// server is one udpengine serving a handler on a loopback port.
type server struct {
	eng    *udpengine.Engine
	cancel context.CancelFunc
	done   chan error
}

func startServer(h udpengine.Handler) (*server, error) {
	// The engine would open the same kind of socket from an Addr; opening
	// it here is only to give it the larger receive buffer.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	_ = conn.SetReadBuffer(driver.SocketBuffer) // best effort, as in Dial
	eng, err := udpengine.New(udpengine.Config{Conns: []net.PacketConn{conn}, Workers: 1, Batch: engineBatch, Handler: h})
	if err != nil {
		conn.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &server{eng: eng, cancel: cancel, done: make(chan error, 1)}
	go func() { s.done <- eng.Serve(ctx) }()
	return s, nil
}

func (s *server) addr() string { return s.eng.LocalAddr().String() }

func (s *server) stop() error {
	s.cancel()
	return <-s.done
}

// usage is the process's resource consumption so far.
type usage struct {
	cpu     time.Duration // user + system
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// peakRSSMB reads the process's resident high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

func environment(workload string, trace bool) Env {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	// The untraced run has no paced phase: the paced latencies are
	// per-layer metrics.
	loop := fmt.Sprintf("1 client socket, 1 engine worker, batch %d; closed loop, window %d, median of %d equal phases", engineBatch, Window, capacitySlices)
	rate := 0.0
	if trace {
		rate = RateQPS[workload]
		loop = fmt.Sprintf("1 client socket, 1 engine worker, batch %d; capacity phases closed loop, window %d; paced phase open loop at rate_qps", engineBatch, Window)
	}
	return Env{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     kernel,
		Network:    "loopback, in-process server",
		Loop:       loop,
		RateQPS:    rate,
	}
}

// run is the state of one Run call.
type run struct {
	opts    Options
	rep     *Report
	inst    *Instance
	srv     *server
	drv     *driver.Driver
	rig     *RefreshRig
	spans   *Spans
	sampler *oracle.Sampler
	seq     uint64
	// tracing switches the handler wrapper and the driver's Trace hook.
	tracing atomic.Bool
	// cycling makes zone_refresh's refresh cycles run beside a phase.
	cycling bool
}

// Run sets the workload up, drives it, checks it and reports on it.
func Run(opts Options) (*Report, error) {
	if _, ok := RateQPS[opts.Workload]; !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", opts.Workload, strings.Join(WorkloadNames, ", "))
	}
	if opts.Seconds <= 0 {
		return nil, errors.New("bench: -seconds must be positive")
	}
	if opts.SetupRuns <= 0 {
		opts.SetupRuns = 3
	}
	r := &run{
		opts:    opts,
		rep:     &Report{Workload: opts.Workload, Seed: opts.Seed, Trace: opts.Trace, Env: environment(opts.Workload, opts.Trace)},
		sampler: oracle.NewSampler(32768, 400),
	}
	if opts.Trace {
		r.spans = NewSpans()
	}
	defer r.close()
	var err error
	if opts.Trace {
		err = r.traced()
	} else {
		err = r.untraced()
	}
	if err != nil {
		return nil, err
	}
	r.rep.Correct = float64(r.rep.Failed) <= MaxFailFrac*float64(r.rep.Attempted)
	return r.rep, nil
}

func (r *run) close() {
	if r.rig != nil {
		r.rig.Close()
	}
	if r.drv != nil {
		r.drv.Close()
	}
	if r.srv != nil {
		_ = r.srv.stop()
	}
}

// setup builds the workload SetupRuns times and keeps the last; it
// returns the set-up times in seconds. A set-up is the world (zone
// build, signing), the server with its caches warm, and the engine
// listening. For zone_refresh the zone revisions and the mirror's
// answers to them, enough for cycles refresh cycles, are inputs:
// prepared once and not counted.
func (r *run) setup(cycles int, handler func(*Instance) udpengine.Handler) ([]float64, error) {
	var times []float64
	for i := 0; i < r.opts.SetupRuns; i++ {
		if r.srv != nil {
			if err := r.srv.stop(); err != nil {
				return nil, err
			}
			r.srv, r.inst = nil, nil
		}
		start := time.Now()
		inst, err := Setup(r.opts.Workload, r.opts.Seed)
		if err != nil {
			return nil, err
		}
		srv, err := startServer(handler(inst))
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		r.inst, r.srv = inst, srv
	}
	var err error
	if r.opts.Workload == ZoneRefresh {
		if r.rig, err = NewRefreshRig(r.inst, cycles, r.spans); err != nil {
			return nil, err
		}
	}
	r.drv, err = driver.Dial(r.srv.addr())
	return times, err
}

// measured is one driver phase with the resources the process consumed
// while it ran: the server, the driver and, while cycling, the
// refresher. The content check of the sampled replies comes after and
// is not in it.
type measured struct {
	driver.Result
	cpu     time.Duration
	mallocs uint64
}

func (m measured) qps() float64 { return float64(m.Correct) / m.Elapsed.Seconds() }
func (m measured) cpuUS() float64 {
	return float64(m.cpu) / float64(time.Microsecond) / float64(m.Correct)
}
func (m measured) allocs() float64 { return float64(m.mallocs) / float64(m.Correct) }

// phase runs one driver phase, then replays the sampled replies through
// the content check and charges what it refuses to the phase. While
// cycling, zone_refresh's refresh cycles run beside the phase, the
// first starting with it.
func (r *run) phase(p driver.Phase) (measured, error) {
	p.FirstSeq = r.seq
	p.SampleEvery = oracle.SampleEvery
	p.Sample = r.sampler.Add
	if r.tracing.Load() {
		p.Trace = func(seq uint64, id uint16, due, done int64) {
			r.spans.AddID("query", seq, id, time.Unix(0, due), time.Unix(0, done))
		}
	}
	stopCycles := func() {}
	if r.cycling {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			defer close(done)
			r.rig.Run(ctx, refreshEvery)
		}()
		stopCycles = func() { cancel(); <-done }
	}
	before := readUsage()
	res, err := r.drv.Run(context.Background(), r.inst.Load, p)
	after := readUsage()
	stopCycles()
	if err != nil {
		return measured{}, err
	}
	r.seq = res.NextSeq
	if n := r.sampler.Skipped; n > 0 {
		r.rep.note("oracle: %d sampled replies were dropped unchecked, the sample arena was full", n)
	}
	rejected, first := r.sampler.Each(r.inst.Verify)
	res.Rejected += int64(rejected)
	res.Correct -= int64(rejected)
	if first != nil {
		r.rep.note("%v", first)
	}
	if res.TimedOut > 0 {
		r.rep.note("%d of %d queries timed out", res.TimedOut, res.Attempted)
	}
	r.rep.Attempted += res.Attempted
	r.rep.Failed += res.Failed()
	if res.Correct == 0 {
		return measured{}, fmt.Errorf("bench: %s answered no query correctly (%v)", r.opts.Workload, r.rep.Notes)
	}
	return measured{Result: res, cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs}, nil
}

// warmUp is the discarded closed-loop interval.
func (r *run) warmUp() error {
	if r.opts.WarmUp <= 0 {
		return nil
	}
	attempted, failed := r.rep.Attempted, r.rep.Failed
	_, err := r.phase(driver.Phase{Window: Window, Duration: r.opts.WarmUp})
	r.rep.Attempted, r.rep.Failed = attempted, failed
	return err
}

func (r *run) capacity(d time.Duration) (measured, error) {
	return r.phase(driver.Phase{Window: Window, Duration: d})
}

// paced runs the open loop at the workload's frozen rate. valid says
// whether the sender kept its schedule; when it did not, the latencies
// of the phase are not to be reported.
func (r *run) paced(d time.Duration) (res driver.Result, valid bool, err error) {
	m, err := r.phase(driver.Phase{RateQPS: RateQPS[r.opts.Workload], Duration: d})
	if err != nil {
		return res, false, err
	}
	res, valid = m.Result, true
	if late := float64(res.Late.Quantile(0.99)) / 1e3; late > lateLimitUS {
		valid = false
		r.rep.note("paced_p50_us and paced_p99_us withheld: the sender's 99th-percentile departure was %.0f us late (limit %.0f)", late, lateLimitUS)
	}
	if n := len(res.Backlog); n > 1 && res.Backlog[n-1] > 4*res.Backlog[0]+Window {
		r.rep.note("backlog grew from %d to %d outstanding queries over the paced phase", res.Backlog[0], res.Backlog[n-1])
	}
	return res, valid, nil
}

// cycles is how many refresh cycles zone_refresh can start in phases
// that add up to serving: one at the start of each and one per
// refreshEvery after that.
func cycles(serving time.Duration, phases int) int {
	return int(serving/refreshEvery) + phases
}

// finish closes the account of the refresh cycles, which are operations
// of the run like the queries.
func (r *run) finish() error {
	if r.rig == nil {
		return nil
	}
	r.rep.Attempted += int64(r.rig.Cycles())
	r.rep.Failed += int64(r.rig.Failed)
	if r.rig.FirstErr != nil {
		r.rep.note("%v", r.rig.FirstErr)
	}
	if len(r.rig.FullMS) == 0 || len(r.rig.DeltaMS) == 0 {
		return fmt.Errorf("bench: %s completed %d full and %d delta refreshes in %d cycles; first failure: %v",
			r.opts.Workload, len(r.rig.FullMS), len(r.rig.DeltaMS), r.rig.Cycles(), r.rig.FirstErr)
	}
	return nil
}

func (r *run) untraced() error {
	total := time.Duration(r.opts.Seconds * float64(time.Second))
	warm := 0
	if r.opts.WarmUp > 0 {
		warm = 1
	}
	setupS, err := r.setup(cycles(total+r.opts.WarmUp, capacitySlices+warm), func(in *Instance) udpengine.Handler { return in.Handler })
	if err != nil {
		return err
	}
	// The cycles are part of the load capacity is measured under.
	r.cycling = r.rig != nil
	if err := r.warmUp(); err != nil {
		return err
	}
	var qps, cpuUS, allocs []float64
	var correct int64
	for i := 0; i < capacitySlices; i++ {
		m, err := r.capacity(total / capacitySlices)
		if err != nil {
			return err
		}
		qps, cpuUS, allocs = append(qps, m.qps()), append(cpuUS, m.cpuUS()), append(allocs, m.allocs())
		correct += m.Correct
	}
	if err := r.finish(); err != nil {
		return err
	}
	rep := r.rep
	rep.add("setup_s", driver.Median(setupS), int64(len(setupS)))
	rep.add("capacity_qps", driver.Median(qps), correct)
	rep.add("cpu_us_per_query", driver.Median(cpuUS), correct)
	rep.add("allocs_per_query", driver.Median(allocs), correct)
	rep.add("peak_rss_mb", peakRSSMB(), 1)
	return nil
}

// echoLoad sends the workload's queries at a server that only echoes
// them, so any reply of header length is the right one.
type echoLoad struct{ driver.Load }

func (echoLoad) Check(_ uint32, _ uint64, reply []byte) bool { return len(reply) >= 12 }

// echoCalibration measures the floor under every serving figure: the
// driver, the kernel and the engine with a handler that does nothing.
func (r *run) echoCalibration(d time.Duration) (measured, error) {
	srv, err := startServer(udpengine.HandlerFunc(func(req []byte, _ udpengine.Peer, resp []byte) []byte {
		return append(resp, req...)
	}))
	if err != nil {
		return measured{}, err
	}
	defer srv.stop()
	drv, err := driver.Dial(srv.addr())
	if err != nil {
		return measured{}, err
	}
	defer drv.Close()
	load := echoLoad{r.inst.Load}
	if _, err := drv.Run(context.Background(), load, driver.Phase{Window: Window, Duration: d / 4, FirstSeq: r.seq}); err != nil {
		return measured{}, err
	}
	before := readUsage()
	res, err := drv.Run(context.Background(), load, driver.Phase{Window: Window, Duration: d, FirstSeq: r.seq})
	after := readUsage()
	if err == nil && res.Correct == 0 {
		err = errors.New("bench: the echo server answered nothing")
	}
	return measured{Result: res, cpu: after.cpu - before.cpu, mallocs: after.mallocs - before.mallocs}, err
}

// traced is the second, shorter run: the same phases with spans around
// the calls into each layer, the layers' own counters read before and
// after, and then each layer's public functions replayed on the
// workload's inputs. A sixteenth of the interval goes to the echo
// calibration, an eighth each to an untraced and a traced capacity
// phase (their difference is the tracing overhead), a quarter to the
// traced paced phase — beside which zone_refresh makes its refresh
// cycles — and the rest to the replays.
func (r *run) traced() error {
	total := time.Duration(r.opts.Seconds * float64(time.Second))
	r.opts.SetupRuns = 1
	if _, err := r.setup(cycles(total/4, 1), func(in *Instance) udpengine.Handler {
		return &spanHandler{next: in.Handler, run: r}
	}); err != nil {
		return err
	}
	if f := r.inst.Fabric; f != nil {
		f.Span = func(start, end time.Time) {
			if r.tracing.Load() {
				r.spans.Add("upstream", start, end)
			}
		}
	}
	echo, err := r.echoCalibration(total / 16)
	if err != nil {
		return err
	}
	if err := r.warmUp(); err != nil {
		return err
	}
	plain, err := r.capacity(total / 8)
	if err != nil {
		return err
	}
	r.tracing.Store(true)
	before := r.counters()
	traced, err := r.capacity(total / 8)
	if err != nil {
		return err
	}
	handlers, handlerNS := r.spans.Count("handler"), r.spans.TotalNS("handler")
	r.cycling = r.rig != nil
	paced, pacedValid, err := r.paced(total / 4)
	r.cycling = false
	after := r.counters()
	r.tracing.Store(false)
	if err != nil {
		return err
	}
	if err := r.finish(); err != nil {
		return err
	}

	rep := r.rep
	rep.add("fail_frac", ratio(rep.Failed, rep.Attempted), rep.Attempted)
	if pacedValid {
		rep.add("paced_p50_us", paced.MedianQuantile(0.50)/1e3, paced.Correct)
		rep.add("paced_p99_us", paced.MedianQuantile(0.99)/1e3, paced.Correct)
	}
	rep.add("driver.echo_capacity_qps", echo.qps(), echo.Correct)
	rep.add("driver.echo_cpu_us_per_query", echo.cpuUS(), echo.Correct)
	rep.add("driver.late_p50_us", float64(paced.Late.Quantile(0.50))/1e3, paced.Late.Count())
	rep.add("driver.late_p99_us", float64(paced.Late.Quantile(0.99))/1e3, paced.Late.Count())
	rep.add("driver.unmatched", float64(traced.Unmatched+paced.Unmatched), traced.Attempted+paced.Attempted)
	rep.add("trace.overhead_frac", traced.cpuUS()/plain.cpuUS()-1, traced.Correct)

	queries := traced.Correct + paced.Correct
	r.liveLayers(before, after, queries)
	rep.add("udpengine.handler_us_p50", float64(r.spans.Quantile("handler", 0.5))/1e3, r.spans.Count("handler"))
	// Both sides of the share cover the traced capacity phase only.
	rep.add("udpengine.handler_share", float64(handlerNS)/float64(traced.cpu), handlers)
	rep.add("resolver.upstream_us", ratio(r.spans.TotalNS("upstream"), r.spans.Count("upstream"))/1e3, r.spans.Count("upstream"))

	budget := total / 4 / 10
	var replayNS float64
	if r.inst.Resolver != nil {
		replayNS = r.replayResolver(budget)
		rep.add("resolver.frontdoor_us", plain.cpuUS()-echo.cpuUS()-replayNS/1e3, plain.Correct)
	} else {
		replayNS = r.replayAuth(budget)
	}
	rep.add("budget.unexplained_frac", 1-(echo.cpuUS()+replayNS/1e3)/plain.cpuUS(), plain.Correct)
	if r.rig != nil {
		r.refreshLayers()
	}
	r.fillAbsent()
	if r.opts.OutDir != "" {
		return r.spans.Write(r.opts.OutDir, r.opts.Workload)
	}
	return nil
}

// refreshLayers reports the samples the traced refresh cycles took.
func (r *run) refreshLayers() {
	l := &r.rig.Layers
	for _, m := range []struct {
		name    string
		samples []float64
	}{
		{"refresh_full_ms", r.rig.FullMS},
		{"refresh_delta_ms", r.rig.DeltaMS},
		{"dist.fetch_full_ms", l.FetchFullMS},
		{"dist.fetch_full_bytes", l.FetchFullBytes},
		{"dist.bundle_verify_ms", l.BundleVerifyMS},
		{"dist.bundle_verify_allocs", l.BundleVerifyAllocs},
		{"dist.delta_fetch_ms", l.DeltaFetchMS},
		{"dist.delta_bytes", l.DeltaBytes},
		{"dist.delta_apply_ms", l.DeltaApplyMS},
		{"dist.delta_apply_allocs", l.DeltaApplyAllocs},
		{"dist.delta_sigs_checked", l.DeltaSigsChecked},
		{"dist.publish_ms", r.rig.PublishMS},
		{"dnssec.verifyzone_ms", l.VerifyZoneMS},
		{"dnssec.verifyzone_allocs", l.VerifyZoneAllocs},
		{"authserver.setzone_ms", l.SetZoneMS},
		{"authserver.post_install_miss_frac", l.PostInstallMissFrac},
	} {
		r.rep.add(m.name, driver.Median(m.samples), int64(len(m.samples)))
	}
}

// fillAbsent puts the per-layer metrics in catalogue order and reports
// those of layers this workload does not run as 0 over 0 samples, so
// that every traced run carries the same names.
func (r *run) fillAbsent() {
	have := make(map[string]Metric)
	for _, m := range r.rep.Metrics {
		have[m.Name] = m
	}
	r.rep.Metrics = r.rep.Metrics[:0]
	for _, name := range PerLayer {
		if m, ok := have[name]; ok {
			r.rep.Metrics = append(r.rep.Metrics, m)
		} else {
			r.rep.add(name, 0, 0)
		}
	}
}
