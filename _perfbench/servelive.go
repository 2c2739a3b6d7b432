package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tianhe/internal/serve"
	"tianhe/internal/serve/loadgen"
	"tianhe/internal/sim"
)

// serveLive drives a real tianhed daemon over loopback HTTP. Each setup
// spawns a fresh daemon on a free port and waits for /healthz; the last one
// serves the run, and the earlier ones are killed before the first timed
// request, so setup time is spawn to healthy only. A measure call sends the seeded loadgen request mix over
// nproc keep-alive connections in two phases: first an open loop of a fixed
// request count at openRate, each request timed from when it was due, then
// a closed loop for capacity.
type serveLive struct {
	bin     string
	seed    uint64
	conns   int
	mix     []loadgen.Arrival
	bodies  [][]byte
	client  *http.Client
	base    string
	d       *daemon   // the daemon under test
	spares  []*daemon // daemons of earlier setups, not yet killed
	rssBase float64   // daemon VmRSS (kB) once healthy
	openHWM float64   // daemon VmHWM (kB) after the first open-loop phase

	// Per-daemon totals for the /healthz cross-check.
	sent, ok int
	ids      map[uint64]bool

	// The last measure call's observations, for the traced pass.
	openLatMS, lateMS, vlatMS, batchJobs, scrapeMS []float64
}

// openRate is the open-loop arrival rate in requests per second.
const openRate = 3000

func newServeLive(cfg config) (*serveLive, error) {
	if cfg.Tianhed == "" {
		return nil, errors.New("serve-live needs --tianhed, the daemon binary")
	}
	w := &serveLive{bin: cfg.Tianhed, seed: cfg.Seed, conns: cfg.Nproc}
	// Enough arrivals for the longest open-loop phase (half of the run).
	horizon := sim.Time(cfg.Seconds/2*1.25 + 0.5)
	w.mix = loadgen.Generate(loadgen.Config{Seed: cfg.Seed, Clients: 1200, Rate: openRate, Horizon: horizon})
	for _, a := range w.mix {
		body, err := serve.MarshalRequest(a.Req)
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
	}
	w.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: w.conns, MaxIdleConnsPerHost: w.conns, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
	return w, nil
}

// daemon is one running tianhed process.
type daemon struct {
	cmd    *exec.Cmd
	pid    string
	exited chan error // receives Wait's result once
}

// kill stops the daemon and waits for it to exit.
func (p *daemon) kill() error {
	if err := p.cmd.Process.Kill(); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return err
	}
	<-p.exited // the kill makes Wait report "signal: killed"
	return nil
}

func (w *serveLive) setup(ctx context.Context, rep int, tr *tracer) error {
	if w.d != nil {
		w.spares = append(w.spares, w.d)
		w.d = nil
	}
	id := tr.begin("tianhed.spawn", -1, int64(rep))
	defer tr.end(id)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return err
	}
	w.base = fmt.Sprintf("http://127.0.0.1:%d", port)
	cmd := exec.Command(w.bin, "-addr", fmt.Sprintf("127.0.0.1:%d", port),
		"-seed", strconv.FormatUint(w.seed, 10))
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.conns))
	cmd.Stderr = os.Stderr
	// The kernel kills the daemon if the benchmark dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("starting tianhed: %w", err)
	}
	d := &daemon{cmd: cmd, pid: strconv.Itoa(cmd.Process.Pid), exited: make(chan error, 1)}
	go func() { d.exited <- cmd.Wait() }()
	w.sent, w.ok, w.ids = 0, 0, map[uint64]bool{}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := w.health(ctx); err == nil {
			break
		}
		select {
		case err := <-d.exited:
			return fmt.Errorf("tianhed exited before it was healthy: %v", err)
		case <-ctx.Done():
			return errors.Join(ctx.Err(), d.kill())
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			return errors.Join(errors.New("tianhed was not healthy within 30s"), d.kill())
		}
	}
	w.d = d
	w.rssBase, err = procStatusKB(d.pid, "VmRSS")
	return err
}

// health fetches /healthz and returns the daemon's completed-job count.
func (w *serveLive) health(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/healthz", nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("healthz: %s", resp.Status)
	}
	var h struct {
		Stats serve.Stats `json:"stats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("healthz: %w", err)
	}
	return h.Stats.Completed, nil
}

// reqResult is one request's outcome.
type reqResult struct {
	sent, done time.Time
	status     int
	resp       serve.Response
	err        error
}

func (w *serveLive) post(ctx context.Context, tr *tracer, i int) reqResult {
	id := tr.begin("tianhed.http", -1, -1)
	r := reqResult{sent: time.Now()}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(w.bodies[i]))
	if err != nil {
		r.err = err
		return r
	}
	resp, err := w.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
	}
	r.done = time.Now()
	tr.end(id)
	r.err = err
	if err == nil && r.status == http.StatusOK {
		r.resp, r.err = serve.ParseResponse(data)
		tr.setOp(id, int64(r.resp.ID))
	}
	return r
}

// record checks one response: 200, parses, completed, and an id not seen
// before on this daemon.
func (w *serveLive) record(r reqResult, ph *phase) bool {
	w.sent++
	good := r.err == nil && r.status == http.StatusOK && r.resp.Status == "ok" && !w.ids[r.resp.ID]
	ph.check(good, "serve-live request: status %d, id %d (repeat %v), err %v",
		r.status, r.resp.ID, w.ids[r.resp.ID], r.err)
	if good {
		w.ids[r.resp.ID] = true
		w.ok++
	}
	return good
}

// workers runs conns goroutines, each calling f until it returns false,
// and waits for them.
func (w *serveLive) workers(f func() bool) {
	var wg sync.WaitGroup
	for c := 0; c < w.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f() {
			}
		}()
	}
	wg.Wait()
}

func (w *serveLive) measure(ctx context.Context, tr *tracer, d time.Duration) (phase, error) {
	var ph phase
	if w.d == nil {
		return ph, errors.New("serve-live: no daemon")
	}
	if err := w.killSpares(); err != nil {
		return ph, err
	}

	// Open loop: request i is due at its generated arrival offset.
	k := min(len(w.mix), max(1, int(openRate*d.Seconds()/2)))
	open := make([]reqResult, k)
	dues := make([]time.Time, k)
	start := time.Now().Add(5 * time.Millisecond)
	var next atomic.Int64
	w.workers(func() bool {
		i := int(next.Add(1) - 1)
		if i >= k || ctx.Err() != nil {
			return false
		}
		dues[i] = start.Add(time.Duration(float64(w.mix[i].At-w.mix[0].At) * 1e9))
		if wait := time.Until(dues[i]); wait > 0 {
			time.Sleep(wait)
		}
		open[i] = w.post(ctx, tr, i)
		return true
	})
	if err := ctx.Err(); err != nil {
		return ph, err
	}
	w.openLatMS, w.lateMS, w.vlatMS, w.batchJobs = nil, nil, nil, nil
	for i, r := range open {
		if w.record(r, &ph) {
			w.openLatMS = append(w.openLatMS, float64(r.done.Sub(dues[i]))/1e6)
			w.vlatMS = append(w.vlatMS, r.resp.LatencySeconds*1e3)
			w.batchJobs = append(w.batchJobs, float64(r.resp.BatchJobs))
		}
		w.lateMS = append(w.lateMS, float64(r.sent.Sub(dues[i]))/1e6)
	}
	ph.latMS = w.openLatMS
	fmt.Fprintf(os.Stderr, "serve-live: open loop %d requests at %d req/s, latency p50 %.3f ms p99 %.3f ms, generator lateness p99 %.3f ms\n",
		k, openRate, median(w.openLatMS), quantile(w.openLatMS, 0.99), quantile(w.lateMS, 0.99))
	if w.openHWM == 0 {
		hwm, err := procStatusKB(w.d.pid, "VmHWM")
		if err != nil {
			return ph, err
		}
		w.openHWM = hwm
	}

	// Closed loop: each connection sends its next request on the reply.
	var mu sync.Mutex
	var closed []reqResult
	next.Store(int64(k))
	t0 := time.Now()
	deadline := t0.Add(d / 2)
	w.workers(func() bool {
		if time.Now().After(deadline) || ctx.Err() != nil {
			return false
		}
		i := int(next.Add(1)-1) % len(w.bodies)
		r := w.post(ctx, tr, i)
		mu.Lock()
		closed = append(closed, r)
		mu.Unlock()
		return true
	})
	ph.busy = time.Since(t0).Seconds()
	if err := ctx.Err(); err != nil {
		return ph, err
	}
	for _, r := range closed {
		if w.record(r, &ph) {
			ph.ops++
		}
	}

	completed, err := w.health(ctx)
	ph.check(err == nil && completed == w.ok,
		"serve-live: daemon completed %d jobs, client counted %d successes (err %v)", completed, w.ok, err)
	if tr != nil {
		w.scrapeMS = nil
		for i := 0; i < 5; i++ {
			ms, err := w.scrape(ctx, tr)
			if err != nil {
				return ph, err
			}
			w.scrapeMS = append(w.scrapeMS, ms)
		}
	}
	return ph, nil
}

// scrape fetches /metrics once and returns how long it took in ms.
func (w *serveLive) scrape(ctx context.Context, tr *tracer) (float64, error) {
	id := tr.begin("tianhed.metrics_scrape", -1, -1)
	defer tr.end(id)
	t := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("metrics: %s", resp.Status)
	}
	return float64(time.Since(t)) / 1e6, nil
}

func (w *serveLive) layers(_ context.Context, tr *tracer, traced phase) (map[string]float64, error) {
	st := tr.summarize()
	rss, err := procStatusKB(w.d.pid, "VmRSS")
	if err != nil {
		return nil, err
	}
	httpMS := st["tianhed.http"].durs()
	for i := range httpMS {
		httpMS[i] *= 1e3
	}
	return map[string]float64{
		"tianhed.http_ms":           median(httpMS),
		"tianhed.latency_p99_ms":    quantile(w.openLatMS, 0.99),
		"tianhed.open_samples":      float64(len(w.openLatMS)),
		"tianhed.closed_req_per_s":  traced.opsPerSec(),
		"serve.vlatency_p99_ms":     quantile(w.vlatMS, 0.99),
		"serve.live_batch_jobs":     mean(w.batchJobs),
		"tianhed.metrics_scrape_ms": median(w.scrapeMS),
		"tianhed.rss_kb_per_kreq":   (rss - w.rssBase) / (float64(w.sent) / 1000),
		"loadgen.lateness_p99_ms":   quantile(w.lateMS, 0.99),
	}, nil
}

func (w *serveLive) rssMB() (float64, error) { return w.openHWM / 1024, nil }

// killSpares kills the daemons of earlier setups.
func (w *serveLive) killSpares() error {
	var errs []error
	for _, p := range w.spares {
		errs = append(errs, p.kill())
	}
	w.spares = nil
	return errors.Join(errs...)
}

// close kills every daemon the run started and waits for each to exit.
func (w *serveLive) close() error {
	w.client.CloseIdleConnections()
	err := w.killSpares()
	if w.d != nil {
		err = errors.Join(err, w.d.kill())
		w.d = nil
	}
	return err
}
