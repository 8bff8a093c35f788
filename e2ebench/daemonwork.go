package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"tecfan/internal/daemon"
	"tecfan/internal/diskfault"
	"tecfan/internal/power"
	"tecfan/internal/workload"
)

// passRounds is how many times a pass sends the case list, each time in its
// own seeded order. A pass ends when its last job does, leaving a worker idle
// meanwhile; several rounds per pass keep that idle tail, which depends on
// the order, a small share of the pass.
const passRounds = 4

// jobScale shrinks each job's instruction budget. Small jobs give a run
// enough jobs for a latency tail while still checkpointing every period.
const jobScale = 0.1

const (
	pollInterval = 2 * time.Millisecond
	jobTimeout   = 60 * time.Second
)

type jobCase struct {
	bench   string
	threads int
	policy  string
}

func (c jobCase) key() string { return fmt.Sprintf("%s-%d/%s", c.bench, c.threads, c.policy) }

// jobCases is daemon-jobs' case list: every Table I benchmark once, with the
// policies spread over them so that all six run.
var jobCases = []jobCase{
	{"cholesky", 16, "TECfan"},
	{"cholesky", 4, "Fan+TEC"},
	{"fmm", 16, "Fan+DVFS"},
	{"fmm", 4, "DVFS+TEC"},
	{"volrend", 16, "TECfan-FT"},
	{"water", 4, "Fan-only"},
	{"lu", 16, "TECfan"},
	{"lu", 4, "Fan+TEC"},
}

// daemonJobs is the daemon-jobs workload: trace jobs, checkpointed every
// control period, sent over loopback HTTP to an in-process daemon by a
// closed-loop client keeping at most nproc jobs in flight. Every pass starts
// a fresh daemon on a fresh state directory, so passes repeat exactly.
type daemonJobs struct {
	seed      int64
	order     []int
	clients   int
	stateDir  string
	paperPeak map[string]float64
	ref       *reference
	peakErr   float64
}

func newDaemonJobs(seed int64, ref *reference) (runner, error) {
	if err := os.MkdirAll(stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(stateRoot, "daemon-jobs-*")
	if err != nil {
		return nil, err
	}
	w := &daemonJobs{
		seed: seed, clients: runtime.NumCPU(), stateDir: dir, ref: ref,
		paperPeak: map[string]float64{},
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < passRounds; i++ {
		w.order = append(w.order, rng.Perm(len(jobCases))...)
	}
	leak := power.DefaultLeakage()
	for _, c := range jobCases {
		b, err := workload.ByName(c.bench, c.threads, leak)
		if err != nil {
			_ = w.close()
			return nil, err
		}
		w.paperPeak[c.key()] = b.TargetPeak
	}
	// Set-up is what a user waits for before a cold daemon has served its
	// first job: start-up, listener, one job end to end.
	p := newPass()
	if err := w.serve(p, jobCases[len(jobCases)-1:], nil); err != nil {
		_ = w.close()
		return nil, err
	}
	if len(p.failures) > 0 {
		_ = w.close()
		return nil, fmt.Errorf("warm-up job: %s", p.failures[0])
	}
	return w, nil
}

func (w *daemonJobs) peakErrC() float64 { return w.peakErr }

func (w *daemonJobs) close() error { return os.RemoveAll(w.stateDir) }

// The unit of work is one job, from submission to its fetched result.
func (w *daemonJobs) pass(traced bool) (*passResult, error) {
	p := newPass()
	cases := make([]jobCase, len(w.order))
	for i, k := range w.order {
		cases[i] = jobCases[k]
	}
	var fsys *timedFS
	if traced {
		fsys = &timedFS{inner: diskfault.OS}
	}
	if err := w.serve(p, cases, fsys); err != nil {
		return nil, err
	}
	if fsys != nil {
		p.layer.ckptWrites = fsys.writes
		p.layer.ckptBytes = fsys.bytes
		p.layer.fsyncs = fsys.fsyncs
		p.layer.fsBusy = fsys.busy
	}
	return p, nil
}

// serve runs cases through a fresh daemon and records them in p; p.wall
// spans the daemon's start to its shutdown.
func (w *daemonJobs) serve(p *passResult, cases []jobCase, fsys *timedFS) error {
	dir, err := os.MkdirTemp(w.stateDir, "pass-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	cfg := daemon.Config{
		StateDir:        dir,
		Workers:         w.clients,
		CheckpointEvery: 1,
		// The background scrubber would add reads at timing-dependent
		// moments to the storage layer being measured.
		ScrubInterval: -1,
		Logf:          func(string, ...any) {},
	}
	if fsys != nil {
		cfg.FS = fsys
	}
	start := time.Now()
	srv, err := startDaemon(cfg)
	if err != nil {
		return err
	}
	outcomes := w.clientLoop(srv.url, cases)
	if err := srv.stop(); err != nil {
		return err
	}
	p.wall = time.Since(start)
	for _, o := range outcomes {
		w.record(p, o)
	}
	return nil
}

// jobOutcome is what the client saw of one job.
type jobOutcome struct {
	c                     jobCase
	total, submit, result time.Duration
	exact, rounded        string
	threshold, energy     float64
	peak                  float64
	err                   error
}

func (w *daemonJobs) record(p *passResult, o jobOutcome) {
	p.attempted++
	key := o.c.key()
	if o.err != nil {
		p.fail("%s: %v", key, o.err)
		return
	}
	p.ops = append(p.ops, o.total)
	p.layer.submits = append(p.layer.submits, o.submit)
	p.layer.results = append(p.layer.results, o.result)
	p.layer.execs = append(p.layer.execs, o.total-o.submit-o.result)
	p.outputs[key] = o.exact
	stats := map[string]float64{"threshold_c": o.threshold, "energy_j": o.energy, "peak_c": o.peak}
	if err := w.ref.check("daemon-jobs/"+key, stats, o.rounded); err != nil {
		p.fail("%v", err)
	}
	w.peakErr = max(w.peakErr, math.Abs(o.threshold-w.paperPeak[key]))
}

// clientLoop is the closed-loop client: w.clients workers, each sending its
// next job only once its previous one has returned a result.
func (w *daemonJobs) clientLoop(base string, cases []jobCase) []jobOutcome {
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}}
	defer client.CloseIdleConnections()
	out := make([]jobOutcome, len(cases))
	var mu sync.Mutex
	next := 0
	var wg sync.WaitGroup
	for g := 0; g < w.clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(cases) {
					return
				}
				out[i] = w.runJob(client, base, cases[i], i)
			}
		}()
	}
	wg.Wait()
	return out
}

// runJob submits one trace job with an idempotency key, polls for its
// result and digests it.
func (w *daemonJobs) runJob(client *http.Client, base string, c jobCase, i int) jobOutcome {
	o := jobOutcome{c: c}
	ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
	defer cancel()
	// Fixed-width ids and keys keep the bytes the daemon persists equal
	// from pass to pass.
	id := fmt.Sprintf("j%08x-%02d", uint32(w.seed), i)
	spec, err := json.Marshal(daemon.JobSpec{
		ID: id, Kind: daemon.KindTrace, Bench: c.bench, Threads: c.threads,
		Policy: c.policy, Scale: jobScale,
	})
	if err != nil {
		o.err = err
		return o
	}
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(spec))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Idempotency-Key", "k"+id[1:])
	status, body, err := do(client, req)
	o.submit = time.Since(start)
	if err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	if status != http.StatusAccepted {
		o.err = fmt.Errorf("submit: HTTP %d: %s", status, bytes.TrimSpace(body))
		return o
	}
	for {
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+id+"/result", nil)
		if err != nil {
			o.err = err
			return o
		}
		status, body, err := do(client, req)
		if err != nil {
			o.err = fmt.Errorf("result: %w", err)
			return o
		}
		switch status {
		case http.StatusOK:
			o.result = time.Since(t0)
			o.total = time.Since(start)
			o.err = o.parse(body)
			return o
		case http.StatusConflict:
			var v daemon.JobView
			if err := json.Unmarshal(body, &v); err != nil {
				o.err = fmt.Errorf("result: %w", err)
				return o
			}
			if v.State == daemon.StateFailed || v.State == daemon.StateCanceled {
				o.err = fmt.Errorf("job %s: %s", v.State, v.Error)
				return o
			}
		default:
			o.err = fmt.Errorf("result: HTTP %d: %s", status, bytes.TrimSpace(body))
			return o
		}
		time.Sleep(pollInterval)
		if err := ctx.Err(); err != nil {
			o.err = fmt.Errorf("waiting for result: %w", err)
			return o
		}
	}
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// parse digests a trace job's result. Everything but the echoed spec, which
// carries the job id, is physics and goes into the digests.
func (o *jobOutcome) parse(body []byte) error {
	var res map[string]any
	if err := json.Unmarshal(body, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	delete(res, "spec")
	if done, _ := res["completed"].(bool); !done {
		return errors.New("result reports an incomplete run")
	}
	th, ok1 := res["threshold"].(float64)
	m, _ := res["metrics"].(map[string]any)
	energy, ok2 := m["Energy"].(float64)
	peak, ok3 := m["PeakTemp"].(float64)
	if !ok1 || !ok2 || !ok3 {
		return errors.New("result lacks threshold, metrics.Energy or metrics.PeakTemp")
	}
	o.threshold, o.energy, o.peak = th, energy, peak
	o.exact = digest(res, -1)
	o.rounded = digest(res, digestDigits)
	return nil
}

// daemonServer is a daemon serving its HTTP API on a loopback port.
type daemonServer struct {
	d    *daemon.Server
	srv  *http.Server
	url  string
	done chan error
}

func startDaemon(cfg daemon.Config) (*daemonServer, error) {
	d, err := daemon.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.Shutdown(context.Background())
		return nil, err
	}
	s := &daemonServer{
		d:    d,
		srv:  &http.Server{Handler: d.Handler()},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop closes the listener, waits for the serving goroutine and drains the
// daemon.
func (s *daemonServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, s.d.Shutdown(ctx))
}
