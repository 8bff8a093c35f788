package main

import (
	"io/fs"
	"os"
	"sync"
	"time"

	"tecfan/internal/core"
	"tecfan/internal/diskfault"
	"tecfan/internal/sim"
)

// The spans below hang off public seams of the program, so the benchmark
// attributes time to layers without changing a line of the code it measures.

// thermalSpan times the audited transient solve. It is a sim.NumFaultInjector
// that injects nothing: the simulator calls CorruptPower just before the
// power audit and the transient step, and CorruptTemps right after the step.
type thermalSpan struct {
	start time.Time
	busy  time.Duration
	steps int64
}

func (t *thermalSpan) CorruptPower(_ int, retry bool, _ []float64) bool {
	if !retry {
		t.steps++
		t.start = time.Now()
	}
	return false
}

func (t *thermalSpan) CorruptTemps(_ int, retry bool, _ []float64) bool {
	if !retry {
		t.busy += time.Since(t.start)
	}
	return false
}

// ctlSpan records every lower-level Control call of one run.
type ctlSpan struct {
	// est, when set, is read before and after each call to count the
	// candidates the call evaluated.
	est      *core.Estimator
	lat      []time.Duration
	evals    int64
	maxEvals int64
}

func (s *ctlSpan) busy() time.Duration {
	var d time.Duration
	for _, l := range s.lat {
		d += l
	}
	return d
}

// timedCtl times a controller's lower-level Control calls.
type timedCtl struct {
	sim.Controller
	span *ctlSpan
}

func (c *timedCtl) Control(obs *sim.Observation) sim.Decision {
	var e0 int
	if c.span.est != nil {
		e0 = c.span.est.Evaluations
	}
	t0 := time.Now()
	d := c.Controller.Control(obs)
	c.span.lat = append(c.span.lat, time.Since(t0))
	if c.span.est != nil {
		n := int64(c.span.est.Evaluations - e0)
		c.span.evals += n
		c.span.maxEvals = max(c.span.maxEvals, n)
	}
	return d
}

// wrapController times ctl's Control calls into span. The simulator changes
// behaviour on the optional FanController, StateCodec and NumericEscalator
// interfaces, so the wrapper implements exactly the ones ctl implements; the
// three shapes handled are the ones exp.Env.Controllers hands out.
func wrapController(ctl sim.Controller, span *ctlSpan) sim.Controller {
	t := &timedCtl{Controller: ctl, span: span}
	fc, fan := ctl.(sim.FanController)
	sc, codec := ctl.(sim.StateCodec)
	ne, esc := ctl.(sim.NumericEscalator)
	switch {
	case !fan && !codec && !esc:
		return t
	case fan && codec && !esc:
		return struct {
			*timedCtl
			sim.FanController
			sim.StateCodec
		}{t, fc, sc}
	case fan && codec && esc:
		return struct {
			*timedCtl
			sim.FanController
			sim.StateCodec
			sim.NumericEscalator
		}{t, fc, sc, ne}
	}
	panic("e2ebench: no wrapper for controller " + ctl.Name())
}

// timedFS is a diskfault.FS that counts the bytes written through it and
// times every call; the daemon's checkpoint, result and idempotency writes
// all pass through it.
type timedFS struct {
	inner diskfault.FS

	mu     sync.Mutex
	writes int64
	bytes  int64
	fsyncs []time.Duration
	busy   time.Duration
}

func (t *timedFS) note(start time.Time) {
	d := time.Since(start)
	t.mu.Lock()
	t.busy += d
	t.mu.Unlock()
}

func (t *timedFS) file(f diskfault.File, err error) (diskfault.File, error) {
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t}, nil
}

func (t *timedFS) OpenFile(name string, flag int, perm os.FileMode) (diskfault.File, error) {
	defer t.note(time.Now())
	return t.file(t.inner.OpenFile(name, flag, perm))
}

func (t *timedFS) Create(name string) (diskfault.File, error) {
	defer t.note(time.Now())
	return t.file(t.inner.Create(name))
}

func (t *timedFS) CreateTemp(dir, pattern string) (diskfault.File, error) {
	defer t.note(time.Now())
	return t.file(t.inner.CreateTemp(dir, pattern))
}

func (t *timedFS) Open(name string) (diskfault.File, error) {
	defer t.note(time.Now())
	return t.file(t.inner.Open(name))
}

func (t *timedFS) ReadFile(name string) ([]byte, error) {
	defer t.note(time.Now())
	return t.inner.ReadFile(name)
}

func (t *timedFS) Rename(oldpath, newpath string) error {
	defer t.note(time.Now())
	return t.inner.Rename(oldpath, newpath)
}

func (t *timedFS) Remove(name string) error {
	defer t.note(time.Now())
	return t.inner.Remove(name)
}

func (t *timedFS) ReadDir(name string) ([]fs.DirEntry, error) {
	defer t.note(time.Now())
	return t.inner.ReadDir(name)
}

func (t *timedFS) Stat(name string) (fs.FileInfo, error) {
	defer t.note(time.Now())
	return t.inner.Stat(name)
}

func (t *timedFS) MkdirAll(path string, perm os.FileMode) error {
	defer t.note(time.Now())
	return t.inner.MkdirAll(path, perm)
}

func (t *timedFS) SyncDir(dir string) error {
	defer t.note(time.Now())
	return t.inner.SyncDir(dir)
}

type timedFile struct {
	diskfault.File
	fs *timedFS
}

func (f *timedFile) Read(p []byte) (int, error) {
	defer f.fs.note(time.Now())
	return f.File.Read(p)
}

func (f *timedFile) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.bytes += int64(n)
	f.fs.busy += d
	f.fs.mu.Unlock()
	return n, err
}

func (f *timedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.fs.mu.Lock()
	f.fs.fsyncs = append(f.fs.fsyncs, d)
	f.fs.busy += d
	f.fs.mu.Unlock()
	return err
}

func (f *timedFile) Close() error {
	defer f.fs.note(time.Now())
	return f.File.Close()
}
