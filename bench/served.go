package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"voltnoise/internal/service"
	"voltnoise/internal/service/client"
	"voltnoise/internal/service/journal"
	"voltnoise/internal/service/store"
)

// Sizes of the served workloads' requests.
const (
	servedMemoryEntries = 256 // the voltnoised -cache default
	servedChips         = 48
	servedEPICycles     = 512
	// servedChecked is how many of the first cold results golden.json
	// pins; the first of each study is also checked against the
	// reference runner.
	servedChecked = 8
	// servedMinCold (with as many hits) and replayMinHits are the
	// requests each client runs in every window, whatever its length.
	// The server keeps every job it accepts, so peak memory, read after
	// them, grows with the number of requests served and would otherwise
	// rise as the code gets faster.
	servedMinCold = 32
	replayMinHits = 4096
	// replayRotate is how many hits one server answers before the replay
	// workload restarts it, which bounds the jobs it keeps to about 50 MB.
	replayRotate = 16384
	// replayKeys is how many distinct results the replay workload
	// computes at set-up and then serves from the cache.
	replayKeys = 8
)

// coldRequest returns the g-th distinct request of a run: even g
// profile the ISA, odd g measure a 48-chip fleet. The seed moves which
// keys a run uses, never what they cost.
func coldRequest(seed uint64, g int) *service.Request {
	if g%2 == 0 {
		u := g / 2
		return &service.Request{Study: service.StudyEPIProfile, EPIProfile: &service.EPIProfileParams{
			MeasureCycles: servedEPICycles + (u+int(seed%32))%32,
			TopN:          5 + u/32,
		}}
	}
	return &service.Request{Study: service.StudyPopulation, Population: &service.PopulationParams{
		Chips:    servedChips,
		AgeYears: fleetAge,
		Mix:      []string{"o3", "io", "o3", "io", "o3", "io"},
		TechNode: fleetTech,
		ExitHz:   fleetExitHz,
		WarmupS:  fleetWarmup,
		RLCBins:  fleetBins,
		Seed:     seed<<20 + uint64(g),
	}}
}

// warmupRequest is a key no window op uses.
func warmupRequest() *service.Request {
	return &service.Request{Study: service.StudyEPIProfile, EPIProfile: &service.EPIProfileParams{
		MeasureCycles: servedEPICycles - 1,
	}}
}

// svcStats collects service-layer samples during a traced window. The
// timing wrappers around the server's Runner and Store report into it,
// and the benchmark registers, per request hash, the client call now
// waiting on that request, so server-side spans get a parent.
type svcStats struct {
	mu        sync.Mutex
	parents   map[string][2]int64 // hash -> span id, op id
	missAt    map[string]time.Time
	runner    map[string]time.Duration // hash -> runner time
	runnerBy  map[service.Study][]float64
	queueWait []float64
	gets      []float64 // us
	puts      []float64 // us
	coldLat   map[string]time.Duration
}

func newSvcStats() *svcStats {
	return &svcStats{
		parents:  map[string][2]int64{},
		missAt:   map[string]time.Time{},
		runner:   map[string]time.Duration{},
		runnerBy: map[service.Study][]float64{},
		coldLat:  map[string]time.Duration{},
	}
}

// waiting registers sp, of op, as the client call now waiting on the
// request with the given hash.
func (s *svcStats) waiting(hash string, sp *openSpan, op int64) {
	s.mu.Lock()
	s.parents[hash] = [2]int64{sp.id(), op}
	s.mu.Unlock()
}

// serverSpan records a span the server opened for the request with the
// given hash: note stores its samples, and the span ends at t1 under
// the client call waiting on that request.
func (s *svcStats) serverSpan(sp *openSpan, hash string, t1 time.Time, note func()) {
	s.mu.Lock()
	note()
	p := s.parents[hash]
	s.mu.Unlock()
	sp.endUnder(t1, p[0], p[1])
}

// timingRunner times every study the server runs.
type timingRunner struct {
	inner service.Runner
	env   *env
}

func (r timingRunner) Run(ctx context.Context, req *service.Request) (any, error) {
	rec := r.env.recorder()
	if rec == nil {
		return r.inner.Run(ctx, req)
	}
	t0 := time.Now()
	sp := rec.startAt("service.LabRunner.Run", 0, 0, t0)
	v, err := r.inner.Run(ctx, req)
	t1 := time.Now()
	hash, herr := req.Hash()
	if herr != nil {
		return nil, herr
	}
	s := r.env.svc
	s.serverSpan(sp, hash, t1, func() {
		s.runner[hash] = t1.Sub(t0)
		s.runnerBy[req.Study] = append(s.runnerBy[req.Study], ms(t1.Sub(t0)))
		if miss, ok := s.missAt[hash]; ok {
			s.queueWait = append(s.queueWait, ms(t0.Sub(miss)))
		}
	})
	return v, err
}

// timingStore times every result-store read and write.
type timingStore struct {
	inner store.Store
	env   *env
}

func (t timingStore) Get(hash string) ([]byte, bool, error) {
	rec := t.env.recorder()
	if rec == nil {
		return t.inner.Get(hash)
	}
	t0 := time.Now()
	sp := rec.startAt("store.Get", 0, 0, t0)
	v, ok, err := t.inner.Get(hash)
	t1 := time.Now()
	s := t.env.svc
	s.serverSpan(sp, hash, t1, func() {
		s.gets = append(s.gets, us(t1.Sub(t0)))
		if !ok {
			s.missAt[hash] = t1
		}
	})
	return v, ok, err
}

func (t timingStore) Put(hash string, value []byte) error {
	rec := t.env.recorder()
	if rec == nil {
		return t.inner.Put(hash, value)
	}
	t0 := time.Now()
	sp := rec.startAt("store.Put", 0, 0, t0)
	err := t.inner.Put(hash, value)
	t1 := time.Now()
	s := t.env.svc
	s.serverSpan(sp, hash, t1, func() { s.puts = append(s.puts, us(t1.Sub(t0))) })
	return err
}

func (t timingStore) Len() int     { return t.inner.Len() }
func (t timingStore) Close() error { return t.inner.Close() }

// server is an in-process voltnoised in its -data-dir deployment: a
// memory-fronted disk result store and a write-ahead journal in a
// scratch directory, served on a loopback listener.
type server struct {
	env *env
	dir string
	jnl *journal.Journal
	srv *service.Server
	hs  *httptest.Server
	tr  *http.Transport
	cl  *client.Client
}

// startServer starts a server on a new data directory.
func startServer(e *env) (*server, error) {
	dir, err := e.tempDir("served-")
	if err != nil {
		return nil, err
	}
	s, err := openServer(e, dir)
	if err != nil {
		os.RemoveAll(dir)
	}
	return s, err
}

// openServer starts a server on the data directory dir, recovering
// the results and the journal an earlier server left there.
func openServer(e *env, dir string) (*server, error) {
	disk, err := store.NewDisk(filepath.Join(dir, "results"))
	if err != nil {
		return nil, err
	}
	jnl, err := journal.Open(filepath.Join(dir, "journal.wal"))
	if err != nil {
		return nil, err
	}
	srv := service.NewServer(service.Config{
		Store:   timingStore{inner: store.NewTiered(store.NewMemory(servedMemoryEntries), disk), env: e},
		Journal: jnl,
		Runner:  timingRunner{inner: service.NewLabRunner(), env: e},
	})
	s := &server{env: e, dir: dir, jnl: jnl, srv: srv, hs: httptest.NewServer(srv)}
	s.tr = &http.Transport{MaxIdleConnsPerHost: 4}
	s.cl = client.New(s.hs.URL)
	s.cl.HTTPClient = &http.Client{Transport: s.tr}
	return s, nil
}

// cold submits a request the server has not seen, follows its event
// stream to the done event and returns the result hash.
func (s *server) cold(ctx context.Context, req *service.Request, c call) (opStat, string) {
	st := opStat{laneSteps: map[int]int64{}}
	rec := s.env.recorder()
	hash, err := req.Hash()
	if err != nil {
		st.err = err
		return st, ""
	}
	var perChip int64
	if p := req.Population; p != nil {
		st.chips = p.Chips
		perChip = steps(p.WarmupS, 2/p.ExitHz)
	}
	t0 := time.Now()
	op := rec.startAt("bench.cold", 0, c.id, t0)
	sub := rec.startAt("client.Submit", op.id(), c.id, t0)
	if rec != nil {
		s.env.svc.waiting(hash, sub, c.id)
	}
	js, err := s.cl.Submit(ctx, req)
	sub.end()
	if err == nil && (js.Cached || js.Deduped) {
		err = fmt.Errorf("cold request %s answered from cache", js.ID)
	}
	if err != nil {
		op.end()
		st.finish(t0)
		st.err = err
		return st, ""
	}
	watch := rec.start("client.Watch", op.id(), c.id)
	if rec != nil {
		s.env.svc.waiting(hash, watch, c.id)
	}
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	evs, errc := s.cl.Watch(wctx, js.ID)
	var result string
	for e := range evs {
		st.events++
		switch e.Type {
		case service.EventPartial:
			// A population partial carries chips, a profile partial
			// instructions.
			var p struct {
				Chips   []json.RawMessage `json:"chips"`
				Entries []json.RawMessage `json:"entries"`
			}
			if err := json.Unmarshal(e.Partial, &p); err != nil {
				st.err = fmt.Errorf("decoding partial of job %s: %w", js.ID, err)
			}
			n := len(p.Chips) + len(p.Entries)
			if req.Population != nil {
				st.laneSteps[n] += int64(n) * perChip
			}
			st.mark(t0, n)
		case service.EventDone:
			result = e.ResultHash
		case service.EventFailed, service.EventCanceled:
			err = fmt.Errorf("job %s %s: %s", js.ID, e.Type, e.Error)
		}
	}
	if werr := <-errc; err == nil {
		err = werr
	}
	if err == nil {
		err = st.err
	}
	watch.end()
	op.end()
	st.finish(t0)
	if err == nil && result == "" {
		err = fmt.Errorf("job %s ended without a done event", js.ID)
	}
	if rec != nil {
		s.env.svc.mu.Lock()
		s.env.svc.coldLat[hash] = st.lat
		s.env.svc.mu.Unlock()
	}
	st.err = err
	return st, result
}

// hit replays an already computed request through POST /v1/studies and
// checks that the cache answered with the original bytes.
func (s *server) hit(ctx context.Context, req *service.Request, want string, c call) opStat {
	st := opStat{hit: true}
	rec := s.env.recorder()
	t0 := time.Now()
	sp := rec.startAt("client.Run", 0, c.id, t0)
	if rec != nil {
		hash, _ := req.Hash() // it hashed when it ran cold
		s.env.svc.waiting(hash, sp, c.id)
	}
	b, cached, err := s.cl.Run(ctx, req)
	sp.end()
	st.finish(t0)
	switch {
	case err != nil:
	case !cached:
		err = errors.New("expected a cache hit, the server recomputed")
	case sha(b) != want:
		err = fmt.Errorf("hit bytes hash %s, want %s", sha(b)[:12], want[:12])
	}
	st.err = err
	return st
}

// stop shuts the server down and keeps its data directory.
func (s *server) stop() {
	s.hs.Close()
	s.tr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	s.jnl.Close()
}

func (s *server) close() {
	s.stop()
	os.RemoveAll(s.dir)
}

// reference computes a request's result hash with the lane-per-run
// serial runner, off the server.
func reference(ctx context.Context, req *service.Request) (string, error) {
	r := *req
	r.Workers, r.Batch = 1, 1
	n, err := r.Normalize()
	if err != nil {
		return "", err
	}
	v, err := service.NewLabRunner().Run(ctx, n)
	if err != nil {
		return "", err
	}
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return sha(b), nil
}

// servedWorkload is one client against one server. It alternates a
// cold request (profile or fleet, submitted and followed over SSE to
// its done event) with a cache-hit replay of one of its finished
// requests. Cold requests are the measured ops; the hits keep the store
// read path warm beside the journal fsyncs, store writes and event
// fan-out. A second client would run two studies of two workers each on
// the two vCPUs the benchmark is sized for, and its latency would then
// measure how the scheduler interleaves them: the run-to-run spread of
// op_p50_ms was 0.20-0.28 with two clients and 0.06 with one.
type servedWorkload struct {
	env  *env
	srv  *server
	cold int        // cold requests issued, across windows
	done []finished // cold requests finished, in order
}

type finished struct {
	req  *service.Request
	hash string
}

func newServed(e *env) workload { return &servedWorkload{env: e} }

func (w *servedWorkload) clients() int { return 1 }
func (w *servedWorkload) minOps() int  { return 2 * servedMinCold }

func (w *servedWorkload) setup(ctx context.Context) error {
	srv, err := startServer(w.env)
	if err != nil {
		return err
	}
	w.srv = srv
	st, _ := srv.cold(ctx, warmupRequest(), call{})
	return st.err
}

func (w *servedWorkload) op(ctx context.Context, c call) opStat {
	if c.k%2 == 0 {
		// Consecutive cold requests alternate the two studies.
		req := coldRequest(w.env.seed, w.cold)
		w.cold++
		st, hash := w.srv.cold(ctx, req, c)
		if st.err == nil {
			w.done = append(w.done, finished{req, hash})
		}
		return st
	}
	if len(w.done) == 0 {
		return opStat{side: true, hit: true, err: errors.New("no finished request to replay")}
	}
	f := w.done[w.env.rng(uint64(w.cold)).IntN(len(w.done))]
	st := w.srv.hit(ctx, f.req, f.hash, c)
	st.side = true
	return st
}

// verify checks the first cold result of each study against the
// reference and returns the digest of the first servedChecked results.
func (w *servedWorkload) verify(ctx context.Context) (int, int, string, error) {
	if len(w.done) < servedChecked {
		return 0, 0, "", fmt.Errorf("%d cold requests finished, want %d", len(w.done), servedChecked)
	}
	var failed int
	for _, f := range w.done[:2] {
		want, err := reference(ctx, f.req)
		if err != nil {
			return 0, 0, "", err
		}
		if want != f.hash {
			failed++
		}
	}
	var ds []string
	for _, f := range w.done[:servedChecked] {
		ds = append(ds, f.hash)
	}
	return 2, failed, combine(ds), nil
}

func (w *servedWorkload) autoWidth() int { return freshAutoWidth() }

func (w *servedWorkload) close() {
	if w.srv != nil {
		w.srv.close()
	}
}

// replayWorkload serves cache hits only: set-up computes a few
// results, then two clients replay them through POST /v1/studies. It
// is the workload on which the result cache is used; served is the one
// whose measured ops bypass it.
type replayWorkload struct {
	env  *env
	keys [replayKeys]finished

	mu   sync.RWMutex // read-held by each hit, write-held by a restart
	srv  *server
	hits atomic.Int64 // hits the current server has answered
}

func newReplay(e *env) workload { return &replayWorkload{env: e} }

func (w *replayWorkload) clients() int { return 2 }
func (w *replayWorkload) minOps() int  { return replayMinHits }

func (w *replayWorkload) setup(ctx context.Context) error {
	srv, err := startServer(w.env)
	if err != nil {
		return err
	}
	w.srv = srv
	for g := range w.keys {
		req := coldRequest(w.env.seed, g)
		st, hash := srv.cold(ctx, req, call{})
		if st.err != nil {
			return st.err
		}
		w.keys[g] = finished{req, hash}
	}
	st := srv.hit(ctx, w.keys[0].req, w.keys[0].hash, call{})
	return st.err
}

func (w *replayWorkload) op(ctx context.Context, c call) opStat {
	if w.hits.Load() >= replayRotate {
		if err := w.rotate(); err != nil {
			return opStat{hit: true, err: err}
		}
	}
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.srv == nil {
		return opStat{hit: true, err: errors.New("the server did not restart")}
	}
	w.hits.Add(1)
	f := w.keys[(c.k*2+c.client)%replayKeys]
	return w.srv.hit(ctx, f.req, f.hash, c)
}

// rotate restarts the server on its data directory, outside any op.
// The server keeps every job it accepts, hits included, so without
// restarts the run's memory would grow with the hit rate. The new
// server finds the results on disk, so the keys stay cached.
func (w *replayWorkload) rotate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.srv == nil || w.hits.Load() < replayRotate {
		return nil // the other client restarted it
	}
	old := w.srv
	w.srv = nil
	w.hits.Store(0)
	old.stop()
	srv, err := openServer(w.env, old.dir)
	if err != nil {
		os.RemoveAll(old.dir)
		return fmt.Errorf("restarting the server: %w", err)
	}
	w.srv = srv
	return nil
}

func (w *replayWorkload) verify(ctx context.Context) (int, int, string, error) {
	var failed int
	var ds []string
	for _, f := range w.keys {
		want, err := reference(ctx, f.req)
		if err != nil {
			return 0, 0, "", err
		}
		if want != f.hash {
			failed++
		}
		ds = append(ds, f.hash)
	}
	return len(w.keys), failed, combine(ds), nil
}

func (w *replayWorkload) autoWidth() int { return freshAutoWidth() }

func (w *replayWorkload) close() {
	if w.srv != nil {
		w.srv.close()
	}
}
