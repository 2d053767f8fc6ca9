package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"fusion/internal/service"
	"fusion/internal/systems"
	"fusion/internal/workloads"
)

// fusiond-mixed drives an in-process fusiond with a closed loop of clients.
// Each pass is one round of the spec universe: every benchmark x system
// pair is requested cold once (a single-cell sweep the service simulates
// and caches), and the rest of the round's requests are reads: grids of
// already-requested specs the service serves from its cache.
const (
	fusiondClients = 2 // closed-loop clients, one connection each
	fusiondWorkers = 2 // service simulation workers
	gridMin        = 4
	gridMax        = 16
	// zipfS skews reads toward recently requested specs.
	zipfS = 1.1
	// spanHeader carries the client's request span to the server's
	// handler span.
	spanHeader = "Fusionperf-Span"
)

// knobs are the per-spec settings beyond benchmark and system; each round
// gives every benchmark x system pair a different combination, so the
// universe holds len(knobs) rounds.
var knobs = func() []systems.Spec {
	var out []systems.Spec
	for _, large := range []bool{false, true} {
		for _, lease := range []float64{1, 0.5, 2} {
			for _, wt := range []bool{false, true} {
				for _, tiles := range []int{1, 2} {
					out = append(out, systems.Spec{Large: large, LeaseScale: lease, WriteThrough: wt, Tiles: tiles})
				}
			}
		}
	}
	return out
}()

// fusiondSpec sizes the request stream.
type fusiondSpec struct {
	benches, systems []string
	// roundRequests is one round's requests over all clients.
	roundRequests int
}

// defaultRoundRequests makes the 42 benchmark x system pairs, each cold
// once per round, 8% of the stream.
const defaultRoundRequests = 525

// fusiondWorkload exercises the daemon's cold path (simulate, then write a
// checksummed cache object) and its cached path (read and verify) on one
// cache.
func fusiondWorkload() workload {
	return fusiondOf(fusiondSpec{benches: workloads.Names(), systems: systems.KindNames(),
		roundRequests: defaultRoundRequests})
}

func fusiondOf(spec fusiondSpec) workload {
	return workload{
		name:      "fusiond-mixed",
		minPasses: 3,
		opClasses: []string{"cold", "read"},
		setup: func(o options, tr *tracer, parent int) (instance, error) {
			return setupFusiond(spec, o.seed, tr, parent)
		},
	}
}

// ucell is one spec of the universe with its content address.
type ucell struct {
	spec systems.Spec
	hash string
}

// universe returns the cold specs of every round: each round requests every
// benchmark x system pair once, with a knob combination the pair has not
// had before, in a seeded order.
func universe(spec fusiondSpec, seed int64) [][]*ucell {
	rng := rand.New(rand.NewSource(seed))
	type pair struct{ bench, system string }
	var pairs []pair
	for _, b := range spec.benches {
		for _, s := range spec.systems {
			pairs = append(pairs, pair{b, s})
		}
	}
	combos := make([][]int, len(pairs))
	for i := range pairs {
		combos[i] = rng.Perm(len(knobs))
	}
	rounds := make([][]*ucell, len(knobs))
	for r := range rounds {
		for _, i := range rng.Perm(len(pairs)) {
			s := knobs[combos[i][r]]
			s.Bench, s.System = pairs[i].bench, pairs[i].system
			s = s.Normalized()
			rounds[r] = append(rounds[r], &ucell{spec: s, hash: s.Hash()})
		}
	}
	return rounds
}

// request is one sweep: a cold single cell or a grid read.
type request struct {
	cold  bool
	cells []*ucell
}

// schedule plans every round of the request stream, client by client:
// schedule(...)[r][c] is client c's requests in round r. Round r's cold
// specs are dealt to the clients in turn.
func schedule(spec fusiondSpec, seed int64) [][][]request {
	rounds := universe(spec, seed)
	out := make([][][]request, len(rounds))
	var prior []*ucell
	for r, round := range rounds {
		out[r] = make([][]request, fusiondClients)
		for c := range out[r] {
			var colds []*ucell
			for i := c; i < len(round); i += fusiondClients {
				colds = append(colds, round[i])
			}
			n := spec.roundRequests / fusiondClients
			if c < spec.roundRequests%fusiondClients {
				n++
			}
			out[r][c] = plan(seed, r, c, n, prior, colds)
		}
		prior = append(prior, round...)
	}
	return out
}

// plan returns client c's n requests in round r. prior holds every spec of
// the earlier rounds (all answered: rounds end at a barrier) and colds the
// round's cold specs assigned to this client. A read draws its grid from
// prior plus the client's own colds so far, which a closed loop has always
// seen answered, so every read is a cache hit by construction.
func plan(seed int64, r, c, n int, prior, colds []*ucell) []request {
	rng := rand.New(rand.NewSource(seed*10007 + int64(r)*101 + int64(c)))
	coldAt := make(map[int]bool, len(colds))
	pos := rng.Perm(n)[:len(colds)]
	if r == 0 && len(pos) > 0 && !slices.Contains(pos, 0) {
		pos[0] = 0 // the first request of the first round has nothing to read
	}
	for _, p := range pos {
		coldAt[p] = true
	}
	seen := append([]*ucell(nil), prior...)
	out := make([]request, 0, n)
	next := 0
	for i := 0; i < n; i++ {
		if coldAt[i] {
			out = append(out, request{cold: true, cells: []*ucell{colds[next]}})
			seen = append(seen, colds[next])
			next++
			continue
		}
		z := rand.NewZipf(rng, zipfS, 1, uint64(len(seen)-1))
		grid := make([]*ucell, gridMin+rng.Intn(gridMax-gridMin+1))
		for j := range grid {
			grid[j] = seen[len(seen)-1-int(z.Uint64())] // rank 0: most recent
		}
		out = append(out, request{cells: grid})
	}
	return out
}

type fusiondInstance struct {
	// plans is the request stream: plans[r][c] is client c's requests in
	// round r.
	plans [][][]request

	dir    string
	svc    *service.Service
	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	// cur is the running pass, read by the handler middleware.
	cur atomic.Pointer[passCtx]

	mu   sync.Mutex
	cold map[string][]byte //guard: mu — each cold cell's response bytes, by hash
}

// setupFusiond plans the request stream and starts a service on a fresh
// cache directory, listening on a loopback port.
func setupFusiond(spec fusiondSpec, seed int64, tr *tracer, parent int) (*fusiondInstance, error) {
	s := tr.begin("fusiond.plan", parent)
	plans := schedule(spec, seed)
	tr.end(s)
	s = tr.begin("service.start", parent)
	defer tr.end(s)
	dir, err := os.MkdirTemp("", "fusionperf-fusiond-")
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Options{CacheDir: dir, Workers: fusiondWorkers})
	if err != nil {
		return nil, errors.Join(err, os.RemoveAll(dir))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, svc.Shutdown(context.Background()), os.RemoveAll(dir))
	}
	f := &fusiondInstance{
		plans: plans, dir: dir, svc: svc,
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: fusiondClients, MaxConnsPerHost: fusiondClients}},
		cold: map[string][]byte{},
	}
	// The listener is bound, so requests queue until Serve accepts them.
	// The set-up does not wait for a /healthz round trip: its time is
	// goroutine wake-ups across cores, which a busy host stretches far more
	// than it stretches computation.
	f.srv = &http.Server{Handler: f}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// ServeHTTP wraps the service: during a pass it times every request and,
// when tracing, records a service.handler span under the client's span.
func (f *fusiondInstance) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p := f.cur.Load()
	if p == nil {
		f.svc.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	s := p.tr.begin("service.handler", parent)
	t0 := time.Now()
	f.svc.ServeHTTP(w, r)
	p.rec.sample("handler", time.Since(t0))
	p.tr.end(s)
}

func (f *fusiondInstance) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	f.client.CloseIdleConnections()
	err = errors.Join(err, f.svc.Shutdown(ctx), os.RemoveAll(f.dir))
	return err
}

func (f *fusiondInstance) more(i int) bool { return i < len(f.plans) }

// pass runs round p.index: the clients run their plans concurrently and
// the pass ends when both are done. It is timed as one segment: the
// clients never pause for a host-speed measurement.
func (f *fusiondInstance) pass(p *passCtx) {
	f.cur.Store(p)
	defer f.cur.Store(nil)
	var wg sync.WaitGroup
	for _, reqs := range f.plans[p.index] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, rq := range reqs {
				f.do(p, rq)
			}
		}()
	}
	wg.Wait()
}

// do sends one request, times it, and checks the response: status 200,
// one cell per spec, no cell error, a cold cell verified against
// sequential semantics, and a read cell byte-equal to its cold response.
func (f *fusiondInstance) do(p *passCtx, rq request) {
	specs := make([]systems.Spec, len(rq.cells))
	for i, u := range rq.cells {
		specs[i] = u.spec
	}
	body, err := json.Marshal(service.SweepRequest{Cells: specs})
	if err != nil {
		p.rec.fail("encode request: %v", err)
		return
	}
	class := "read"
	if rq.cold {
		class = "cold"
	}
	s := p.tr.begin("fusiond."+class, p.span)
	t0 := time.Now()
	cells, err := f.sweep(body, s)
	dt := time.Since(t0)
	p.tr.end(s)
	p.rec.op(class, dt)
	if err == nil && len(cells) != len(rq.cells) {
		err = fmt.Errorf("%d cells for %d specs", len(cells), len(rq.cells))
	}
	if err != nil {
		p.rec.fail("%s sweep: %v", class, err)
		return
	}
	if rq.cold {
		f.checkCold(p, rq.cells[0], cells[0], dt)
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, u := range rq.cells {
		if !bytes.Equal(cells[i], f.cold[u.hash]) {
			p.rec.fail("read %s: cached cell differs from its cold response", u.spec.Label())
			return
		}
	}
}

func (f *fusiondInstance) checkCold(p *passCtx, u *ucell, raw []byte, dt time.Duration) {
	var c service.CellResult
	if err := json.Unmarshal(raw, &c); err != nil {
		p.rec.fail("cold %s: %v", u.spec.Label(), err)
		return
	}
	if c.Failed() || c.Hash != u.hash || c.LinesChecked == 0 || c.LinesBad != 0 {
		p.rec.fail("cold %s: error %q, hash ok %v, %d of %d lines wrong",
			u.spec.Label(), c.Error, c.Hash == u.hash, c.LinesBad, c.LinesChecked)
		return
	}
	p.rec.simulated(c.Cycles, dt)
	f.mu.Lock()
	defer f.mu.Unlock()
	f.cold[u.hash] = raw
}

// sweep posts one sweep request and returns the response's cells.
func (f *fusiondInstance) sweep(body []byte, span int) ([]json.RawMessage, error) {
	req, err := http.NewRequest(http.MethodPost, f.url+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(spanHeader, strconv.Itoa(span))
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var out struct{ Cells []json.RawMessage }
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	return out.Cells, nil
}

// get fetches path and returns the body of a 200 response.
func (f *fusiondInstance) get(path string) ([]byte, error) {
	resp, err := f.client.Get(f.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

func (f *fusiondInstance) extras(rec *recorder) (map[string]metric, error) {
	out := map[string]metric{}
	pct := func(name, class string, q float64) {
		xs := rec.latencies(class)
		if v, ok := percentile(xs, q); ok {
			out[name] = metric{Value: v, Unit: "ms", Better: "lower", N: len(xs)}
		}
	}
	pct("cold_ms_p50", "cold", 50)
	pct("cold_ms_p95", "cold", 95)
	pct("cached_ms_p50", "read", 50)
	pct("cached_ms_p99", "read", 99)
	pct("service.handler_ms_p50", "handler", 50)
	rec.simRate(out)
	b, err := f.get("/statsz")
	if err != nil {
		return nil, err
	}
	var st service.Statsz
	if err := json.Unmarshal(b, &st); err != nil {
		return nil, fmt.Errorf("statsz: %w", err)
	}
	if n := st.CacheHits + st.CacheMisses; n > 0 {
		out["service.cache_hit_ratio"] = metric{Value: float64(st.CacheHits) / float64(n), Unit: "ratio", Better: "higher"}
	}
	out["service.jobs_coalesced"] = metric{Value: float64(st.JobsCoalesced), Unit: "count", Better: "equal"}
	return out, nil
}
