package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"fusion/internal/systems"
)

// SweepRequest is the body of POST /v1/sweep: a benchmark x system grid
// sharing one set of knobs, plus optional explicit cells appended after
// the grid. Cell order in the response is grid order (benches-major) then
// the explicit cells, independent of completion order.
type SweepRequest struct {
	Benches []string `json:"benches,omitempty"`
	Systems []string `json:"systems,omitempty"`
	// Base carries the shared knobs for every grid cell; its bench and
	// system fields are ignored (each grid point overrides them).
	Base  systems.Spec   `json:"base,omitempty"`
	Cells []systems.Spec `json:"cells,omitempty"`
	// WallMS bounds each job's wall-clock time in milliseconds; a job
	// over budget fails its cell with a deadline error. 0 means no bound.
	WallMS int64 `json:"wall_ms,omitempty"`
}

// expand materializes the request's cell list in canonical order.
func (r *SweepRequest) expand() []systems.Spec {
	specs := make([]systems.Spec, 0, len(r.Benches)*len(r.Systems)+len(r.Cells))
	for _, b := range r.Benches {
		for _, sys := range r.Systems {
			s := r.Base
			s.Bench, s.System = b, sys
			specs = append(specs, s)
		}
	}
	specs = append(specs, r.Cells...)
	return specs
}

// SweepResponse is the body of a successful sweep: one cell per requested
// spec, in request order. Individual cells may carry errors (budget,
// deadline, protocol, recovered panic) — a failed cell does not fail the
// response.
type SweepResponse struct {
	Cells []*CellResult `json:"cells"`
}

// Statsz is the GET /statsz body.
type Statsz struct {
	JobsRun       int64 `json:"jobs_run"`
	JobsCoalesced int64 `json:"jobs_coalesced"`
	JobsShed      int64 `json:"jobs_shed"`
	PanicsCaught  int64 `json:"panics_caught"`
	CachePutErrs  int64 `json:"cache_put_errs"`
	Inflight      int   `json:"inflight"`
	CacheEntries  int   `json:"cache_entries"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Quarantined   int64 `json:"quarantined"`
}

// retryAfterSeconds is the back-off hint attached to 429 responses.
const retryAfterSeconds = 2

// maxRequestBytes bounds a request body; a grid query is small, and a
// fault plan embedded in a spec is a few hundred bytes.
const maxRequestBytes = 1 << 20

// maxSweepCells bounds the cells one sweep names, its benches x systems
// grid plus its explicit cells. It is checked before the grid is expanded,
// since a body of n bench and n system names asks for n² cells, and it
// also bounds handleSweep's goroutines, one per cell. fusiond's smoke
// request has 1 cell and the fusiond-mixed benchmark sends 4 to 16.
const maxSweepCells = 1024

func (s *Service) routes() {
	s.mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	s.mux.HandleFunc("GET /v1/cell/{hash}", s.handleCell)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
}

// decodeSweep reads a sweep body into its cells, validated as sent and then
// normalized, and the wall-clock bound of each job. Every cell is validated
// before any is admitted: a malformed grid is the client's bug and should
// cost zero simulation time. An error is the client's; its text is the 400
// body.
func decodeSweep(body io.Reader) ([]systems.Spec, time.Duration, error) {
	var req SweepRequest
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, 0, fmt.Errorf("bad request body: %v", err)
	}
	// len(Benches)*len(Systems)+len(Cells) > maxSweepCells, without the
	// product, which can overflow.
	nb, ns, nc := len(req.Benches), len(req.Systems), len(req.Cells)
	if nc > maxSweepCells || ns > 0 && nb > (maxSweepCells-nc)/ns {
		return nil, 0, fmt.Errorf("sweep too large: %d benches x %d systems plus %d cells exceeds %d cells",
			nb, ns, nc, maxSweepCells)
	}
	specs := req.expand()
	if len(specs) == 0 {
		return nil, 0, errors.New("empty sweep: no benches x systems and no cells")
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			return nil, 0, fmt.Errorf("cell %d (%s): %v", i, specs[i].Label(), err)
		}
		specs[i] = specs[i].Normalized()
	}
	return specs, time.Duration(req.WallMS) * time.Millisecond, nil
}

func (s *Service) handleSweep(w http.ResponseWriter, r *http.Request) {
	specs, wall, err := decodeSweep(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Submit every cell; if any is shed or the service is draining, stop
	// the whole request promptly by canceling the remaining waits (the
	// scheduler cancels jobs whose last waiter leaves).
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	cells := make([]*CellResult, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell, err := s.sched.Submit(ctx, specs[i], wall)
			if err != nil {
				errs[i] = err
				if errors.Is(err, ErrBusy) || errors.Is(err, ErrDraining) {
					cancel()
				}
				return
			}
			cells[i] = cell
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrBusy):
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfterSeconds))
			httpError(w, http.StatusTooManyRequests, "%v", err)
			return
		case errors.Is(err, ErrDraining):
			httpError(w, http.StatusServiceUnavailable, "%v", err)
			return
		}
	}
	for _, err := range errs {
		if err != nil {
			// Only the caller's own cancellation reaches here; there is
			// no one left to read a body, but be correct anyway.
			httpError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}
	writeJSON(w, http.StatusOK, &SweepResponse{Cells: cells})
}

func (s *Service) handleCell(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	cell, ok := s.cache.Get(hash)
	if !ok {
		httpError(w, http.StatusNotFound, "no cached cell %s", hash)
		return
	}
	writeJSON(w, http.StatusOK, cell)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Service) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	sc := s.sched.counters()
	hits, misses, quarantined := s.cache.Counters()
	st := &Statsz{
		JobsRun: sc.ran, JobsCoalesced: sc.coalesced, JobsShed: sc.shed,
		PanicsCaught: sc.panics, CachePutErrs: sc.putErrs,
		Inflight:     sc.inflight,
		CacheEntries: s.cache.Len(), CacheHits: hits, CacheMisses: misses,
		Quarantined: quarantined,
	}
	writeJSON(w, http.StatusOK, st)
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// writeJSON writes v as a JSON body with a trailing newline (the encoder's
// convention), setting status and content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to tell the client.
		return
	}
}
