package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies before JSON decoding: a graph of
// MaxNodes nodes fits comfortably, anything bigger is rejected with 413 by
// MaxBytesReader before it can balloon memory.
const maxBodyBytes = 64 << 20

// Handler returns the service mux:
//
//	GET   /healthz               liveness + drain state (503 while draining)
//	GET   /metrics               obs.Registry snapshot (same registry as the
//	                             service counters — one scrape shows everything)
//	POST  /v1/schedule           compute (or fetch) a schedule; ?async via body
//	PATCH /v1/schedule/{fp}      apply a live graph delta against the cached
//	                             schedule for graph fingerprint fp: plans a
//	                             verified overlap transition and invalidates
//	                             the superseded entries
//	POST  /v1/experiment         run a registered experiment
//	GET   /v1/jobs/{key}         poll an async job
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.cfg.Registry)
	mux.HandleFunc("POST /v1/schedule", s.handleSchedule)
	mux.HandleFunc("PATCH /v1/schedule/{fp}", s.handlePatch)
	mux.HandleFunc("POST /v1/experiment", s.handleExperiment)
	mux.HandleFunc("GET /v1/jobs/{key}", s.handleJob)
	return mux
}

// response is the HTTP envelope around a Result: the immutable cached
// payload plus per-delivery metadata.
type response struct {
	*Result
	Cached    bool `json:"cached"`
	Coalesced bool `json:"coalesced,omitempty"`
}

// render encodes the response envelope of r once, the way writeJSON would
// encode response{Result: r}, and keeps it up to the per-delivery "cached"
// member in r.body; the wire-only payload now in body is dropped. It runs
// in execute, after SolveMS is stamped and before r is cached or handed to
// a waiter, so r is never read while it changes.
func (r *Result) render() error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(response{Result: r}); err != nil {
		return fmt.Errorf("serve: encoding response: %w", err)
	}
	body, ok := bytes.CutSuffix(buf.Bytes(), responseTail(false, false))
	if !ok {
		return errors.New("serve: encoding response: unexpected envelope tail")
	}
	r.body = bytes.Clone(body)
	r.Schedule, r.Mapping, r.Table = nil, nil, ""
	return nil
}

// responseTails close a rendered body exactly as json.Encoder with
// SetIndent("", "  ") closes the response envelope.
var responseTails = [...][]byte{
	[]byte("\"cached\": false\n}\n"),
	[]byte("\"cached\": false,\n  \"coalesced\": true\n}\n"),
	[]byte("\"cached\": true\n}\n"),
	[]byte("\"cached\": true,\n  \"coalesced\": true\n}\n"),
}

func responseTail(cached, coalesced bool) []byte {
	i := 0
	if cached {
		i += 2
	}
	if coalesced {
		i++
	}
	return responseTails[i]
}

// writeResult writes the response for res: its rendered body and the
// per-delivery tail, the bytes writeJSON would write for the envelope.
// Only shard entries, which no job renders, take the reflective path.
func writeResult(w http.ResponseWriter, status int, res *Result, cached, coalesced bool) {
	if res.body == nil {
		writeJSON(w, status, response{Result: res, Cached: cached, Coalesced: coalesced})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(res.body)                        //nolint:errcheck // best-effort over HTTP
	w.Write(responseTail(cached, coalesced)) //nolint:errcheck // best-effort over HTTP
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // best-effort over HTTP
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.Draining() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	s.mu.Lock()
	pending := len(s.pending)
	s.mu.Unlock()
	writeJSON(w, status, map[string]any{
		"status":      state,
		"queue_depth": s.pool.QueueLen(),
		"pending":     pending,
	})
}

// decode reads one JSON value from the bounded body into into. Unknown
// fields and anything but whitespace after the value are 400s; a body past
// maxBodyBytes is a 413.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, into any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(into)
	if err == nil {
		if _, terr := dec.Token(); terr != io.EOF {
			err = errTrailingData
			var tooBig *http.MaxBytesError
			if errors.As(terr, &tooBig) {
				err = terr
			}
		}
	}
	if err != nil {
		writeError(w, errorStatus(err), "decoding request: %v", err)
		return false
	}
	return true
}

// handleSchedule serves POST /v1/schedule in one pass over the body: parse,
// check and key, then the cache lookup. Only a miss builds the instance and
// validates it, and only a request that passed that validation is admitted
// and can be cached under its key.
func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	b := bodyPool.Get().(*schedulePass)
	defer b.release()
	if err := b.read(w, r); err != nil {
		writeError(w, errorStatus(err), "decoding request: %v", err)
		return
	}
	if err := b.parse(); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := b.check(s.cfg.MaxNodes); err != nil {
		writeError(w, errorStatus(err), "%v", err)
		return
	}
	key := b.key()
	// While draining, even a hit goes through admit, which answers 503.
	if !s.Draining() {
		if res, ok := s.cachedHit(key); ok {
			writeResult(w, http.StatusOK, res, true, false)
			return
		}
	}
	inst, err := b.instance()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req := b.req
	req.Batteries = nil // pooled scratch; the budgets live in inst
	run := func(cancel func() bool) (*Result, error) {
		width := s.cfg.RaceWidth
		if width > 1 {
			s.met.solverRaced.Inc()
		} else {
			s.met.solverSequential.Inc()
		}
		hooks := obs.Hooks{Trace: attemptTracer{s.met.solverAttempts}}
		defs := SolveDefaults{Budget: s.cfg.DefaultBudget, TimeBudget: s.cfg.DefaultTimeBudget}
		if req.Shards > 1 {
			sched, part, err := s.solveSharded(inst, &req, defs, hooks, cancel)
			if err != nil {
				return nil, err
			}
			return scheduleResult(key, &req, inst, sched, part, defs)
		}
		sched, err := Solve(inst, &req, width, defs, hooks, cancel)
		if err != nil {
			return nil, err
		}
		return scheduleResult(key, &req, inst, sched, nil, defs)
	}
	s.dispatch(w, r, key, "schedule",
		timeoutFromMS(req.TimeoutMS, s.cfg.DefaultTimeout), req.Async, run)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	var req ExperimentRequest
	if !s.decode(w, r, &req) {
		return
	}
	id, err := req.resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	key := req.key(id)
	run := func(cancel func() bool) (*Result, error) {
		table, err := experiments.Run(id, experiments.Config{
			Seed:   req.Seed,
			Trials: req.Trials,
			Quick:  req.Quick,
			Cancel: cancel,
		})
		if err != nil {
			return nil, err
		}
		return experimentResult(key, id, table)
	}
	s.dispatch(w, r, key, "experiment",
		timeoutFromMS(req.TimeoutMS, s.cfg.DefaultTimeout), req.Async, run)
}

// dispatch is the shared tail of both POST endpoints: admission, then either
// the async 202 or a bounded wait for the (possibly coalesced) job.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request,
	key, kind string, timeout time.Duration, async bool,
	run func(cancel func() bool) (*Result, error)) {

	res, j, coalesced, status := s.admit(key, kind, timeout, run)
	switch status {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After",
			strconv.Itoa(int(math.Ceil(s.cfg.RetryAfter.Seconds()))))
		writeError(w, status, "server at capacity; retry later")
		return
	case http.StatusServiceUnavailable:
		writeError(w, status, "server is draining; not accepting new work")
		return
	}
	if res != nil {
		writeResult(w, http.StatusOK, res, true, false)
		return
	}
	if async {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"key":    key,
			"kind":   kind,
			"status": "accepted",
			"poll":   "/v1/jobs/" + key,
		})
		return
	}

	// Synchronous wait, bounded by the caller's own patience: the job keeps
	// its deadline either way, so an abandoned wait does not abandon the
	// computation (it finishes and fills the cache).
	ctx, cancelWait := context.WithTimeout(r.Context(), timeout)
	defer cancelWait()
	select {
	case <-j.done:
		if j.err != nil {
			s.writeJobError(w, j.err)
			return
		}
		writeResult(w, http.StatusOK, j.result, false, coalesced)
	case <-ctx.Done():
		writeJSON(w, http.StatusGatewayTimeout, map[string]string{
			"error": "deadline exceeded waiting for result",
			"key":   key,
			"poll":  "/v1/jobs/" + key,
		})
	}
}

// writeJobError maps a failed job onto HTTP: cancellation (the
// experiments.ErrCanceled contract) is the caller's deadline → 504;
// everything else — including injected chaos worker faults — is a server
// failure → 500.
func (s *Server) writeJobError(w http.ResponseWriter, err error) {
	if errors.Is(err, experiments.ErrCanceled) {
		writeError(w, http.StatusGatewayTimeout, "%v", err)
		return
	}
	writeError(w, http.StatusInternalServerError, "%v", err)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	state, kind, res, ok := s.jobStatus(key)
	if !ok {
		writeError(w, http.StatusNotFound, "no job or cached result under key %s", key)
		return
	}
	if res != nil {
		writeResult(w, http.StatusOK, res, true, false)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"key": key, "kind": kind, "status": state})
}

// ObsMux is the observability-only mux for processes that are not the
// scheduling service but still want the standard endpoints (ltsim's
// -obs-addr): /healthz always reports ok, /metrics serves the registry
// snapshot, and the root path keeps serving the full snapshot for
// compatibility with the pre-serve ltsim endpoint.
func ObsMux(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.Handle("GET /metrics", reg)
	mux.Handle("/", reg)
	return mux
}

// HTTPServer pairs a bound listener with an http.Server so every binary
// gets the same lifecycle: StartHTTP binds and serves in the background
// (":0" picks a free port — Addr tells you which), Stop shuts down
// gracefully within ctx and hard-closes on expiry.
type HTTPServer struct {
	ln  net.Listener
	srv *http.Server
}

// StartHTTP binds addr and serves h until Stop.
func StartHTTP(addr string, h http.Handler) (*HTTPServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s := &HTTPServer{ln: ln, srv: &http.Server{Handler: h}}
	go s.srv.Serve(ln) //nolint:errcheck // Serve returns ErrServerClosed on Stop
	return s, nil
}

// Addr returns the bound address (host:port), useful with ":0".
func (s *HTTPServer) Addr() string { return s.ln.Addr().String() }

// Stop gracefully shuts the HTTP layer down: stop accepting connections,
// wait for in-flight handlers up to ctx, then hard-close stragglers.
func (s *HTTPServer) Stop(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close()
	}
	return err
}
