package store

// The HTTP face of the archive: the handler cmd/chamd serves and the
// httptest harness exercises. Routes:
//
//	PUT  /runs                  ingest a trace (idempotent: content address = ETag)
//	GET  /runs                  list runs (benchmark=, p=, sig=, sigset=, limit=, offset=)
//	GET  /runs/{id}             fetch one run (binary; ?format=json or Accept: application/json)
//	GET  /runs/{id}/stats       compressed-domain analysis report (zan; never expands the trace)
//	PUT  /runs/{id}/edges       attach a causal edge sidecar (JSONL body)
//	GET  /runs/{id}/edges       fetch a run's edge sidecar
//	GET  /runs/{id}/waves       idle-wave detector report over the edge sidecar
//	GET  /runs/{a}/diff/{b}     server-side per-site divergence (chamstat -diff engine)
//	POST /live/sessions/{id}/deltas   ingest a live telemetry delta batch
//	GET  /live/sessions               list in-flight sessions
//	GET  /live/sessions/{id}          one session's live view (?metrics=1 includes snapshot)
//	GET  /live/sessions/{id}/watch    long-poll: block until version > ?version= or ?timeout=
//	PUT  /cq                    register a continuous query (cq.Spec JSON)
//	GET  /cq                    list the tenant's continuous queries
//	DELETE /cq/{name}           drop a continuous query
//	GET  /cq/events             the tenant's CQ event feed (?version= long-polls)
//	GET  /mesh/manifest         every (tenant, run) this peer holds (anti-entropy)
//	GET  /mesh/status           federation identity: self, peers, replicas, tenants
//	POST /mesh/sweep            run one anti-entropy pass now
//	GET  /metrics               Prometheus text exposition (JSON behind Accept: application/json)
//	GET  /healthz               liveness probe
//
// Every run, live session, and query is namespaced by the
// X-Cham-Tenant header (default "default"); tenants are rate-limited
// (429 + Retry-After) and quota-bounded at this edge. When a mesh.Node
// is configured the handler federates by two rules. Reads: every
// run-scoped GET is registered through runRead, which serves locally
// and relays a not-found through mesh.Node.Read (owners, then the rest;
// the first answer that is neither 404 nor 5xx wins). Writes: PUT /runs
// and PUT /runs/{id}/edges go through replicate. GET /runs
// scatter-gathers the whole fleet. Intra-mesh traffic carries the
// X-Cham-Mesh header and is always served strictly locally — that
// header is the loop guard. On a mesh started with a shared
// secret the header is only honored alongside the matching
// X-Cham-Mesh-Key, so external clients cannot claim intra-mesh trust;
// without a secret the header is cooperative (docs/STORE.md).
//
// Requests and responses speak optional gzip (Content-Encoding /
// Accept-Encoding); when the archive itself stores gzip segments a
// compressed GET streams the stored frame without recompressing.

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"chameleon/internal/analysis"
	"chameleon/internal/cq"
	"chameleon/internal/fault"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
	"chameleon/internal/wave"
	"chameleon/internal/zan"
)

// ServerOptions harden and instrument the HTTP layer.
type ServerOptions struct {
	// MaxBodyBytes caps PUT bodies (after transfer decompression);
	// 0 means the 64 MiB default.
	MaxBodyBytes int64
	// RequestTimeout bounds one request's handling; 0 means 30s.
	RequestTimeout time.Duration
	// Metrics exposes the registry at GET /metrics.
	Metrics bool
	// Reg receives request counters and latency histograms (it may be
	// the same registry the archive reports into).
	Reg *obs.Registry
	// Live tracks in-flight sessions; nil builds a default tracker
	// reporting into Reg (live endpoints are always served).
	Live *Live
	// Mesh, when non-nil, federates this peer: PUT fan-out, GET proxy,
	// scatter-gather list, anti-entropy endpoints.
	Mesh *mesh.Node
	// CQ, when non-nil, serves the continuous-query endpoints and
	// evaluates registered gates on ingest.
	CQ *cq.Engine
	// RateLimit throttles each tenant to this many requests/second at
	// the edge (0 disables). Intra-mesh traffic is exempt.
	RateLimit float64
	// RateBurst is the token-bucket depth (default: RateLimit).
	RateBurst int
}

const (
	defaultMaxBody        = 64 << 20
	defaultRequestTimeout = 30 * time.Second

	// defaultListLimit is the page size GET /runs uses when the client
	// sends no limit; maxListLimit is the server-side cap a client
	// cannot exceed. Intra-mesh scatter reads are uncapped — the edge
	// peer needs complete sets to merge and paginate exactly.
	defaultListLimit = 100
	maxListLimit     = 500
)

type server struct {
	a       *Archive
	opts    ServerOptions
	live    *Live
	node    *mesh.Node
	cq      *cq.Engine
	limiter *rateLimiter

	mRequests, mErrors          *obs.Counter
	mIngestReqs, mQueryReqs     *obs.Counter
	mLiveReqs                   *obs.Counter
	mBytesIn, mBytesOut         *obs.Counter
	mThrottled                  *obs.Counter
	mFanouts, mProxied          *obs.Counter
	hLatency, hIngest, hQueries *obs.Histogram
}

// NewServer builds the archive's HTTP handler: mux, per-request
// timeout, body limits, tenancy, federation, instrumentation.
func NewServer(a *Archive, opts ServerOptions) http.Handler {
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = defaultMaxBody
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = defaultRequestTimeout
	}
	if opts.Live == nil {
		opts.Live = NewLive(LiveOptions{Reg: opts.Reg})
	}
	s := &server{
		a:       a,
		opts:    opts,
		live:    opts.Live,
		node:    opts.Mesh,
		cq:      opts.CQ,
		limiter: newRateLimiter(opts.RateLimit, opts.RateBurst),

		mRequests:   opts.Reg.Counter("chamd_requests"),
		mErrors:     opts.Reg.Counter("chamd_errors"),
		mIngestReqs: opts.Reg.Counter("chamd_ingest_requests"),
		mQueryReqs:  opts.Reg.Counter("chamd_query_requests"),
		mLiveReqs:   opts.Reg.Counter("chamd_live_requests"),
		mBytesIn:    opts.Reg.Counter("chamd_bytes_in"),
		mBytesOut:   opts.Reg.Counter("chamd_bytes_out"),
		mThrottled:  opts.Reg.Counter("chamd_throttled"),
		mFanouts:    opts.Reg.Counter("chamd_mesh_fanouts"),
		mProxied:    opts.Reg.Counter("chamd_mesh_proxied"),
		hLatency:    opts.Reg.Histogram("chamd_latency_ns"),
		hIngest:     opts.Reg.Histogram("chamd_ingest_latency_ns"),
		hQueries:    opts.Reg.Histogram("chamd_query_latency_ns"),
	}

	mux := http.NewServeMux()
	mux.HandleFunc("PUT /runs", s.handlePut)
	mux.HandleFunc("GET /runs", s.handleList)
	mux.HandleFunc("GET /runs/{id}", s.runRead(s.serveRun))
	mux.HandleFunc("GET /runs/{id}/stats", s.runRead(s.serveStats))
	mux.HandleFunc("PUT /runs/{id}/edges", s.handleEdgesPut)
	mux.HandleFunc("GET /runs/{id}/edges", s.runRead(s.serveEdges))
	mux.HandleFunc("GET /runs/{id}/waves", s.runRead(s.serveWaves))
	mux.HandleFunc("GET /runs/{a}/diff/{b}", s.handleDiff)
	mux.HandleFunc("POST /live/sessions/{id}/deltas", s.handleLiveDeltas)
	mux.HandleFunc("GET /live/sessions", s.handleLiveList)
	mux.HandleFunc("GET /live/sessions/{id}", s.handleLiveGet)
	mux.HandleFunc("GET /live/sessions/{id}/watch", s.handleLiveWatch)
	if s.cq != nil {
		mux.HandleFunc("PUT /cq", s.handleCQPut)
		mux.HandleFunc("GET /cq", s.handleCQList)
		mux.HandleFunc("DELETE /cq/{name}", s.handleCQDelete)
		mux.HandleFunc("GET /cq/events", s.handleCQEvents)
		mux.HandleFunc("POST /cq/events", s.handleCQEventPost)
	}
	mux.HandleFunc("GET /mesh/manifest", s.handleMeshManifest)
	mux.HandleFunc("GET /mesh/status", s.handleMeshStatus)
	if s.node != nil {
		mux.HandleFunc("POST /mesh/sweep", s.handleMeshSweep)
	}
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	if opts.Metrics {
		mux.HandleFunc("GET /metrics", s.handleMetrics)
	}

	instrumented := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mRequests.Inc()
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		if code, retry := s.admit(r); code != 0 {
			if retry > 0 {
				cw.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+0.5)))
			}
			s.mThrottled.Inc()
			http.Error(cw, "chamd: tenant rate limit exceeded", code)
		} else {
			mux.ServeHTTP(cw, r)
		}
		s.hLatency.Observe(time.Since(start).Nanoseconds())
		s.mBytesOut.Add(uint64(cw.bytes))
		if cw.status >= 400 {
			s.mErrors.Inc()
		}
	})
	return http.TimeoutHandler(instrumented, opts.RequestTimeout, "chamd: request timed out\n")
}

// forwarded reports whether a request is trusted intra-mesh traffic.
// Under a mesh started with a shared secret (-mesh-secret), a bare
// X-Cham-Mesh header is not enough — the matching key must ride along,
// so external clients cannot claim intra-mesh trust. Without a secret
// (or without a mesh at all) the header is honored cooperatively; see
// docs/STORE.md, "Trust model".
func (s *server) forwarded(r *http.Request) bool {
	if s.node != nil {
		return s.node.Authorized(r)
	}
	return mesh.Forwarded(r)
}

// repair reports whether a request is a trusted anti-entropy pull.
func (s *server) repair(r *http.Request) bool {
	return s.forwarded(r) && mesh.Repair(r)
}

// admit applies the per-tenant rate limit. Intra-mesh traffic and
// probes are exempt; an invalid tenant header is handled later by the
// route handler (tenantOf), not here.
func (s *server) admit(r *http.Request) (code int, retry time.Duration) {
	if s.limiter == nil || s.forwarded(r) {
		return 0, 0
	}
	switch r.URL.Path {
	case "/healthz", "/metrics":
		return 0, 0
	}
	tenant, err := NormalizeTenant(r.Header.Get(mesh.HeaderTenant))
	if err != nil {
		return 0, 0
	}
	if ok, wait := s.limiter.allow(tenant); !ok {
		return http.StatusTooManyRequests, wait
	}
	return 0, 0
}

// tenantOf extracts and validates the request's tenant, writing the
// 400 itself on a bad name.
func (s *server) tenantOf(w http.ResponseWriter, r *http.Request) (string, bool) {
	tenant, err := NormalizeTenant(r.Header.Get(mesh.HeaderTenant))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return "", false
	}
	return tenant, true
}

// countingWriter tracks status and body bytes for instrumentation.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (c *countingWriter) WriteHeader(code int) {
	c.status = code
	c.ResponseWriter.WriteHeader(code)
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

func (s *server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf("chamd: "+format, args...), code)
}

// statusError is an error that fixes its own HTTP status.
type statusError struct {
	code int
	error
}

func failCode(err error) int {
	var se statusError
	switch {
	case errors.As(err, &se):
		return se.code
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrNotFound), errors.Is(err, cq.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, ErrAmbiguous):
		return http.StatusConflict
	}
	return http.StatusBadRequest
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v) //nolint:errcheck — client gone is fine
}

// readBody drains a possibly-gzipped request body under the size cap,
// failing the request itself on error (nil return means handled).
func (s *server) readBody(w http.ResponseWriter, r *http.Request) []byte {
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	defer body.Close()
	var in io.Reader = body
	switch enc := r.Header.Get("Content-Encoding"); enc {
	case "", "identity":
	case "gzip":
		zr, err := gzip.NewReader(body)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "gzip body: %v", err)
			return nil
		}
		defer zr.Close()
		in = zr
	default:
		s.fail(w, http.StatusUnsupportedMediaType, "unsupported Content-Encoding %q", enc)
		return nil
	}
	payload, err := io.ReadAll(in)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.opts.MaxBodyBytes)
			return nil
		}
		s.fail(w, http.StatusBadRequest, "read body: %v", err)
		return nil
	}
	s.mBytesIn.Add(uint64(len(payload)))
	return payload
}

func (s *server) handlePut(w http.ResponseWriter, r *http.Request) {
	s.mIngestReqs.Inc()
	start := time.Now()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	payload := s.readBody(w, r)
	if payload == nil {
		return
	}
	f, err := trace.ReadAny(bytes.NewReader(payload))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "store: ingest: %v", err)
		return
	}
	canon, id, err := Encode(f)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}

	run, created, err := s.putRun(r, tenant, f, canon, id)
	if err != nil {
		if failCode(err) == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "60")
		}
		s.fail(w, failCode(err), "%v", err)
		return
	}
	s.hIngest.Observe(time.Since(start).Nanoseconds())
	s.writeRun(w, run, created)
}

// putRun stores an ingest: locally without a mesh or for a forwarded
// replica, otherwise on the run's owners through replicate. When every
// owner is unreachable this peer keeps the run off-ring as a fallback
// replica (the anti-entropy sweep moves it onto the ring later), so a
// write succeeds while any peer can hold it; it is refused with 429
// only when the owners rejected it (quota) rather than failed it.
func (s *server) putRun(r *http.Request, tenant string, f *trace.File, canon []byte, id string) (Run, bool, error) {
	local := func() (Run, bool, error) {
		run, created, err := s.a.ingest(tenant, f, canon, id)
		// The run's primary owner (or a lone archive) evaluates
		// continuous queries; anti-entropy repairs converge replicas
		// without re-firing gates.
		if err == nil && created && s.cq != nil && !s.repair(r) && (s.node == nil || s.node.IsPrimary(id)) {
			s.cq.Evaluate(tenant, id, f)
		}
		return run, created, err
	}
	if s.node == nil || s.forwarded(r) {
		return local()
	}
	s.mFanouts.Inc()
	var run Run
	var created bool
	var err error
	here := false
	if s.node.IsOwner(id) {
		run, created, err = local()
		if err != nil && !errors.Is(err, ErrQuotaExceeded) {
			return Run{}, false, err
		}
		here = err == nil
	}
	rep := s.replicate(s.node.Owners(id), "/runs", tenant, "application/octet-stream", canon, http.StatusTooManyRequests)
	switch {
	case here:
		return run, created || rep.created, nil
	case rep.stored > 0:
		// Ingest metadata is deterministic, so an owner's unparsable
		// answer is rebuilt locally.
		if json.Unmarshal(rep.answer, &run) != nil || run.ID == "" {
			run = *describe(f, canon, id)
			run.Tenant = tenant
		}
		return run, rep.created, nil
	case rep.failed == 0:
		if err == nil {
			err = rep.err
		}
		return Run{}, false, statusError{http.StatusTooManyRequests, err}
	}
	if run, created, err = local(); err != nil {
		return Run{}, false, fmt.Errorf("replicate %s: %w (owners: %v)", id[:12], err, rep.err)
	}
	return run, created, nil
}

func (s *server) writeRun(w http.ResponseWriter, run Run, created bool) {
	w.Header().Set("ETag", `"`+run.ID+`"`)
	w.Header().Set("Location", "/runs/"+run.ID)
	w.Header().Set("Content-Type", "application/json")
	if created {
		w.WriteHeader(http.StatusCreated)
	}
	json.NewEncoder(w).Encode(run) //nolint:errcheck — client gone is fine
}

// replicas tallies the answers to one write replicated across peers.
type replicas struct {
	stored  int    // peers that took the write (2xx)
	created bool   // some peer answered 201
	answer  []byte // the first stored answer's body
	failed  int    // peers unreachable or answering an unexpected status
	err     error  // the last failure, else the last rejection
}

// replicate is the mesh's one writer: it PUTs body to every target but
// self, in order, with the fanout header. reject is the status a target
// answers when it cannot hold the write for a reason of its own (quota
// for runs, no such run for sidecars); it is neither stored nor failed.
func (s *server) replicate(targets []string, path, tenant, contentType string, body []byte, reject int) replicas {
	var out replicas
	hdr := http.Header{"Content-Type": {contentType}}
	for _, peer := range targets {
		if peer == s.node.Self() {
			continue
		}
		resp, err := s.node.Do(http.MethodPut, peer, path, tenant, mesh.ForwardFanout, hdr, bytes.NewReader(body))
		if err != nil {
			out.failed++
			out.err = err
			continue
		}
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		switch code := resp.StatusCode; {
		case code == http.StatusOK || code == http.StatusCreated:
			out.stored++
			out.created = out.created || code == http.StatusCreated
			if out.answer == nil {
				out.answer = msg
			}
		case code == reject:
			if out.failed == 0 {
				out.err = fmt.Errorf("%s: %s", peer, strings.TrimSpace(string(msg)))
			}
		default:
			out.failed++
			out.err = fmt.Errorf("%s: %s: %s", peer, resp.Status, strings.TrimSpace(string(msg)))
		}
	}
	return out
}

// runRead registers a run-scoped GET: it validates the tenant, counts
// the query, and has serve answer from the local archive. serve returns
// an error, without writing a response, when it cannot answer; a
// not-found is then relayed to the mesh, so every run-scoped GET is
// federated by default.
func (s *server) runRead(serve func(w http.ResponseWriter, r *http.Request, tv TenantView, id string) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.mQueryReqs.Inc()
		start := time.Now()
		tenant, ok := s.tenantOf(w, r)
		if !ok {
			return
		}
		id := r.PathValue("id")
		err := serve(w, r, s.a.Tenant(tenant), id)
		switch {
		case err == nil:
			s.hQueries.Observe(time.Since(start).Nanoseconds())
		case !errors.Is(err, ErrNotFound) || !s.relay(w, r, tenant, id):
			s.fail(w, failCode(err), "%v", err)
		}
	}
}

// The request headers a relay forwards, so the peer answers as this one
// would, and the response headers it passes back.
var relayReqHeaders = []string{"Accept", "Accept-Encoding", "If-None-Match"}
var relayRespHeaders = []string{"Content-Type", "Content-Encoding", "ETag", "Content-Length",
	"X-Raw-Bytes", "X-Stored-Bytes", "Location"}

// relay answers a run-scoped GET this peer cannot serve with the mesh's
// answer (mesh.Node.Read), reporting whether there was one. Forwarded
// requests are never relayed again.
func (s *server) relay(w http.ResponseWriter, r *http.Request, tenant, id string) bool {
	if s.node == nil || s.forwarded(r) {
		return false
	}
	hdr := http.Header{}
	for _, h := range relayReqHeaders {
		if v := r.Header.Get(h); v != "" {
			hdr.Set(h, v)
		}
	}
	resp, err := s.node.Read(id, r.URL.RequestURI(), tenant, mesh.ForwardFanout, hdr)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	for _, h := range relayRespHeaders {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck — client gone is fine
	s.mProxied.Inc()
	return true
}

func (s *server) serveRun(w http.ResponseWriter, r *http.Request, tv TenantView, id string) error {
	run, err := tv.Resolve(id)
	if err != nil {
		return err
	}
	if notModified(w, r, `"`+run.ID+`"`) {
		return nil
	}
	if r.URL.Query().Get("format") == "json" || strings.Contains(r.Header.Get("Accept"), "application/json") {
		f, _, err := tv.Get(run.ID)
		if err != nil {
			return statusError{http.StatusInternalServerError, err}
		}
		w.Header().Set("Content-Type", "application/json")
		if err := f.Write(w); err != nil {
			s.mErrors.Inc()
		}
		return nil
	}
	var payload []byte
	if strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") && run.Gzip {
		// The segment is already a gzip frame; stream it as the
		// transfer encoding without recompressing.
		if payload, _, err = tv.StoredPayload(run.ID); err == nil {
			w.Header().Set("Content-Encoding", "gzip")
		}
	} else {
		payload, _, err = tv.Payload(run.ID)
	}
	if err != nil {
		return statusError{http.StatusInternalServerError, err}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Raw-Bytes", strconv.FormatInt(run.RawBytes, 10))
	w.Header().Set("X-Stored-Bytes", strconv.FormatInt(run.StoredBytes, 10))
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload) //nolint:errcheck — client gone is fine
	return nil
}

// ListResponse is the JSON shape of GET /runs. Next, when present, is
// the offset of the page after this one; its absence means the listing
// is exhausted.
type ListResponse struct {
	Total  int   `json:"total"`
	Offset int   `json:"offset"`
	Next   int   `json:"next,omitempty"`
	Runs   []Run `json:"runs"`
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mQueryReqs.Inc()
	start := time.Now()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	q := Query{Benchmark: r.URL.Query().Get("benchmark"), SigSet: r.URL.Query().Get("sigset")}
	var err error
	if v := r.URL.Query().Get("p"); v != "" {
		if q.P, err = strconv.Atoi(v); err != nil {
			s.fail(w, http.StatusBadRequest, "p: %v", err)
			return
		}
	}
	if v := r.URL.Query().Get("sig"); v != "" {
		// Signatures print as hex (chamdump -sites); accept 0x-prefixed
		// hex, bare hex, or decimal.
		if q.Sig, err = parseSig(v); err != nil {
			s.fail(w, http.StatusBadRequest, "sig: %v", err)
			return
		}
	}
	if v := r.URL.Query().Get("limit"); v != "" {
		if q.Limit, err = strconv.Atoi(v); err != nil || q.Limit < 0 {
			s.fail(w, http.StatusBadRequest, "limit: %q", v)
			return
		}
	}
	if v := r.URL.Query().Get("offset"); v != "" {
		if q.Offset, err = strconv.Atoi(v); err != nil || q.Offset < 0 {
			s.fail(w, http.StatusBadRequest, "offset: %q", v)
			return
		}
	}

	fwd := s.forwarded(r)
	if !fwd {
		// Server-side page bounds: an unspecified limit gets the
		// documented default, an oversized one is clamped.
		if q.Limit == 0 || q.Limit > maxListLimit {
			if q.Limit > maxListLimit {
				q.Limit = maxListLimit
			} else {
				q.Limit = defaultListLimit
			}
		}
	}

	var runs []Run
	var total int
	if s.node != nil && !fwd {
		runs, total = s.scatterList(tenant, q, r.URL.Query())
	} else {
		runs, total = s.a.list(tenant, q)
	}

	resp := ListResponse{Total: total, Offset: q.Offset, Runs: runs}
	if resp.Runs == nil {
		resp.Runs = []Run{}
	}
	if next := q.Offset + len(resp.Runs); len(resp.Runs) > 0 && next < total {
		resp.Next = next
	}
	writeJSON(w, resp)
	s.hQueries.Observe(time.Since(start).Nanoseconds())
}

// scatterList merges the whole fleet's view of a tenant's runs:
// local set plus every peer's (forwarded, uncapped) listing, deduped
// by content address, newest first, then paginated exactly like a
// single-archive listing. An unreachable peer degrades the listing to
// the reachable subset rather than failing it — at R>=2 every run is
// still visible through a surviving owner.
func (s *server) scatterList(tenant string, q Query, params url.Values) ([]Run, int) {
	full := q
	full.Limit, full.Offset = 0, 0
	local, _ := s.a.list(tenant, full)
	byID := make(map[string]Run, len(local))
	for _, r := range local {
		byID[r.ID] = r
	}

	filter := url.Values{}
	for _, k := range []string{"benchmark", "p", "sig", "sigset"} {
		if v := params.Get(k); v != "" {
			filter.Set(k, v)
		}
	}
	path := "/runs"
	if len(filter) > 0 {
		path += "?" + filter.Encode()
	}
	for _, peer := range s.node.Others() {
		body, err := s.node.Get(peer, path, tenant, mesh.ForwardFanout)
		var lr ListResponse
		if err != nil || json.Unmarshal(body, &lr) != nil {
			continue
		}
		for _, r := range lr.Runs {
			if _, seen := byID[r.ID]; !seen {
				byID[r.ID] = r
			}
		}
	}

	merged := make([]Run, 0, len(byID))
	for _, r := range byID {
		merged = append(merged, r)
	}
	sort.Slice(merged, func(i, j int) bool {
		if !merged[i].Ingested.Equal(merged[j].Ingested) {
			return merged[i].Ingested.After(merged[j].Ingested)
		}
		return merged[i].ID < merged[j].ID
	})
	total := len(merged)
	if q.Offset > 0 {
		if q.Offset >= len(merged) {
			return nil, total
		}
		merged = merged[q.Offset:]
	}
	if q.Limit > 0 && len(merged) > q.Limit {
		merged = merged[:q.Limit]
	}
	return merged, total
}

func parseSig(v string) (uint64, error) {
	if strings.HasPrefix(v, "0x") || strings.HasPrefix(v, "0X") {
		return strconv.ParseUint(v[2:], 16, 64)
	}
	if n, err := strconv.ParseUint(v, 10, 64); err == nil {
		return n, nil
	}
	return strconv.ParseUint(v, 16, 64)
}

// StatsResponse is the JSON shape of GET /runs/{id}/stats: the
// compressed-domain analysis report, computed by walking the stored RSD
// tree once (internal/zan) — the archive never expands the trace to
// serve it.
type StatsResponse struct {
	ID     string      `json:"id"`
	Report *zan.Report `json:"report"`
}

// notModified handles If-None-Match against a computed ETag, setting
// the header either way and reporting whether a 304 was written.
func notModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

func (s *server) serveStats(w http.ResponseWriter, r *http.Request, tv TenantView, id string) error {
	run, err := tv.Resolve(id)
	if err != nil {
		return err
	}
	// The report is a pure function of the immutable payload, so the
	// content address is its ETag.
	if notModified(w, r, `"stats-`+run.ID+`"`) {
		return nil
	}
	f, _, err := tv.Get(run.ID)
	if err != nil {
		return err
	}
	rep, err := zan.Analyze(f, zan.Options{})
	if err != nil {
		return statusError{http.StatusInternalServerError, err}
	}
	writeJSON(w, StatsResponse{ID: run.ID, Report: rep})
	return nil
}

// edgesResult is the JSON answer to PUT /runs/{id}/edges.
type edgesResult struct {
	ID    string `json:"id"`
	Edges int    `json:"edges"`
}

// handleEdgesPut attaches a sidecar. Through the mesh it goes to every
// peer that may hold the run (replicate over mesh.Node.ReadOrder: its
// owners, plus any off-ring fallback replica), so a push through any
// peer succeeds and the sidecar survives an owner's death at R>=2.
// Owners that lack the run converge via the anti-entropy sweep, which
// replicates sidecars alongside runs.
func (s *server) handleEdgesPut(w http.ResponseWriter, r *http.Request) {
	s.mIngestReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	payload := s.readBody(w, r)
	if payload == nil {
		return
	}
	id := r.PathValue("id")
	tv := s.a.Tenant(tenant)
	if s.node == nil || s.forwarded(r) {
		n, run, err := tv.PutEdges(id, payload)
		if err != nil {
			s.fail(w, failCode(err), "%v", err)
			return
		}
		writeJSON(w, edgesResult{ID: run.ID, Edges: n})
		return
	}
	s.mFanouts.Inc()
	// Validate once at the edge so a malformed sidecar fails 400
	// regardless of where the run lives.
	if _, err := obs.ReadEdges(bytes.NewReader(payload)); err != nil {
		s.fail(w, http.StatusBadRequest, "store: edges: %v", err)
		return
	}
	// Local first: a hit resolves a prefix reference to the full
	// content address, so the ring walk targets the true owners.
	n, run, err := tv.PutEdges(id, payload)
	switch {
	case err == nil:
		id = run.ID
	case !errors.Is(err, ErrNotFound):
		s.fail(w, failCode(err), "%v", err)
		return
	}
	res := edgesResult{ID: run.ID, Edges: n}
	rep := s.replicate(s.node.ReadOrder(id), "/runs/"+id+"/edges", tenant, "application/x-ndjson", payload, http.StatusNotFound)
	switch {
	case err == nil:
	case rep.stored > 0:
		json.Unmarshal(rep.answer, &res) //nolint:errcheck — an empty result is still a success
	case rep.failed > 0:
		s.fail(w, http.StatusBadGateway, "edges %s: no peer stored the sidecar: %v", id, rep.err)
		return
	default:
		s.fail(w, http.StatusNotFound, "store: run %q not found", id)
		return
	}
	writeJSON(w, res)
}

func (s *server) serveEdges(w http.ResponseWriter, r *http.Request, tv TenantView, id string) error {
	payload, _, err := tv.EdgesPayload(id)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
	w.Write(payload) //nolint:errcheck — client gone is fine
	return nil
}

// WavesResponse is the JSON shape of GET /runs/{id}/waves: the idle-wave
// detector report computed server-side over the run's edge sidecar.
type WavesResponse struct {
	ID     string       `json:"id"`
	Report *wave.Report `json:"report"`
}

func (s *server) serveWaves(w http.ResponseWriter, r *http.Request, tv TenantView, id string) error {
	cols := 0
	if v := r.URL.Query().Get("cols"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return fmt.Errorf("bad cols %q: want a non-negative integer", v)
		}
		cols = n
	}
	sidecar, run, err := tv.EdgesPayload(id)
	if err != nil {
		return err
	}
	// Unlike the trace payload the sidecar is replaceable, so the ETag
	// must cover its bytes (plus the detector's cols knob), not just
	// the run identity.
	sum := sha256.New()
	fmt.Fprintf(sum, "%s|%d|", run.ID, cols)
	sum.Write(sidecar)
	if notModified(w, r, `"waves-`+hex.EncodeToString(sum.Sum(nil)[:16])+`"`) {
		return nil
	}
	rep, _, err := tv.Waves(run.ID, cols)
	if err != nil {
		return err
	}
	writeJSON(w, WavesResponse{ID: run.ID, Report: rep})
	return nil
}

// DiffResponse is the JSON shape of GET /runs/{a}/diff/{b}: the
// chamstat per-site divergence verdict computed server-side.
type DiffResponse struct {
	A              string           `json:"a"`
	B              string           `json:"b"`
	Equivalent     bool             `json:"equivalent"`
	Reason         string           `json:"reason,omitempty"`
	TolerateRanks  []int            `json:"tolerate_ranks,omitempty"`
	MissingInA     int              `json:"missing_in_a,omitempty"`
	MissingInB     int              `json:"missing_in_b,omitempty"`
	EventDeltas    map[string]int64 `json:"event_deltas,omitempty"`
	SiteCountDelta map[string]int64 `json:"site_count_deltas,omitempty"`
}

func (s *server) handleDiff(w http.ResponseWriter, r *http.Request) {
	s.mQueryReqs.Inc()
	start := time.Now()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	// Resolve each side wherever it lives: locally first, then its
	// owner peers. Two federated runs need not be co-located on any
	// single peer, so a strictly-local lookup would 404 runs the mesh
	// holds. Forwarded requests stay local (loop guard).
	node := s.node
	if s.forwarded(r) {
		node = nil
	}
	lookup := FedLookup(s.a, node)
	fa, idA, err := lookup(tenant, r.PathValue("a"))
	if err != nil {
		s.fail(w, failCode(err), "%v", err)
		return
	}
	fb, idB, err := lookup(tenant, r.PathValue("b"))
	if err != nil {
		s.fail(w, failCode(err), "%v", err)
		return
	}

	var tol []int
	switch spec := r.URL.Query().Get("tolerate"); spec {
	case "":
	case "auto":
		set := map[int]bool{}
		for _, rk := range fa.Retired {
			set[rk] = true
		}
		for _, rk := range fb.Retired {
			set[rk] = true
		}
		for rk := range set {
			tol = append(tol, rk)
		}
		sort.Ints(tol)
	default:
		rs, err := fault.ParseRankSet(spec)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "tolerate: %v", err)
			return
		}
		p := fa.P
		if fb.P > p {
			p = fb.P
		}
		tol = rs.Ranks(p)
	}

	d := analysis.CompareWith(fa, fb, analysis.CompareOpts{TolerateRanks: tol})
	resp := DiffResponse{
		A:             idA,
		B:             idB,
		Equivalent:    d.Equivalent(),
		TolerateRanks: tol,
		MissingInA:    len(d.MissingInA),
		MissingInB:    len(d.MissingInB),
	}
	if !d.Equivalent() {
		resp.Reason = d.Reason()
	}
	if len(d.EventDeltas) > 0 {
		resp.EventDeltas = map[string]int64{}
		for rank, delta := range d.EventDeltas {
			resp.EventDeltas[strconv.Itoa(rank)] = delta
		}
	}
	if len(d.SiteCountDeltas) > 0 {
		resp.SiteCountDelta = map[string]int64{}
		for site, delta := range d.SiteCountDeltas {
			resp.SiteCountDelta[fmt.Sprintf("%#x", site)] = delta
		}
	}
	writeJSON(w, resp)
	s.hQueries.Observe(time.Since(start).Nanoseconds())
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.opts.Reg.Snapshot()
	if strings.Contains(r.Header.Get("Accept"), "application/json") {
		w.Header().Set("Content-Type", "application/json")
		snap.WriteJSON(w) //nolint:errcheck
		return
	}
	w.Header().Set("Content-Type", obs.PrometheusContentType)
	snap.WritePrometheus(w) //nolint:errcheck
}

// --- live telemetry endpoints ---

func (s *server) handleLiveDeltas(w http.ResponseWriter, r *http.Request) {
	s.mLiveReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	id := r.PathValue("id")
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	defer body.Close()
	var batch []obs.Delta
	if err := json.NewDecoder(body).Decode(&batch); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.fail(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.opts.MaxBodyBytes)
			return
		}
		s.fail(w, http.StatusBadRequest, "delta batch: %v", err)
		return
	}
	ackSeq, err := s.live.ApplyT(tenant, id, batch)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, obs.Ack{AckSeq: ackSeq})
}

func (s *server) handleLiveList(w http.ResponseWriter, r *http.Request) {
	s.mLiveReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	resp := struct {
		Sessions []LiveSummary `json:"sessions"`
	}{Sessions: s.live.ListT(tenant)}
	if resp.Sessions == nil {
		resp.Sessions = []LiveSummary{}
	}
	writeJSON(w, resp)
}

func (s *server) handleLiveGet(w http.ResponseWriter, r *http.Request) {
	s.mLiveReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	withMetrics := r.URL.Query().Get("metrics") == "1"
	v, err := s.live.ViewT(tenant, r.PathValue("id"), withMetrics)
	if err != nil {
		s.fail(w, failCode(err), "%v", err)
		return
	}
	writeJSON(w, v)
}

func (s *server) handleLiveWatch(w http.ResponseWriter, r *http.Request) {
	s.mLiveReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	var after uint64
	if v := r.URL.Query().Get("version"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "version: %q", v)
			return
		}
		after = n
	}
	wait, ok := s.longPollWait(w, r)
	if !ok {
		return
	}
	v, err := s.live.WatchT(tenant, r.PathValue("id"), after, wait)
	if err != nil {
		s.fail(w, failCode(err), "%v", err)
		return
	}
	writeJSON(w, v)
}

// longPollWait resolves the ?timeout= parameter against the server's
// request timeout (the whole handler chain sits under
// http.TimeoutHandler, so the poll must resolve inside it).
func (s *server) longPollWait(w http.ResponseWriter, r *http.Request) (time.Duration, bool) {
	maxWait := s.opts.RequestTimeout * 3 / 4
	wait := maxWait
	if v := r.URL.Query().Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			s.fail(w, http.StatusBadRequest, "timeout: %q", v)
			return 0, false
		}
		if d < wait {
			wait = d
		}
	}
	return wait, true
}

// --- continuous-query endpoints ---

func (s *server) handleCQPut(w http.ResponseWriter, r *http.Request) {
	s.mQueryReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	payload := s.readBody(w, r)
	if payload == nil {
		return
	}
	var spec cq.Spec
	if err := json.Unmarshal(payload, &spec); err != nil {
		s.fail(w, http.StatusBadRequest, "cq spec: %v", err)
		return
	}
	spec.Tenant = tenant
	stored, err := s.cq.Register(spec)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	// Registrations fan out to the whole fleet (every peer can be the
	// primary owner of a future ingest); anti-entropy re-syncs any peer
	// that was down. Best-effort by design: concurrent, on the
	// short-timeout broadcast client, so a partitioned peer cannot
	// stall the registration for the full request budget.
	if s.node != nil && !s.forwarded(r) {
		body, _ := json.Marshal(stored)
		s.node.Broadcast(http.MethodPut, "/cq", tenant, "application/json", body)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusCreated)
	json.NewEncoder(w).Encode(stored) //nolint:errcheck
}

func (s *server) handleCQList(w http.ResponseWriter, r *http.Request) {
	s.mQueryReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	var specs []cq.Spec
	if r.URL.Query().Get("all") == "1" && s.forwarded(r) {
		// Anti-entropy sync path: a sweeping peer needs every tenant's
		// registrations; external clients only ever see their own.
		specs = s.cq.All()
	} else {
		specs = s.cq.List(tenant)
	}
	if specs == nil {
		specs = []cq.Spec{}
	}
	writeJSON(w, specs)
}

func (s *server) handleCQDelete(w http.ResponseWriter, r *http.Request) {
	s.mQueryReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	name := r.PathValue("name")
	if err := s.cq.Delete(tenant, name); err != nil {
		s.fail(w, failCode(err), "%v", err)
		return
	}
	if s.node != nil && !s.forwarded(r) {
		// Peers that miss the broadcast converge anyway: Delete leaves a
		// tombstone whose stamp out-ranks the live spec, and the
		// anti-entropy merge propagates it instead of resurrecting.
		s.node.Broadcast(http.MethodDelete, "/cq/"+name, tenant, "", nil)
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleCQEvents(w http.ResponseWriter, r *http.Request) {
	s.mQueryReqs.Inc()
	tenant, ok := s.tenantOf(w, r)
	if !ok {
		return
	}
	var view cq.FeedView
	if v := r.URL.Query().Get("version"); v != "" {
		after, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.fail(w, http.StatusBadRequest, "version: %q", v)
			return
		}
		wait, ok := s.longPollWait(w, r)
		if !ok {
			return
		}
		view = s.cq.Watch(tenant, after, wait)
	} else {
		view = s.cq.Feed(tenant)
	}
	writeJSON(w, view)
}

// handleCQEventPost receives a peer's event broadcast. Forwarded-only
// (key-checked under -mesh-secret): external clients cannot forge feed
// entries on a secured mesh; without a secret the gate is cooperative
// (docs/STORE.md, "Trust model").
func (s *server) handleCQEventPost(w http.ResponseWriter, r *http.Request) {
	if !s.forwarded(r) {
		s.fail(w, http.StatusForbidden, "cq event broadcast is mesh-internal")
		return
	}
	payload := s.readBody(w, r)
	if payload == nil {
		return
	}
	var ev cq.Event
	if err := json.Unmarshal(payload, &ev); err != nil {
		s.fail(w, http.StatusBadRequest, "cq event: %v", err)
		return
	}
	s.cq.Append(ev)
	w.WriteHeader(http.StatusNoContent)
}

// --- mesh endpoints ---

func (s *server) handleMeshManifest(w http.ResponseWriter, r *http.Request) {
	entries := s.a.MeshTarget().Entries()
	if s.node != nil && s.node.Secured() && !s.forwarded(r) {
		// On a secured mesh the full cross-tenant manifest is reserved
		// for key-carrying peers; anyone else sees only their own
		// tenant's holdings.
		tenant, ok := s.tenantOf(w, r)
		if !ok {
			return
		}
		scoped := entries[:0]
		for _, e := range entries {
			if e.Tenant == tenant {
				scoped = append(scoped, e)
			}
		}
		entries = scoped
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Tenant != entries[j].Tenant {
			return entries[i].Tenant < entries[j].Tenant
		}
		return entries[i].ID < entries[j].ID
	})
	writeJSON(w, entries)
}

// MeshStatus is the JSON shape of GET /mesh/status.
type MeshStatus struct {
	Self     string           `json:"self,omitempty"`
	Peers    []string         `json:"peers,omitempty"`
	Replicas int              `json:"replicas,omitempty"`
	Runs     int              `json:"runs"`
	Tenants  map[string]int64 `json:"tenants,omitempty"` // tenant -> used raw bytes
}

func (s *server) handleMeshStatus(w http.ResponseWriter, r *http.Request) {
	st := MeshStatus{Runs: s.a.Len(), Tenants: map[string]int64{}}
	for _, t := range s.a.Tenants() {
		st.Tenants[t] = s.a.Tenant(t).Used()
	}
	if s.node != nil {
		st.Self = s.node.Self()
		st.Peers = s.node.Peers()
		st.Replicas = s.node.Replicas()
	}
	writeJSON(w, st)
}

func (s *server) handleMeshSweep(w http.ResponseWriter, r *http.Request) {
	rep, err := s.node.Sweep(s.a.MeshTarget(), s.cq)
	out := struct {
		mesh.SweepReport
		Error string `json:"error,omitempty"`
	}{SweepReport: rep}
	if err != nil {
		out.Error = err.Error()
	}
	writeJSON(w, out)
}
