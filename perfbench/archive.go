package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"chameleon"
	"chameleon/internal/analysis"
	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/store"
	"chameleon/internal/trace"
	"chameleon/internal/wave"
	"chameleon/internal/zan"
)

// archiveSize sizes archive-mesh.
type archiveSize struct {
	class    string
	p        int
	bases    []string        // benchmarks traced at set-up
	edges    map[string]bool // bases whose runs carry a causal edge sidecar
	preload  int             // runs ingested before the timed phase
	sidecars int             // preloaded runs of an edges base that get the sidecar
	rate     float64         // offered ops/s of the open loop
	diffPool int             // diff pairs are drawn from the first diffPool preloaded runs
}

var archiveSizes = struct{ full, tiny archiveSize }{
	full: archiveSize{
		class: "D", p: 64,
		bases:   []string{"BT", "LU", "SP", "CG", "POP", "S3D", "EMF"},
		edges:   map[string]bool{"S3D": true},
		preload: 600, sidecars: 16, rate: 45, diffPool: 40,
	},
	tiny: archiveSize{
		class: "A", p: 8,
		bases:   []string{"CG", "POP", "S3D"},
		edges:   map[string]bool{"CG": true, "POP": true, "S3D": true},
		preload: 24, sidecars: 6, rate: 40, diffPool: 12,
	},
}

// The op mix, by share of operations.
var opMix = []struct {
	route string
	share float64
}{
	{"put", 0.20}, {"edges_put", 0.05}, {"get", 0.30}, {"stats", 0.20},
	{"diff", 0.10}, {"list", 0.10}, {"waves", 0.05},
}

// cycleLen is the length of the repeating op schedule; every share in
// opMix is a whole number of its slots.
const cycleLen = 20

// opCycle is the open loop's repeating schedule: each route's slots are
// spread evenly over the cycle, and routes are offset from one another,
// so the heavy sidecar operations never bunch up. A fixed order keeps
// the queueing the same from run to run; the seed picks the targets.
func opCycle() []string {
	type slot struct {
		pos   float64
		route string
	}
	var slots []slot
	for i, o := range opMix {
		c := int(o.share*cycleLen + 0.5)
		for k := 0; k < c; k++ {
			pos := (float64(k) + (float64(i)+0.5)/float64(len(opMix))) * cycleLen / float64(c)
			slots = append(slots, slot{pos, o.route})
		}
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	out := make([]string, len(slots))
	for i, s := range slots {
		out[i] = s.route
	}
	return out
}

// archiveInputs are the set-up's generated inputs: base traces and the
// edge sidecars of the bases that carry one.
type archiveInputs struct {
	files []*trace.File
	edges [][]byte // nil when the base carries no sidecar
}

// labelled encodes base i under a fresh label: the benchmark name gets
// a suffix, so the canonical bytes (and content address) are new.
func (in *archiveInputs) labelled(i int, label string) ([]byte, string, error) {
	f := *in.files[i]
	f.Benchmark = in.files[i].Benchmark + "." + label
	return store.Encode(&f)
}

func genArchiveInputs(sz archiveSize, seed uint64) (*archiveInputs, error) {
	in := &archiveInputs{}
	model := seededModel(seed)
	for _, name := range sz.bases {
		cfg := &chameleon.Config{Model: model}
		var ob *chameleon.Observer
		if sz.edges[name] {
			ob = chameleon.NewObserver(chameleon.ObsOptions{CausalRanks: sz.p})
			cfg.Obs = ob
		}
		out, err := chameleon.RunBenchmark(name, sz.class, sz.p, chameleon.TracerChameleon, cfg)
		if err != nil {
			return nil, fmt.Errorf("trace %s: %w", name, err)
		}
		in.files = append(in.files, out.Trace)
		var sidecar []byte
		if ob != nil {
			var buf bytes.Buffer
			if err := ob.Causal.WriteEdges(&buf); err != nil {
				return nil, err
			}
			sidecar = buf.Bytes()
		}
		in.edges = append(in.edges, sidecar)
	}
	return in, nil
}

// routeOf names the route of a chamd request.
func routeOf(r *http.Request) string {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case len(parts) == 1 && parts[0] == "runs":
		if r.Method == http.MethodPut {
			return "put"
		}
		return "list"
	case len(parts) == 2 && parts[0] == "runs":
		return "get"
	case len(parts) == 3 && parts[2] == "stats":
		return "stats"
	case len(parts) == 3 && parts[2] == "waves":
		return "waves"
	case len(parts) == 3 && parts[2] == "edges":
		if r.Method == http.MethodPut {
			return "edges_put"
		}
		return "edges_get"
	case len(parts) == 4 && parts[2] == "diff":
		return "diff"
	}
	return "other"
}

// handlerTimes records time inside a peer's store.NewServer handler,
// per route, when enabled.
type handlerTimes struct {
	on  atomic.Bool
	mu  sync.Mutex
	per map[string][]float64 // route -> ms
}

func (h *handlerTimes) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !h.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		ms := float64(time.Since(start).Nanoseconds()) / 1e6
		route := routeOf(r)
		h.mu.Lock()
		h.per[route] = append(h.per[route], ms)
		h.mu.Unlock()
	})
}

// peer is one in-process chamd.
type peer struct {
	url   string
	a     *store.Archive
	srv   *http.Server
	times *handlerTimes
	done  chan struct{}
}

// meshRig is the 3-peer R=2 mesh with its preloaded archive.
type meshRig struct {
	dir     string // the peers' archives; removed by close
	peers   []*peer
	byURL   map[string]*peer
	in      *archiveInputs
	preload []preloaded
}

// preloaded identifies a run ingested at set-up.
type preloaded struct {
	id    string
	base  int
	label string
	edges bool // carries its base's edge sidecar
}

func (m *meshRig) close() {
	for _, p := range m.peers {
		p.srv.Close()
		<-p.done
		p.a.Close()
	}
	os.RemoveAll(m.dir)
}

// startMesh starts n chamd peers on loopback listeners, federated with
// R=2 and each running the CQ engine, as chamd -peers does.
func startMesh(dir string, n int) (*meshRig, error) {
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	m := &meshRig{dir: dir, byURL: map[string]*peer{}}
	for i, ln := range lns {
		p, err := startPeer(filepath.Join(dir, fmt.Sprintf("peer%d", i)), urls[i], urls, ln)
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			m.close()
			return nil, err
		}
		m.peers = append(m.peers, p)
		m.byURL[p.url] = p
	}
	return m, nil
}

func startPeer(dir, self string, peers []string, ln net.Listener) (*peer, error) {
	a, err := store.Open(dir, store.Options{})
	if err != nil {
		return nil, err
	}
	node, err := mesh.NewNode(mesh.Options{Self: self, Peers: peers, Replicas: 2})
	if err != nil {
		return nil, err
	}
	eng, err := cq.New(cq.Options{Lookup: store.FedLookup(a, node), Origin: self,
		OnEvent: store.BroadcastCQEvents(node)})
	if err != nil {
		return nil, err
	}
	p := &peer{url: self, a: a, times: &handlerTimes{per: map[string][]float64{}}, done: make(chan struct{})}
	p.srv = &http.Server{Handler: p.times.wrap(store.NewServer(a, store.ServerOptions{Mesh: node, CQ: eng}))}
	go func() {
		defer close(p.done)
		p.srv.Serve(ln) //nolint:errcheck — returns ErrServerClosed on close
	}()
	return p, nil
}

// preloadRuns ingests sz.preload labelled runs straight into their
// owners' archives (placement as the mesh computes it), with the edge
// sidecar where the base carries one.
func (m *meshRig) preloadRuns(sz archiveSize, rng *rand.Rand) error {
	node, err := mesh.NewNode(mesh.Options{Self: m.peers[0].url, Peers: peerURLs(m), Replicas: 2})
	if err != nil {
		return err
	}
	withEdges := 0
	for i := 0; i < sz.preload; i++ {
		base := rng.IntN(len(m.in.files))
		label := "p" + strconv.Itoa(i)
		payload, id, err := m.in.labelled(base, label)
		if err != nil {
			return err
		}
		for _, owner := range node.Owners(id) {
			a := m.byURL[owner].a
			if _, _, err := a.IngestBytes(payload); err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			if side := m.in.edges[base]; side != nil && withEdges < sz.sidecars {
				if _, _, err := a.PutEdges(id, side); err != nil {
					return fmt.Errorf("preload edges: %w", err)
				}
			}
		}
		p := preloaded{id: id, base: base, label: label}
		if m.in.edges[base] != nil && withEdges < sz.sidecars {
			p.edges = true
			withEdges++
		}
		m.preload = append(m.preload, p)
	}
	return nil
}

func peerURLs(m *meshRig) []string {
	out := make([]string, len(m.peers))
	for i, p := range m.peers {
		out[i] = p.url
	}
	return out
}

// request is one scheduled operation of the open loop.
type request struct {
	route   string
	due     time.Duration // offset from the phase start
	method  string
	path    string
	body    []byte
	wantID  string // put: expected content address
	edges   int    // edges_put: expected edge count
	a, b    int    // indexes into preload (stats/diff/waves/get)
	lag     time.Duration
	latency time.Duration
	status  int
	resp    []byte
	err     error
}

// plan draws the phase's operations from the seed.
func (m *meshRig) plan(sz archiveSize, rng *rand.Rand, dur time.Duration, putSeq *int) ([]*request, error) {
	n := int(sz.rate * dur.Seconds())
	withEdges := []int{}
	for i, p := range m.preload {
		if p.edges {
			withEdges = append(withEdges, i)
		}
	}
	if len(withEdges) == 0 {
		return nil, fmt.Errorf("no preloaded run carries edges")
	}
	cycle := opCycle()
	reqs := make([]*request, 0, n)
	for i := 0; i < n; i++ {
		r := &request{due: time.Duration(float64(i) / sz.rate * float64(time.Second)), route: cycle[i%len(cycle)]}
		switch r.route {
		case "put":
			base := rng.IntN(len(m.in.files))
			payload, id, err := m.in.labelled(base, "w"+strconv.Itoa(*putSeq))
			if err != nil {
				return nil, err
			}
			*putSeq++
			r.method, r.path, r.body, r.wantID = http.MethodPut, "/runs", payload, id
		case "edges_put":
			r.a = withEdges[rng.IntN(len(withEdges))]
			p := m.preload[r.a]
			r.method, r.path, r.body = http.MethodPut, "/runs/"+p.id+"/edges", m.in.edges[p.base]
			r.edges = bytes.Count(r.body, []byte("\n"))
		case "get":
			r.a = rng.IntN(len(m.preload))
			r.method, r.path = http.MethodGet, "/runs/"+m.preload[r.a].id
		case "stats":
			r.a = rng.IntN(len(m.preload))
			r.method, r.path = http.MethodGet, "/runs/"+m.preload[r.a].id+"/stats"
		case "diff":
			pool := min(sz.diffPool, len(m.preload))
			r.a, r.b = rng.IntN(pool), rng.IntN(pool)
			r.method, r.path = http.MethodGet, "/runs/"+m.preload[r.a].id+"/diff/"+m.preload[r.b].id
		case "list":
			r.method, r.path = http.MethodGet, "/runs?limit=50"
		case "waves":
			r.a = withEdges[rng.IntN(len(withEdges))]
			r.method, r.path = http.MethodGet, "/runs/"+m.preload[r.a].id+"/waves"
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

// openLoop issues reqs on schedule from two workers (so at most two
// connections). A request is timed from when it was due; lag is how
// late it was sent. Requests still unsent at twice the window (the
// system fell behind the offered rate) are dropped and fail.
func openLoop(base string, reqs []*request, window time.Duration) time.Duration {
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := reqs[i]
				if wait := r.due - time.Since(start); wait > 0 {
					time.Sleep(wait)
				}
				r.lag = time.Since(start) - r.due
				if time.Since(start) > 2*window {
					r.err = errDropped
					r.latency = r.lag
					continue
				}
				r.status, r.resp, r.err = do(client, r.method, base+r.path, r.body)
				r.latency = time.Since(start) - r.due
			}
		}()
	}
	wg.Wait()
	return time.Since(start)
}

var errDropped = errors.New("dropped: the generator fell a whole window behind")

func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// verifier computes the expected bodies of the query routes with direct
// calls on the same payloads, caching per run, and times those calls.
type verifier struct {
	m      *meshRig
	files  map[int]*trace.File
	expect map[string][]byte
	times  map[string][]float64 // direct-call layer -> ms
}

func (v *verifier) timed(layer string, f func()) {
	start := time.Now()
	f()
	v.times[layer] = append(v.times[layer], float64(time.Since(start).Nanoseconds())/1e6)
}

func (v *verifier) file(i int) (*trace.File, error) {
	if f, ok := v.files[i]; ok {
		return f, nil
	}
	p := v.m.preload[i]
	payload, _, err := v.m.in.labelled(p.base, p.label)
	if err != nil {
		return nil, err
	}
	var f *trace.File
	v.timed("trace.decode_ms", func() { f, err = trace.ReadAny(bytes.NewReader(payload)) })
	if err != nil {
		return nil, err
	}
	v.files[i] = f
	return f, nil
}

func jsonLine(x any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(x)
	return buf.Bytes(), err
}

// expected returns the body chamd must answer r with.
func (v *verifier) expected(r *request) ([]byte, error) {
	key := r.path
	if b, ok := v.expect[key]; ok {
		return b, nil
	}
	var body []byte
	switch r.route {
	case "stats":
		f, err := v.file(r.a)
		if err != nil {
			return nil, err
		}
		var rep *zan.Report
		v.timed("zan.analyze_ms", func() { rep, err = zan.Analyze(f, zan.Options{}) })
		if err != nil {
			return nil, err
		}
		body, err = jsonLine(store.StatsResponse{ID: v.m.preload[r.a].id, Report: rep})
		if err != nil {
			return nil, err
		}
	case "diff":
		fa, err := v.file(r.a)
		if err != nil {
			return nil, err
		}
		fb, err := v.file(r.b)
		if err != nil {
			return nil, err
		}
		var d *analysis.Diff
		v.timed("analysis.compare_ms", func() { d = analysis.CompareWith(fa, fb, analysis.CompareOpts{}) })
		body, err = jsonLine(diffResponse(v.m.preload[r.a].id, v.m.preload[r.b].id, d))
		if err != nil {
			return nil, err
		}
	case "waves":
		p := v.m.preload[r.a]
		edges, err := obs.ReadEdges(bytes.NewReader(v.m.in.edges[p.base]))
		if err != nil {
			return nil, err
		}
		var rep *wave.Report
		v.timed("wave.detect_ms", func() { rep, err = wave.Detect(edges, wave.Options{P: v.m.in.files[p.base].P}) })
		if err != nil {
			return nil, err
		}
		body, err = jsonLine(store.WavesResponse{ID: p.id, Report: rep})
		if err != nil {
			return nil, err
		}
	}
	v.expect[key] = body
	return body, nil
}

// diffResponse builds the body GET /runs/{a}/diff/{b} answers for a
// diff computed directly (no tolerated ranks).
func diffResponse(a, b string, d *analysis.Diff) store.DiffResponse {
	resp := store.DiffResponse{A: a, B: b, Equivalent: d.Equivalent(),
		MissingInA: len(d.MissingInA), MissingInB: len(d.MissingInB)}
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
	return resp
}

// verify checks every request's output and counts it.
func (v *verifier) verify(b *bench, reqs []*request) {
	for _, r := range reqs {
		o := b.chk.begin()
		if !o.check("http.error", r.err == nil, "%s %s: %v", r.method, r.path, r.err) {
			o.done()
			continue
		}
		ok2xx := o.check("http.2xx", r.status/100 == 2, "%s %s: status %d: %.200s", r.method, r.path, r.status, r.resp)
		if ok2xx {
			switch r.route {
			case "put":
				var run store.Run
				err := json.Unmarshal(r.resp, &run)
				o.check("put.id", err == nil && run.ID == r.wantID, "got %q want %q (%v)", run.ID, r.wantID, err)
			case "edges_put":
				var got struct{ Edges int }
				err := json.Unmarshal(r.resp, &got)
				o.check("edges_put.count", err == nil && got.Edges == r.edges, "got %d want %d (%v)", got.Edges, r.edges, err)
			case "get":
				sum := sha256.Sum256(r.resp)
				o.check("get.sha256", hex.EncodeToString(sum[:]) == v.m.preload[r.a].id, "payload does not hash to its run ID")
			case "list":
				var lr store.ListResponse
				err := json.Unmarshal(r.resp, &lr)
				o.check("list.page", err == nil && lr.Total >= len(v.m.preload) && len(lr.Runs) == min(50, lr.Total),
					"total %d runs %d (%v)", lr.Total, len(lr.Runs), err)
			default:
				want, err := v.expected(r)
				o.check(r.route+".equal_direct", err == nil && bytes.Equal(want, r.resp),
					"%s differs from the direct call (%v)", r.path, err)
			}
		}
		o.done()
	}
}

// runArchive drives archive-mesh.
func runArchive(b *bench) error {
	sz := archiveSizes.full
	if b.tiny {
		sz = archiveSizes.tiny
	}
	if b.rate > 0 {
		sz.rate = b.rate
	}
	// Set-up: trace the bases, start the mesh, preload it, register the
	// CQ gate. Repeated; the last rig is the one measured.
	var rig *meshRig
	var setupT []float64
	var rng *rand.Rand
	for i := 0; i < setupRepeatsArchive; i++ {
		if rig != nil {
			rig.close()
		}
		start := time.Now()
		in, err := genArchiveInputs(sz, b.seed)
		if err != nil {
			return err
		}

		dir, err := os.MkdirTemp(b.tmpDir, "mesh-")
		if err != nil {
			return err
		}
		rig, err = startMesh(dir, 3)
		if err != nil {
			return err
		}
		rig.in = in
		rng = rand.New(rand.NewPCG(b.seed, 0x61726368))
		if err := rig.preloadRuns(sz, rng); err != nil {
			rig.close()
			return err
		}
		// The gate matches every ingest (all inputs share P) and diffs
		// it against the first preloaded run.
		if _, err := store.RegisterCQ(rig.peers[0].url, cq.Spec{Name: "perfbench-gate", P: sz.p,
			Golden: rig.preload[0].id}); err != nil {
			rig.close()
			return fmt.Errorf("register cq: %w", err)
		}
		setupT = append(setupT, secs(time.Since(start)))
	}
	defer rig.close()

	window := b.dur
	if b.traced {
		window /= 2
	}
	putSeq := 0
	reqs, err := rig.plan(sz, rng, window, &putSeq)
	if err != nil {
		return err
	}
	entry := rig.peers[0]
	ph := startPhase()
	elapsed := openLoop(entry.url, reqs, window)
	timed := ph.end()

	v := &verifier{m: rig, files: map[int]*trace.File{}, expect: map[string][]byte{}, times: map[string][]float64{}}
	v.verify(b, reqs)
	// The gate must have evaluated the created runs: each evaluation
	// appends an event to the feed.
	feed, err := store.FetchCQFeed(entry.url)
	o := b.chk.begin()
	o.check("cq.events", err == nil && feed.Version > 0, "feed version %d (%v)", feed.Version, err)
	o.done()

	lat := map[string][]float64{}
	var all, queries, lags []float64
	for _, r := range reqs {
		ms := float64(r.latency.Nanoseconds()) / 1e6
		lat[r.route] = append(lat[r.route], ms)
		all = append(all, ms)
		if r.route != "put" && r.route != "edges_put" {
			queries = append(queries, ms)
		}
		lags = append(lags, float64(r.lag.Nanoseconds())/1e6)
	}
	opMs := mixP50(lat)
	cpuPerOp := float64(timed.CPU) / 1e6 / float64(len(reqs))
	b.setE2E("setup_s", median(setupT), "s")
	b.setE2E("op_p50_ms", opMs, "ms")
	b.setE2E("cpu_ms_per_op", cpuPerOp, "ms")
	b.setE2E("peak_heap_mb", timed.PeakHeapMiB, "MiB")

	b.note("setup_s", median(setupT), "s", fmt.Sprintf("median of %d set-ups: %d bases class %s P=%d, preload %d runs",
		setupRepeatsArchive, len(sz.bases), sz.class, sz.p, sz.preload))
	b.na("job_wall_s")
	b.note("peak_heap_mb", timed.PeakHeapMiB, "MiB", "")
	b.na("trace_bytes", "vtime_overhead_s")
	b.note("ingest_p50_ms", median(lat["put"]), "ms", fmt.Sprintf("n=%d", len(lat["put"])))
	noteTail(b, "ingest_tail_ms", lat["put"])
	b.note("query_p50_ms", median(queries), "ms", fmt.Sprintf("n=%d", len(queries)))
	noteTail(b, "query_tail_ms", queries)
	b.note("op_p50_ms", opMs, "ms", fmt.Sprintf("mix-weighted geometric mean of route medians, n=%d, offered %.0f ops/s, achieved %.1f ops/s",
		len(reqs), sz.rate, float64(len(reqs))/elapsed.Seconds()))
	b.note("all_p50_ms", median(all), "ms", "median over all requests")
	b.note("cpu_ms_per_op", cpuPerOp, "ms", "process CPU (client and 3 peers) per op")
	b.note("archive.generator_lag_ms", median(lags), "ms", fmt.Sprintf("median; max %.3g ms", maxOf(lags)))
	b.note("cq.events", float64(feed.Version), "count", "gate evaluations in the entry peer's feed")
	for _, o := range opMix {
		b.note("http."+o.route+"_ms", median(lat[o.route]), "ms", fmt.Sprintf("client side, n=%d", len(lat[o.route])))
	}
	if !b.traced {
		return nil
	}

	// Traced half: the same open loop with every peer's handler timed
	// and a CPU profile.
	treqs, err := rig.plan(sz, rng, window, &putSeq)
	if err != nil {
		return err
	}
	for _, p := range rig.peers {
		p.times.on.Store(true)
	}
	profPath := filepath.Join(b.outDir, b.workload+"-cpu.pprof")
	prof, err := os.Create(profPath)
	if err != nil {
		return err
	}
	tph := startPhase()
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return err
	}
	openLoop(entry.url, treqs, window)
	pprof.StopCPUProfile()
	traced := tph.end()
	for _, p := range rig.peers {
		p.times.on.Store(false)
	}
	if err := prof.Close(); err != nil {
		return err
	}
	v.verify(b, treqs)
	raw, err := os.ReadFile(profPath)
	if err != nil {
		return err
	}
	shares, err := cpuShares(raw)
	if err != nil {
		return err
	}

	tlat := map[string][]float64{}
	for _, r := range treqs {
		tlat[r.route] = append(tlat[r.route], float64(r.latency.Nanoseconds())/1e6)
	}
	var fwdN int
	var fwd []float64
	for _, p := range rig.peers[1:] {
		for _, ms := range p.times.per {
			fwdN += len(ms)
			fwd = append(fwd, ms...)
		}
	}
	runsEnd := float64(len(rig.preload) + putSeq)

	// Direct calls on the same payloads, into the entry peer's archive
	// (fresh labels, so each ingest creates a run).
	for i := 0; i < 20; i++ {
		payload, id, err := rig.in.labelled(i%len(rig.in.files), "d"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		v.timed("trace.encode_ms", func() { _, _, err = store.Encode(rig.in.files[i%len(rig.in.files)]) })
		if err != nil {
			return err
		}
		v.timed("store.ingest_ms", func() { _, _, err = entry.a.IngestBytes(payload) })
		if err != nil {
			return err
		}
		v.timed("store.payload_ms", func() { _, _, err = entry.a.Payload(id) })
		if err != nil {
			return err
		}
		v.timed("store.list_ms", func() { entry.a.List(store.Query{Limit: 50}) })
	}

	overhead := mixP50(tlat)/opMs - 1
	b.setLayer("bench.trace_overhead_share", overhead, "ratio")
	b.setLayer("gc.alloc_bytes_per_op", float64(timed.AllocBytes)/float64(len(reqs)), "B")
	b.setLayer("gc.allocs_per_op", float64(timed.AllocObjs)/float64(len(reqs)), "count")
	b.setLayer("gc.cycles", float64(timed.GCCycles), "count")
	for _, n := range []string{"tracer.record_calls", "core.marker_calls", "tcp.frames", "tcp.bound_sweeps"} {
		b.setLayer(n, 0, "count")
	}
	b.setLayer("tcp.bytes", 0, "B")
	b.setLayer("mesh.forwarded_per_op", float64(fwdN)/float64(len(treqs)), "count")
	b.setLayer("archive.runs_end", runsEnd, "count")
	setCPUShares(b, shares)

	b.note("bench.trace_overhead_share", overhead, "ratio", "traced vs timed op_p50_ms")
	for _, o := range opMix {
		ms := entry.times.per[o.route]
		b.note("store."+o.route+"_handler_ms", median(ms), "ms", fmt.Sprintf("entry peer, n=%d", len(ms)))
	}
	b.note("mesh.forwarded_per_op", float64(fwdN)/float64(len(treqs)), "count", "handler calls on the other peers per op")
	b.note("mesh.forwarded_ms", median(fwd), "ms", "median handler time on the other peers")
	keys := make([]string, 0, len(v.times))
	for k := range v.times {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.note(k, median(v.times[k]), "ms", fmt.Sprintf("direct call, n=%d", len(v.times[k])))
	}
	for _, l := range []string{"store", "mesh", "cq", "trace", "zan", "analysis", "wave", "obs", "other", "runtime"} {
		b.note("cpu."+l+"_share", shares[l], "ratio", "")
	}
	b.note("gc.alloc_bytes_per_op", float64(timed.AllocBytes)/float64(len(reqs)), "B", "timed phase")
	b.note("archive.runs_end", runsEnd, "count", "")
	b.note("traced.peak_heap_mb", traced.PeakHeapMiB, "MiB", "")
	b.profile = profPath
	return nil
}

// mixP50 is the op-mix-weighted geometric mean of each route's median
// latency: the typical operation's latency. Unlike the median over all
// requests, it does not jump between routes whose latencies differ a
// hundredfold when the mix's cumulative share crosses one half.
func mixP50(lat map[string][]float64) float64 {
	logSum := 0.0
	for _, o := range opMix {
		logSum += o.share * math.Log(median(lat[o.route]))
	}
	return math.Exp(logSum)
}

// setupRepeatsArchive is how many times archive-mesh sets up.
const setupRepeatsArchive = 2

func noteTail(b *bench, name string, xs []float64) {
	t, ok := tailOf(xs)
	if !ok {
		b.note(name, maxOf(xs), "ms", fmt.Sprintf("max: only n=%d samples", t.N))
		return
	}
	b.note(name, t.Value, "ms", fmt.Sprintf("p%g, n=%d", t.Pct, t.N))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
