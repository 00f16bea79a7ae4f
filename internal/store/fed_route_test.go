package store

import (
	"bytes"
	"errors"
	"net/http"
	"net/url"
	"slices"
	"sync/atomic"
	"testing"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/trace"
)

// TestFedNotFoundSentinels checks that every lookup miss the HTTP layer
// maps (and relays) by errors.Is carries its sentinel, with the message
// text unchanged.
func TestFedNotFoundSentinels(t *testing.T) {
	a := openTemp(t, Options{})
	run, _, err := a.Ingest(mkTrace(4, "sentinel", 1))
	if err != nil {
		t.Fatal(err)
	}
	eng, err := cq.New(cq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, resolveErr := a.Resolve("ffffffffffff")
	_, _, edgesErr := a.EdgesPayload(run.ID)
	_, liveErr := NewLive(LiveOptions{}).ViewT(DefaultTenant, "nope", false)
	for _, c := range []struct {
		err      error
		sentinel error
		msg      string
	}{
		{resolveErr, ErrNotFound, `store: run "ffffffffffff" not found`},
		{a.Delete("ffffffffffff"), ErrNotFound, `store: run "ffffffffffff" not found`},
		{edgesErr, ErrNotFound, "store: edge sidecar for run " + run.ID[:12] + " not found"},
		{liveErr, ErrNotFound, `store: live session "nope" not found`},
		{eng.Delete(DefaultTenant, "nope"), cq.ErrNotFound, `cq: query "nope" not found`},
	} {
		if !errors.Is(c.err, c.sentinel) || c.err.Error() != c.msg {
			t.Errorf("error %v: want %q wrapping %v", c.err, c.msg, c.sentinel)
		}
		if failCode(c.err) != http.StatusNotFound {
			t.Errorf("error %v maps to %d, want 404", c.err, failCode(c.err))
		}
	}
}

// TestFedListEscapedFilters lists benchmark names that need escaping
// through every peer: the scatter must forward the filter encoded, or
// peers see a different (or truncated) benchmark name and the merged
// listing gains or loses runs.
func TestFedListEscapedFilters(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{replicas: 2})
	names := []string{"a&b", "a b", "a+b"}
	want := map[string]map[string]bool{}
	seed := uint64(0)
	for _, name := range names {
		want[name] = map[string]bool{}
		for i := 0; i < 6; i++ {
			run := pushVia(t, peers[int(seed)%3], "", mkTrace(4, name, seed))
			want[name][run.ID] = true
			seed++
		}
	}
	for _, name := range names {
		for _, p := range peers {
			lr, err := FetchRuns(p.url, url.Values{"benchmark": {name}}.Encode(), 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if lr.Total != 6 || len(lr.Runs) != 6 {
				t.Fatalf("benchmark=%q via %s: total %d, %d runs; want 6", name, p.url, lr.Total, len(lr.Runs))
			}
			for _, r := range lr.Runs {
				if !want[name][r.ID] || r.Benchmark != name {
					t.Fatalf("benchmark=%q via %s listed run %s of %q", name, p.url, r.ID[:12], r.Benchmark)
				}
			}
		}
	}
}

// answer is what a client sees of one GET.
type answer struct {
	code                   int
	body                   []byte
	etag, ctype, cencoding string
}

// rawGet issues a GET on the client helper's transport, which never
// decompresses transparently, so gzip answers arrive byte-for-byte.
func rawGet(t *testing.T, url string, hdr http.Header) answer {
	t.Helper()
	var body []byte
	resp, err := call(http.MethodGet, url, hdr, nil, &body, http.StatusOK, http.StatusNotModified)
	if err != nil {
		t.Fatal(err)
	}
	return answer{resp.StatusCode, body, resp.Header.Get("ETag"),
		resp.Header.Get("Content-Type"), resp.Header.Get("Content-Encoding")}
}

// TestFedRelayMatchesHolder asks a peer that holds no copy of a run for
// every run-scoped GET and checks that the relayed answer is the one
// the holder gives locally: status, body, ETag, Content-Type, and
// Content-Encoding — for binary, JSON and gzip fetches, stats, edges,
// waves with a grid width, and again conditionally.
func TestFedRelayMatchesHolder(t *testing.T) {
	peers := startMesh(t, 3, meshConfig{
		replicas: 2,
		archive:  func(int) Options { return Options{Gzip: true} },
	})
	run := pushVia(t, peers[0], "", mkWideTrace(4, "relay", 9))
	owners := peers[0].node.Owners(run.ID)
	var holder, other *fedPeer
	for _, p := range peers {
		switch {
		case p.url == owners[0]:
			holder = p
		case !slices.Contains(owners, p.url):
			other = p
		}
	}
	sidecar := []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n" +
		`{"from":1,"to":2,"seq":2,"send_ns":300,"arrive_ns":400,"recv_ns":900}` + "\n")
	if code, body, _ := tenantDo(t, http.MethodPut, holder.url+"/runs/"+run.ID+"/edges", "", sidecar, nil); code != http.StatusOK {
		t.Fatalf("PUT edges: %d: %s", code, body)
	}

	cases := []struct {
		name, path string
		hdr        http.Header
	}{
		{"binary", "/runs/" + run.ID, nil},
		{"json", "/runs/" + run.ID + "?format=json", nil},
		{"gzip", "/runs/" + run.ID, http.Header{"Accept-Encoding": {"gzip"}}},
		{"stats", "/runs/" + run.ID + "/stats", nil},
		{"edges", "/runs/" + run.ID + "/edges", nil},
		{"waves", "/runs/" + run.ID + "/waves?cols=2", nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			check := func(hdr http.Header, wantCode int) answer {
				t.Helper()
				local := hdr.Clone()
				if local == nil {
					local = http.Header{}
				}
				local.Set(mesh.HeaderForward, mesh.ForwardFanout)
				want := rawGet(t, holder.url+c.path, local)
				got := rawGet(t, other.url+c.path, hdr)
				if want.code != wantCode {
					t.Fatalf("holder answered %d, want %d", want.code, wantCode)
				}
				if got.code != want.code || !bytes.Equal(got.body, want.body) || got.etag != want.etag ||
					got.ctype != want.ctype || got.cencoding != want.cencoding {
					t.Fatalf("relayed answer differs from the holder's:\n got %d etag=%q type=%q enc=%q (%d bytes)\nwant %d etag=%q type=%q enc=%q (%d bytes)",
						got.code, got.etag, got.ctype, got.cencoding, len(got.body),
						want.code, want.etag, want.ctype, want.cencoding, len(want.body))
				}
				return want
			}
			first := check(c.hdr, http.StatusOK)
			if c.name == "gzip" && first.cencoding != "gzip" {
				t.Fatalf("gzip fetch answered Content-Encoding %q", first.cencoding)
			}
			cond := c.hdr.Clone()
			if cond == nil {
				cond = http.Header{}
			}
			if first.etag == "" {
				// The replaceable edge sidecar carries no ETag, so a
				// conditional GET is answered in full on both sides.
				cond.Set("If-None-Match", `"stale"`)
				check(cond, http.StatusOK)
				return
			}
			cond.Set("If-None-Match", first.etag)
			check(cond, http.StatusNotModified)
		})
	}
}

// TestFedTrafficBudget counts the intra-mesh requests each client
// request causes on a 3-peer R=2 mesh with no CQ gate registered, so
// changes to the federation paths are checked against measured
// traffic.
func TestFedTrafficBudget(t *testing.T) {
	var forwarded atomic.Int64
	peers := startMesh(t, 3, meshConfig{
		replicas: 2,
		wrap: func(_ int, h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if mesh.Forwarded(r) {
					forwarded.Add(1)
				}
				h.ServeHTTP(w, r)
			})
		},
	})
	entry := peers[0]

	// Two runs on the same owner pair, neither owned by the entry peer.
	var runs []*trace.File
	var ids []string
	var owners []string
	for seed := uint64(0); len(runs) < 2; seed++ {
		f := mkTrace(4, "budget", seed)
		_, id, err := Encode(f)
		if err != nil {
			t.Fatal(err)
		}
		o := entry.node.Owners(id)
		if slices.Contains(o, entry.url) || (owners != nil && !(slices.Contains(o, owners[0]) && slices.Contains(o, owners[1]))) {
			continue
		}
		owners = o
		runs, ids = append(runs, f), append(ids, id)
	}
	var holder *fedPeer
	for _, p := range peers {
		if p.url == owners[0] {
			holder = p
		}
	}
	sidecar := []byte(`{"from":0,"to":1,"seq":1,"send_ns":100,"arrive_ns":200,"recv_ns":250}` + "\n")

	budget := []struct {
		name string
		want int64
		do   func()
	}{
		{"PUT /runs via a non-owner", 2, func() { pushVia(t, entry, "", runs[0]) }},
		{"GET via a holder", 0, func() { mustGet(t, holder.url+"/runs/"+ids[0]) }},
		{"GET via a non-holder", 1, func() { mustGet(t, entry.url+"/runs/"+ids[0]) }},
		{"edges PUT via a non-owner", 2, func() {
			if code, body, _ := tenantDo(t, http.MethodPut, entry.url+"/runs/"+ids[0]+"/edges", "", sidecar, nil); code != http.StatusOK {
				t.Fatalf("edges PUT: %d: %s", code, body)
			}
		}},
		{"GET /runs", 2, func() { mustGet(t, entry.url+"/runs") }},
		{"PUT /runs via an owner", 1, func() { pushVia(t, holder, "", runs[1]) }},
		{"diff via a peer holding neither run", 2, func() { mustGet(t, entry.url+"/runs/"+ids[0]+"/diff/"+ids[1]) }},
	}
	for _, b := range budget {
		forwarded.Store(0)
		b.do()
		if got := forwarded.Load(); got != b.want {
			t.Errorf("%s: %d forwarded requests, want %d", b.name, got, b.want)
		}
	}
}

func mustGet(t *testing.T, url string) {
	t.Helper()
	if code, body, _ := tenantDo(t, http.MethodGet, url, "", nil, nil); code != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", url, code, body)
	}
}
