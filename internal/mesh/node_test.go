package mesh

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
)

func TestNodeReadOrder(t *testing.T) {
	ps := peers(5)
	for _, self := range ps {
		n, err := NewNode(Options{Self: self, Peers: ps, Replicas: 3})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ {
			id := contentID(i)
			order := n.ReadOrder(id)
			if len(order) != len(ps)-1 {
				t.Fatalf("self %s, id %s: order %v names %d peers, want %d", self, id[:12], order, len(order), len(ps)-1)
			}
			seen := map[string]bool{}
			for _, p := range order {
				if p == self || seen[p] {
					t.Fatalf("self %s, id %s: order %v repeats a peer or names self", self, id[:12], order)
				}
				seen[p] = true
			}
			owners := slices.DeleteFunc(n.Owners(id), func(p string) bool { return p == self })
			if !slices.Equal(order[:len(owners)], owners) {
				t.Fatalf("self %s, id %s: order %v does not start with owners %v", self, id[:12], order, owners)
			}
		}
	}
}

// TestNodeRead checks the read rule: 404 and 5xx answers defer to the
// next peer, any other answer wins, and the request carries the mesh
// headers and the caller's.
func TestNodeRead(t *testing.T) {
	var mu sync.Mutex
	status := map[string]int{}
	var urls []string
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get(HeaderForward) != ForwardRepair || r.Header.Get(HeaderTenant) != "acme" ||
				r.Header.Get("If-None-Match") != `"x"` {
				w.WriteHeader(http.StatusBadRequest)
				return
			}
			mu.Lock()
			code := status["http://"+r.Host]
			mu.Unlock()
			w.WriteHeader(code)
			io.WriteString(w, r.Host)
		}))
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	n, err := NewNode(Options{Self: urls[0], Peers: urls, Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	id := contentID(1)
	order := n.ReadOrder(id)
	hdr := http.Header{"If-None-Match": {`"x"`}}

	for _, tc := range []struct {
		first, second int
		want          int // 0: no answer
	}{
		{http.StatusNotFound, http.StatusOK, http.StatusOK},
		{http.StatusServiceUnavailable, http.StatusNotModified, http.StatusNotModified},
		{http.StatusConflict, http.StatusOK, http.StatusConflict},
		{http.StatusNotFound, http.StatusInternalServerError, 0},
	} {
		mu.Lock()
		status[order[0]], status[order[1]] = tc.first, tc.second
		mu.Unlock()
		resp, err := n.Read(id, "/runs/"+id, "acme", ForwardRepair, hdr)
		if tc.want == 0 {
			if err == nil {
				resp.Body.Close()
				t.Fatalf("%d then %d: got an answer (%d), want none", tc.first, tc.second, resp.StatusCode)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d then %d: %v", tc.first, tc.second, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%d then %d: got %d, want %d", tc.first, tc.second, resp.StatusCode, tc.want)
		}
	}
}
