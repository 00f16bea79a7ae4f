package mesh

// Node is one chamd peer's view of the federation: the ring, its own
// identity, and the HTTP plumbing for talking to the other peers. Every
// intra-mesh request goes through Do (or Broadcast, its best-effort
// fan-out). Reads follow one rule, Read: ask the run's owners, then the
// rest, and take the first answer that is neither 404 nor 5xx. The
// store's HTTP layer drives it; the anti-entropy Sweep drives itself.

import (
	"bytes"
	"crypto/subtle"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"chameleon/internal/obs"
)

// Federation request headers.
const (
	// HeaderTenant namespaces every run, live session, and query.
	HeaderTenant = "X-Cham-Tenant"
	// HeaderForward marks intra-mesh traffic. A forwarded request is
	// served strictly locally (no re-fan-out, no re-proxy), which is
	// both the loop guard and the "ask this exact peer" primitive.
	HeaderForward = "X-Cham-Mesh"
	// HeaderKey carries the shared mesh secret. When a mesh is started
	// with one, HeaderForward is only honored alongside a matching key,
	// so external clients cannot claim intra-mesh trust by setting a
	// header.
	HeaderKey = "X-Cham-Mesh-Key"
	// ForwardFanout is a peer-to-peer replica write or scatter read.
	ForwardFanout = "fanout"
	// ForwardRepair is an anti-entropy pull; receivers skip continuous-
	// query evaluation so a converging peer never re-fires a gate.
	ForwardRepair = "repair"
)

// Forwarded reports whether the request is intra-mesh traffic.
func Forwarded(r *http.Request) bool { return r.Header.Get(HeaderForward) != "" }

// Repair reports whether the request is an anti-entropy pull.
func Repair(r *http.Request) bool { return r.Header.Get(HeaderForward) == ForwardRepair }

// Entry is one (tenant, run) pair in a peer's manifest, the unit the
// anti-entropy sweep reasons about. Edges marks a run carrying a causal
// edge sidecar, so sidecars converge onto owners exactly like runs.
type Entry struct {
	Tenant string `json:"tenant"`
	ID     string `json:"id"`
	Edges  bool   `json:"edges,omitempty"`
}

// Target is the local archive surface the sweep converges: what runs
// and sidecars it has, and how to store copies pulled from a peer.
type Target interface {
	// Entries lists every (tenant, run) the local archive holds.
	Entries() []Entry
	// Have reports whether the run is already stored locally.
	Have(tenant, id string) bool
	// Pull ingests a canonical payload fetched from a peer.
	Pull(tenant string, payload []byte) error
	// HaveEdges reports whether the run's edge sidecar is stored
	// locally.
	HaveEdges(tenant, id string) bool
	// PullEdges attaches a sidecar (JSONL bytes) fetched from a peer.
	PullEdges(tenant, id string, jsonl []byte) error
}

// Options configures a Node.
type Options struct {
	// Self is this peer's own URL as it appears in Peers.
	Self string
	// Peers is the full static membership, self included.
	Peers []string
	// Replicas is the ownership factor R (default 2, clamped to the
	// peer count).
	Replicas int
	// Vnodes per peer (default DefaultVnodes).
	Vnodes int
	// Client overrides the intra-mesh HTTP client.
	Client *http.Client
	// Secret, when non-empty, is the shared mesh key: every intra-mesh
	// request carries it (HeaderKey) and peers reject the forward
	// header without it. Empty means cooperative trust — the forward
	// header alone is honored, which is fine on a private network but
	// is not a security boundary (docs/STORE.md).
	Secret string
	// BroadcastTimeout bounds each best-effort fan-out call (CQ
	// registrations, deletions, event broadcasts) so one partitioned
	// peer cannot stall the ingest path for the full mesh client
	// timeout. Default 3s.
	BroadcastTimeout time.Duration
	// Reg receives mesh_* counters.
	Reg *obs.Registry
}

// Node is one peer's federation state. All methods are safe for
// concurrent use (the ring is immutable).
type Node struct {
	ring     *Ring
	self     string
	others   []string
	replicas int
	secret   string
	hc       *http.Client
	bc       *http.Client // short-timeout client for best-effort broadcasts

	mSweeps, mPulled, mSweepErrs *obs.Counter
}

// NewNode builds a peer's federation state. Self must appear in the
// peer list.
func NewNode(opts Options) (*Node, error) {
	ring, err := NewRing(opts.Peers, opts.Vnodes)
	if err != nil {
		return nil, err
	}
	self := strings.TrimSuffix(strings.TrimSpace(opts.Self), "/")
	var others []string
	found := false
	for _, p := range ring.Peers() {
		if p == self {
			found = true
			continue
		}
		others = append(others, p)
	}
	if !found {
		return nil, fmt.Errorf("mesh: self %q is not in the peer list %v", self, ring.Peers())
	}
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.Replicas > len(ring.Peers()) {
		opts.Replicas = len(ring.Peers())
	}
	hc := opts.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.BroadcastTimeout <= 0 {
		opts.BroadcastTimeout = 3 * time.Second
	}
	return &Node{
		ring:       ring,
		self:       self,
		others:     others,
		replicas:   opts.Replicas,
		secret:     opts.Secret,
		hc:         hc,
		bc:         &http.Client{Timeout: opts.BroadcastTimeout},
		mSweeps:    opts.Reg.Counter("mesh_sweeps"),
		mPulled:    opts.Reg.Counter("mesh_sweep_pulled"),
		mSweepErrs: opts.Reg.Counter("mesh_sweep_errors"),
	}, nil
}

// Self returns this peer's normalized URL.
func (n *Node) Self() string { return n.self }

// Peers returns the full membership.
func (n *Node) Peers() []string { return n.ring.Peers() }

// Others returns the membership minus self.
func (n *Node) Others() []string { return append([]string(nil), n.others...) }

// Replicas returns the ownership factor R.
func (n *Node) Replicas() int { return n.replicas }

// Owners returns the R peers owning a run, primary first.
func (n *Node) Owners(id string) []string { return n.ring.Owners(id, n.replicas) }

// IsOwner reports whether this peer is one of the run's R owners.
func (n *Node) IsOwner(id string) bool {
	for _, o := range n.Owners(id) {
		if o == n.self {
			return true
		}
	}
	return false
}

// IsPrimary reports whether this peer is the run's first owner — the
// one that evaluates continuous queries on ingest.
func (n *Node) IsPrimary(id string) bool {
	owners := n.Owners(id)
	return len(owners) > 0 && owners[0] == n.self
}

// Secured reports whether the mesh authenticates intra-mesh traffic
// with a shared key.
func (n *Node) Secured() bool { return n.secret != "" }

// Authorized reports whether a request is trusted intra-mesh traffic:
// the forward header plus, when the mesh has a shared secret, the
// matching key. Without a secret the header alone is honored —
// cooperative trust, not a security boundary (docs/STORE.md).
func (n *Node) Authorized(r *http.Request) bool {
	if !Forwarded(r) {
		return false
	}
	if n.secret == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(r.Header.Get(HeaderKey)), []byte(n.secret)) == 1
}

// ReadOrder lists the peers to ask for a run: its owners first, then
// every other peer, never self. A run ingested as an off-ring fallback
// replica while its owners were down lives elsewhere until anti-entropy
// converges, so a miss must scatter wide rather than give up at R peers.
func (n *Node) ReadOrder(id string) []string {
	owners := n.Owners(id)
	out := make([]string, 0, len(n.others))
	for _, p := range owners {
		if p != n.self {
			out = append(out, p)
		}
	}
	for _, p := range n.others {
		if !slices.Contains(owners, p) {
			out = append(out, p)
		}
	}
	return out
}

// Read asks the run's peers for path in ReadOrder and returns the first
// answer that is neither 404 nor 5xx: a peer that lacks the run, or is
// failing, defers to the next. The caller closes the body. When no peer
// answers, the error describes the last miss.
func (n *Node) Read(id, path, tenant, kind string, hdr http.Header) (*http.Response, error) {
	err := fmt.Errorf("mesh: GET %s: no other peer", path)
	for _, peer := range n.ReadOrder(id) {
		resp, rerr := n.Do(http.MethodGet, peer, path, tenant, kind, hdr, nil)
		if rerr != nil {
			err = rerr
			continue
		}
		if resp.StatusCode != http.StatusNotFound && resp.StatusCode < 500 {
			return resp, nil
		}
		resp.Body.Close()
		err = fmt.Errorf("mesh: GET %s%s: %s", peer, path, resp.Status)
	}
	return nil, err
}

// Get fetches an intra-mesh path from one peer and returns the body on
// 200.
func (n *Node) Get(peer, path, tenant, kind string) ([]byte, error) {
	resp, err := n.Do(http.MethodGet, peer, path, tenant, kind, nil, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("mesh: GET %s%s: %s: %s", peer, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	return io.ReadAll(resp.Body)
}

// Do sends an intra-mesh request on the mesh client: hdr plus the
// forward kind (the loop guard), the mesh key, and the tenant. The
// response is returned as-is.
func (n *Node) Do(method, peer, path, tenant, kind string, hdr http.Header, body io.Reader) (*http.Response, error) {
	return n.do(n.hc, method, peer, path, tenant, kind, hdr, body)
}

// Broadcast sends one best-effort fanout request to every other peer
// concurrently and waits for all of them. It rides the short-timeout
// client, so a partitioned (non-refusing) peer delays the caller by at
// most BroadcastTimeout instead of the full mesh client timeout.
// Failures are dropped: anti-entropy re-syncs whatever a peer missed.
func (n *Node) Broadcast(method, path, tenant, contentType string, body []byte) {
	hdr := http.Header{}
	if contentType != "" {
		hdr.Set("Content-Type", contentType)
	}
	var wg sync.WaitGroup
	for _, peer := range n.others {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := n.do(n.bc, method, peer, path, tenant, ForwardFanout, hdr, bytes.NewReader(body)); err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
}

func (n *Node) do(hc *http.Client, method, peer, path, tenant, kind string, hdr http.Header, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, peer+path, body)
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	req.Header.Set(HeaderForward, kind)
	if n.secret != "" {
		req.Header.Set(HeaderKey, n.secret)
	}
	if tenant != "" {
		req.Header.Set(HeaderTenant, tenant)
	}
	return hc.Do(req)
}
