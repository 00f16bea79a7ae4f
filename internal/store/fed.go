package store

// Federation glue: the pieces that connect one Archive to the mesh.
//
//   - archiveTarget adapts the Archive to mesh.Target so the
//     anti-entropy sweep can enumerate, check, and pull runs.
//   - FedLookup resolves a continuous query's golden run, and either
//     side of a diff: locally first, then through node.Read.
//   - BroadcastCQEvents pushes locally-emitted CQ events to every
//     other peer so a long-poll watcher on any peer sees them.
//   - rateLimiter is the per-tenant token bucket the HTTP edge
//     enforces (429 + Retry-After on breach). Intra-mesh traffic
//     bypasses it: fan-out writes and repair pulls are the system
//     talking to itself, and throttling them would amplify client
//     load R-fold.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/trace"
)

// archiveTarget adapts an Archive to the mesh.Target surface.
type archiveTarget struct{ a *Archive }

// MeshTarget returns the archive's anti-entropy surface.
func (a *Archive) MeshTarget() mesh.Target { return archiveTarget{a} }

func (t archiveTarget) Entries() []mesh.Entry {
	t.a.mu.Lock()
	defer t.a.mu.Unlock()
	out := make([]mesh.Entry, 0, 64)
	for tenant, runs := range t.a.runs {
		for id := range runs {
			out = append(out, mesh.Entry{Tenant: tenant, ID: id, Edges: t.a.hasEdges(tenant, id)})
		}
	}
	return out
}

func (t archiveTarget) Have(tenant, id string) bool {
	t.a.mu.Lock()
	defer t.a.mu.Unlock()
	_, ok := t.a.runs[tenant][id]
	return ok
}

func (t archiveTarget) Pull(tenant string, payload []byte) error {
	tenant, err := NormalizeTenant(tenant)
	if err != nil {
		return err
	}
	_, _, err = t.a.Tenant(tenant).IngestBytes(payload)
	return err
}

func (t archiveTarget) HaveEdges(tenant, id string) bool {
	return t.a.hasEdges(tenant, id)
}

func (t archiveTarget) PullEdges(tenant, id string, jsonl []byte) error {
	tenant, err := NormalizeTenant(tenant)
	if err != nil {
		return err
	}
	_, _, err = t.a.Tenant(tenant).PutEdges(id, jsonl)
	return err
}

// FedLookup builds the cq.Lookup a federated engine uses to resolve
// golden runs — and the diff endpoint uses to resolve either side: the
// local archive first, then the mesh through node.Read (node nil means
// local-only). A run fetched from a peer is decoded but not ingested —
// resolution must not mutate placement.
func FedLookup(a *Archive, node *mesh.Node) cq.Lookup {
	return func(tenant, id string) (*trace.File, string, error) {
		f, run, err := a.Tenant(tenant).Get(id)
		if err == nil {
			return f, run.ID, nil
		}
		if node == nil {
			return nil, "", err
		}
		resp, err := node.Read(id, "/runs/"+id, tenant, mesh.ForwardRepair, nil)
		if err != nil {
			return nil, "", fmt.Errorf("store: run %s %w on any peer: %v", id, ErrNotFound, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("store: run %s %w on any peer: %s", id, ErrNotFound, resp.Status)
		}
		if f, err = trace.ReadAny(resp.Body); err != nil {
			return nil, "", fmt.Errorf("store: run %s from %s: %w", id, resp.Request.URL.Host, err)
		}
		_, cid, err := Encode(f)
		if err != nil {
			return nil, "", err
		}
		return f, cid, nil
	}
}

// BroadcastCQEvents returns an engine OnEvent hook that forwards each
// locally-emitted event to every other peer (POST /cq/events via
// node.Broadcast), so a watcher long-polling any peer's feed sees gates
// fired anywhere in the mesh. Delivery is best-effort: the feed is
// observability, not a ledger, and receivers dedup by event ID. A
// partitioned peer delays the ingest that fired the gate by at most the
// broadcast timeout, never the full request budget.
func BroadcastCQEvents(node *mesh.Node) func(cq.Event) {
	if node == nil {
		return nil
	}
	return func(ev cq.Event) {
		if body, err := json.Marshal(ev); err == nil {
			node.Broadcast(http.MethodPost, "/cq/events", ev.Tenant, "application/json", body)
		}
	}
}

// rateLimiter is a per-tenant token bucket. The zero rate disables
// limiting.
type rateLimiter struct {
	mu      sync.Mutex
	rate    float64 // tokens per second
	burst   float64
	buckets map[string]*tokenBucket
	now     func() time.Time
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newRateLimiter(rate float64, burst int) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	b := float64(burst)
	if b < 1 {
		b = rate
		if b < 1 {
			b = 1
		}
	}
	return &rateLimiter{rate: rate, burst: b, buckets: make(map[string]*tokenBucket), now: time.Now}
}

// allow spends one token from the tenant's bucket. When the bucket is
// dry it returns false and how long until a token accrues (the
// Retry-After value).
func (rl *rateLimiter) allow(tenant string) (bool, time.Duration) {
	if rl == nil {
		return true, 0
	}
	rl.mu.Lock()
	defer rl.mu.Unlock()
	now := rl.now()
	b := rl.buckets[tenant]
	if b == nil {
		b = &tokenBucket{tokens: rl.burst, last: now}
		rl.buckets[tenant] = b
	}
	b.tokens += now.Sub(b.last).Seconds() * rl.rate
	b.last = now
	if b.tokens > rl.burst {
		b.tokens = rl.burst
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / rl.rate * float64(time.Second))
	if wait < time.Second {
		wait = time.Second
	}
	return false, wait
}
