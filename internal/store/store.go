// Package store is the persistent trace archive: a content-addressed,
// append-only segment store with a manifest index, built so online
// traces survive the run that produced them and can be compared across
// runs.
//
// Layout under the archive directory:
//
//	manifest.json              index of runs (atomic-swap on update)
//	segments/ab/abcd....seg    default-tenant v2 binary payloads (optionally gzip)
//	edges/ab/abcd....jsonl     default-tenant causal-edge sidecars (see edges.go)
//	tenants/<t>/segments/...   per-tenant payloads for every other tenant
//	tenants/<t>/edges/...      per-tenant sidecars
//	tmp/                       staging area for in-flight writes
//
// A run's identity is the SHA-256 of its canonical CHAMTRC2 encoding, so
// ingest is idempotent: pushing the same trace twice (in any input
// format — v1, v2, or JSON) normalizes to the same bytes, the same
// content address, and a single stored segment. Runs are namespaced by
// tenant (see tenant.go): content addresses dedup within a tenant, and
// tenants are fully isolated on disk — the same trace pushed by two
// tenants is stored twice, so deleting one tenant's data can never
// reach into another's.
//
// The manifest indexes each run by tenant, benchmark, rank count,
// Call-Path signature set, and ingest timestamp; it is only ever
// replaced whole (write-temp + rename), never edited in place, so a
// crash mid-update leaves the previous index intact and at worst an
// orphaned segment, which Compact reclaims.
package store

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"chameleon/internal/obs"
	"chameleon/internal/trace"
)

// Journal event kinds emitted by the archive.
const (
	KindIngest  = "store_ingest"  // one run ingested (Note: "new" or "dedup")
	KindCompact = "store_compact" // one compaction pass (Count: files removed)
)

// ErrQuotaExceeded marks an ingest rejected by a tenant storage quota.
// The HTTP layer maps it to 429 + Retry-After.
var ErrQuotaExceeded = errors.New("store: tenant storage quota exceeded")

// ErrNotFound and ErrAmbiguous mark a lookup that named no run (or
// sidecar, or live session) and a prefix that named several. They are
// wrapped into the descriptive error; the HTTP layer maps them to 404
// (relaying run-scoped reads to the mesh first) and 409.
var (
	ErrNotFound  = errors.New("not found")
	ErrAmbiguous = errors.New("ambiguous")
)

// Options configures an Archive.
type Options struct {
	// Gzip compresses stored segments on disk. Reads transparently
	// decompress; the content address is always of the uncompressed
	// canonical payload, so a gzip archive dedups against a plain one.
	Gzip bool
	// QuotaBytes caps each tenant's stored run data, measured in
	// canonical (raw) payload bytes — deterministic regardless of the
	// Gzip setting. 0 means unlimited.
	QuotaBytes int64
	// TenantQuotas overrides QuotaBytes per tenant (0 entry = that
	// tenant is unlimited).
	TenantQuotas map[string]int64
	// Reg, when non-nil, receives ingest/query/compaction counters and
	// latency histograms.
	Reg *obs.Registry
	// Journal, when non-nil, receives store_ingest/store_compact events.
	Journal *obs.Journal
	// CompactEvery, when positive, starts a background goroutine that
	// sweeps orphaned segments at this period until Close.
	CompactEvery time.Duration
	// OnCompact, when non-nil, runs after each background compaction
	// pass — the hook chamd uses to piggyback the federation's
	// anti-entropy sweep on the same cadence.
	OnCompact func()
}

// Run is one archived trace: the manifest record the index keeps and
// the HTTP API serves.
type Run struct {
	// ID is the content address: hex SHA-256 of the canonical CHAMTRC2
	// payload.
	ID string `json:"id"`
	// Tenant is the namespace the run lives in (empty in old manifests
	// means DefaultTenant).
	Tenant string `json:"tenant,omitempty"`
	// Benchmark/Tracer/P/Clustered mirror the trace file metadata.
	Benchmark string `json:"benchmark,omitempty"`
	Tracer    string `json:"tracer,omitempty"`
	P         int    `json:"p"`
	Clustered bool   `json:"clustered,omitempty"`
	// Sigs is the sorted Call-Path signature set (the trace's interned
	// call-site table); SigSet is its SHA-256, a cheap equality key for
	// "same code paths, possibly different timings".
	Sigs   []uint64 `json:"sigs,omitempty"`
	SigSet string   `json:"sigset,omitempty"`
	// Ingested is the archive-local ingest timestamp.
	Ingested time.Time `json:"ingested"`
	// RawBytes and StoredBytes are the payload sizes before and after
	// segment compression (equal when Gzip is false).
	RawBytes    int64 `json:"raw_bytes"`
	StoredBytes int64 `json:"stored_bytes"`
	// Gzip reports whether the segment is stored gzip-compressed.
	Gzip bool `json:"gzip,omitempty"`
	// Events and Nodes summarize the trace (dynamic MPI events, total
	// PRSD nodes).
	Events uint64 `json:"events"`
	Nodes  int    `json:"nodes"`
}

// Query filters and paginates List. Zero fields match everything.
type Query struct {
	Benchmark string
	P         int
	Sig       uint64 // runs whose signature set contains this sig
	SigSet    string // exact signature-set hash
	Limit     int    // 0 = no limit
	Offset    int
}

// Archive is an open trace archive. All methods are safe for concurrent
// use.
type Archive struct {
	dir  string
	opts Options

	mu   sync.Mutex
	runs map[string]map[string]*Run // tenant -> content address -> run
	used map[string]int64           // tenant -> sum of RawBytes

	stop chan struct{}
	wg   sync.WaitGroup

	mIngest, mDedup, mGets, mLists, mDeletes *obs.Counter
	mCompacts, mOrphans                      *obs.Counter
	mRawBytes, mStoredBytes                  *obs.Counter
	mQuotaRejects                            *obs.Counter
	hIngest, hGet                            *obs.Histogram
}

type manifest struct {
	Version int    `json:"version"`
	Runs    []*Run `json:"runs"`
}

const manifestVersion = 1

// Open opens (creating if necessary) the archive rooted at dir.
func Open(dir string, opts Options) (*Archive, error) {
	for _, d := range []string{dir, filepath.Join(dir, "segments"), filepath.Join(dir, "tmp")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	a := &Archive{
		dir:  dir,
		opts: opts,
		runs: make(map[string]map[string]*Run),
		used: make(map[string]int64),
		stop: make(chan struct{}),

		mIngest:       opts.Reg.Counter("store_ingests"),
		mDedup:        opts.Reg.Counter("store_ingest_dedups"),
		mGets:         opts.Reg.Counter("store_gets"),
		mLists:        opts.Reg.Counter("store_lists"),
		mDeletes:      opts.Reg.Counter("store_deletes"),
		mCompacts:     opts.Reg.Counter("store_compactions"),
		mOrphans:      opts.Reg.Counter("store_orphans_removed"),
		mRawBytes:     opts.Reg.Counter("store_raw_bytes"),
		mStoredBytes:  opts.Reg.Counter("store_stored_bytes"),
		mQuotaRejects: opts.Reg.Counter("store_quota_rejects"),
		hIngest:       opts.Reg.Histogram("store_ingest_ns"),
		hGet:          opts.Reg.Histogram("store_get_ns"),
	}
	if err := a.loadManifest(); err != nil {
		return nil, err
	}
	if opts.CompactEvery > 0 {
		a.wg.Add(1)
		go a.compactLoop(opts.CompactEvery)
	}
	return a, nil
}

// Close stops the background compactor (if any). The archive itself
// holds no open files between calls.
func (a *Archive) Close() error {
	select {
	case <-a.stop:
	default:
		close(a.stop)
	}
	a.wg.Wait()
	return nil
}

func (a *Archive) compactLoop(every time.Duration) {
	defer a.wg.Done()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C:
			a.Compact() //nolint:errcheck — best-effort background sweep
			if a.opts.OnCompact != nil {
				a.opts.OnCompact()
			}
		}
	}
}

func (a *Archive) manifestPath() string { return filepath.Join(a.dir, "manifest.json") }

// tenantRoot returns the directory a tenant's payload tree lives
// under: the archive root for the default tenant (the pre-federation
// layout), tenants/<name> for everyone else.
func (a *Archive) tenantRoot(tenant string) string {
	if tenant == DefaultTenant {
		return a.dir
	}
	return filepath.Join(a.dir, "tenants", tenant)
}

func (a *Archive) segmentPath(tenant, id string) string {
	return filepath.Join(a.tenantRoot(tenant), "segments", id[:2], id+".seg")
}

func (a *Archive) loadManifest() error {
	data, err := os.ReadFile(a.manifestPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return fmt.Errorf("store: manifest version %d not supported", m.Version)
	}
	for _, r := range m.Runs {
		if r.Tenant == "" {
			r.Tenant = DefaultTenant
		}
		a.putRunLocked(r)
	}
	return nil
}

// putRunLocked indexes a run and charges its tenant. Callers hold a.mu
// (or are still single-threaded in Open).
func (a *Archive) putRunLocked(r *Run) {
	t := a.runs[r.Tenant]
	if t == nil {
		t = make(map[string]*Run)
		a.runs[r.Tenant] = t
	}
	if _, dup := t[r.ID]; !dup {
		a.used[r.Tenant] += r.RawBytes
	}
	t[r.ID] = r
}

// writeManifest atomically replaces the on-disk index with the current
// in-memory run set. Callers hold a.mu.
func (a *Archive) writeManifest() error {
	m := manifest{Version: manifestVersion}
	for _, t := range a.runs {
		for _, r := range t {
			m.Runs = append(m.Runs, r)
		}
	}
	sort.Slice(m.Runs, func(i, j int) bool {
		if m.Runs[i].Tenant != m.Runs[j].Tenant {
			return m.Runs[i].Tenant < m.Runs[j].Tenant
		}
		return m.Runs[i].ID < m.Runs[j].ID
	})
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(a.dir, "tmp"), "manifest-*")
	if err != nil {
		return fmt.Errorf("store: manifest: %w", err)
	}
	name := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: manifest: %w", err)
	}
	if err := os.Rename(name, a.manifestPath()); err != nil {
		os.Remove(name)
		return fmt.Errorf("store: manifest: %w", err)
	}
	return nil
}

// Encode returns the canonical CHAMTRC2 payload and content address of
// a trace file. The same logical trace always encodes to the same bytes
// (site table in first-appearance order, deterministic varint layout),
// which is what makes the address stable across pushes.
func Encode(f *trace.File) ([]byte, string, error) {
	var buf bytes.Buffer
	if err := f.WriteBinary(&buf); err != nil {
		return nil, "", err
	}
	out := buf.Bytes()
	sum := sha256.Sum256(out)
	return out, hex.EncodeToString(sum[:]), nil
}

// describe builds the manifest record for a payload (sans timestamps
// and storage sizes, which ingest fills in).
func describe(f *trace.File, payload []byte, id string) *Run {
	sigs := make([]uint64, 0, len(f.Sites))
	for _, s := range f.SiteTable() {
		sigs = append(sigs, s.Sig)
	}
	sort.Slice(sigs, func(i, j int) bool { return sigs[i] < sigs[j] })
	h := sha256.New()
	var w [8]byte
	for _, s := range sigs {
		for i := 0; i < 8; i++ {
			w[i] = byte(s >> (8 * i))
		}
		h.Write(w[:])
	}
	return &Run{
		ID:        id,
		Benchmark: f.Benchmark,
		Tracer:    f.Tracer,
		P:         f.P,
		Clustered: f.Clustered,
		Sigs:      sigs,
		SigSet:    hex.EncodeToString(h.Sum(nil)),
		RawBytes:  int64(len(payload)),
		Events:    trace.DynamicEvents(f.Nodes),
		Nodes:     trace.NodeCount(f.Nodes),
	}
}

// Ingest archives a trace file into the default tenant. It returns the
// manifest record and whether a new segment was created (false when the
// content address was already present — the dedup path stores nothing).
func (a *Archive) Ingest(f *trace.File) (Run, bool, error) {
	return a.Tenant(DefaultTenant).Ingest(f)
}

// IngestBytes archives a serialized trace (any readable format: binary
// v1/v2 or JSON) into the default tenant. The payload is decoded —
// validating it — and re-encoded canonically, so equivalent pushes in
// different formats share one content address.
func (a *Archive) IngestBytes(b []byte) (Run, bool, error) {
	return a.Tenant(DefaultTenant).IngestBytes(b)
}

// quotaFor returns a tenant's raw-byte quota (0 = unlimited).
func (a *Archive) quotaFor(tenant string) int64 {
	if q, ok := a.opts.TenantQuotas[tenant]; ok {
		return q
	}
	return a.opts.QuotaBytes
}

func (a *Archive) ingest(tenant string, f *trace.File, payload []byte, id string) (Run, bool, error) {
	start := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()

	if r, ok := a.runs[tenant][id]; ok {
		a.mIngest.Inc()
		a.mDedup.Inc()
		a.opts.Journal.Emit(obs.Event{Kind: KindIngest, Note: "dedup", Bytes: r.RawBytes})
		return *r, false, nil
	}

	if quota := a.quotaFor(tenant); quota > 0 && a.used[tenant]+int64(len(payload)) > quota {
		a.mQuotaRejects.Inc()
		return Run{}, false, fmt.Errorf("%w: tenant %q holds %d of %d bytes, run needs %d more",
			ErrQuotaExceeded, tenant, a.used[tenant], quota, len(payload))
	}

	run := describe(f, payload, id)
	run.Tenant = tenant
	run.Ingested = time.Now().UTC()
	run.Gzip = a.opts.Gzip

	stored, err := a.writeSegment(tenant, id, payload)
	if err != nil {
		return Run{}, false, err
	}
	run.StoredBytes = stored

	a.putRunLocked(run)
	if err := a.writeManifest(); err != nil {
		// Roll back the index entry; the segment becomes an orphan that
		// the next Compact reclaims.
		delete(a.runs[tenant], id)
		a.used[tenant] -= run.RawBytes
		return Run{}, false, err
	}

	a.mIngest.Inc()
	a.mRawBytes.Add(uint64(run.RawBytes))
	a.mStoredBytes.Add(uint64(run.StoredBytes))
	a.hIngest.Observe(time.Since(start).Nanoseconds())
	a.opts.Journal.Emit(obs.Event{Kind: KindIngest, Note: "new", Bytes: run.RawBytes})
	return *run, true, nil
}

// writeSegment stages the payload in tmp/ and renames it into place, so
// a segment path either doesn't exist or holds complete bytes. Callers
// hold a.mu.
func (a *Archive) writeSegment(tenant, id string, payload []byte) (int64, error) {
	path := a.segmentPath(tenant, id)
	if fi, err := os.Stat(path); err == nil {
		// Orphan left by a crashed ingest whose manifest swap never
		// landed: the bytes are content-addressed, reuse them.
		return fi.Size(), nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(a.dir, "tmp"), "seg-*")
	if err != nil {
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	name := tmp.Name()
	fail := func(err error) (int64, error) {
		tmp.Close()
		os.Remove(name)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	if a.opts.Gzip {
		zw := gzip.NewWriter(tmp)
		if _, err := zw.Write(payload); err != nil {
			return fail(err)
		}
		if err := zw.Close(); err != nil {
			return fail(err)
		}
	} else if _, err := tmp.Write(payload); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	fi, err := os.Stat(name)
	if err != nil {
		os.Remove(name)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return 0, fmt.Errorf("store: segment: %w", err)
	}
	return fi.Size(), nil
}

// Resolve looks a default-tenant run up by full content address or by
// unique prefix (at least 6 hex digits).
func (a *Archive) Resolve(id string) (Run, error) {
	return a.Tenant(DefaultTenant).Resolve(id)
}

func (a *Archive) resolve(tenant, id string) (Run, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	runs := a.runs[tenant]
	if r, ok := runs[id]; ok {
		return *r, nil
	}
	if len(id) >= 6 && len(id) < 64 {
		var found *Run
		for k, r := range runs {
			if strings.HasPrefix(k, id) {
				if found != nil {
					return Run{}, fmt.Errorf("store: run %q is %w", id, ErrAmbiguous)
				}
				found = r
			}
		}
		if found != nil {
			return *found, nil
		}
	}
	return Run{}, fmt.Errorf("store: run %q %w", id, ErrNotFound)
}

// Payload returns the canonical (uncompressed) segment bytes of a
// default-tenant run, verifying them against the content address.
func (a *Archive) Payload(id string) ([]byte, Run, error) {
	return a.Tenant(DefaultTenant).Payload(id)
}

func (a *Archive) payload(tenant, id string) ([]byte, Run, error) {
	start := time.Now()
	run, err := a.resolve(tenant, id)
	if err != nil {
		return nil, Run{}, err
	}
	raw, err := a.readSegment(run)
	if err != nil {
		return nil, Run{}, err
	}
	sum := sha256.Sum256(raw)
	if hex.EncodeToString(sum[:]) != run.ID {
		return nil, Run{}, fmt.Errorf("store: segment %s is corrupt (content hash mismatch)", run.ID[:12])
	}
	a.mGets.Inc()
	a.hGet.Observe(time.Since(start).Nanoseconds())
	return raw, run, nil
}

// StoredPayload returns the on-disk segment bytes of a default-tenant
// run as stored (gzip frame intact when the archive compresses), for
// zero-copy HTTP serving with Content-Encoding: gzip.
func (a *Archive) StoredPayload(id string) ([]byte, Run, error) {
	return a.Tenant(DefaultTenant).StoredPayload(id)
}

func (a *Archive) storedPayload(tenant, id string) ([]byte, Run, error) {
	run, err := a.resolve(tenant, id)
	if err != nil {
		return nil, Run{}, err
	}
	b, err := os.ReadFile(a.segmentPath(tenant, run.ID))
	if err != nil {
		return nil, Run{}, fmt.Errorf("store: segment: %w", err)
	}
	a.mGets.Inc()
	return b, run, nil
}

func (a *Archive) readSegment(run Run) ([]byte, error) {
	f, err := os.Open(a.segmentPath(run.Tenant, run.ID))
	if err != nil {
		return nil, fmt.Errorf("store: segment: %w", err)
	}
	defer f.Close()
	var r io.Reader = f
	if run.Gzip {
		zr, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("store: segment %s: %w", run.ID[:12], err)
		}
		defer zr.Close()
		r = zr
	}
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: segment %s: %w", run.ID[:12], err)
	}
	return b, nil
}

// Get decodes an archived default-tenant run back into a trace file.
func (a *Archive) Get(id string) (*trace.File, Run, error) {
	return a.Tenant(DefaultTenant).Get(id)
}

// List returns the default-tenant runs matching q, newest first, plus
// the total match count before pagination.
func (a *Archive) List(q Query) ([]Run, int) {
	return a.Tenant(DefaultTenant).List(q)
}

func (a *Archive) list(tenant string, q Query) ([]Run, int) {
	a.mu.Lock()
	matched := make([]Run, 0, len(a.runs[tenant]))
	for _, r := range a.runs[tenant] {
		if q.Benchmark != "" && r.Benchmark != q.Benchmark {
			continue
		}
		if q.P != 0 && r.P != q.P {
			continue
		}
		if q.SigSet != "" && r.SigSet != q.SigSet {
			continue
		}
		if q.Sig != 0 && !containsSig(r.Sigs, q.Sig) {
			continue
		}
		matched = append(matched, *r)
	}
	a.mu.Unlock()
	a.mLists.Inc()

	sort.Slice(matched, func(i, j int) bool {
		if !matched[i].Ingested.Equal(matched[j].Ingested) {
			return matched[i].Ingested.After(matched[j].Ingested)
		}
		return matched[i].ID < matched[j].ID
	})
	total := len(matched)
	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			return nil, total
		}
		matched = matched[q.Offset:]
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	return matched, total
}

func containsSig(sorted []uint64, sig uint64) bool {
	i := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= sig })
	return i < len(sorted) && sorted[i] == sig
}

// Delete drops a default-tenant run from the manifest. The segment
// stays on disk as an orphan (the store is append-only) until Compact
// reclaims it.
func (a *Archive) Delete(id string) error {
	return a.Tenant(DefaultTenant).Delete(id)
}

func (a *Archive) deleteRun(tenant, id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	r, ok := a.runs[tenant][id]
	if !ok {
		return fmt.Errorf("store: run %q %w", id, ErrNotFound)
	}
	delete(a.runs[tenant], id)
	a.used[tenant] -= r.RawBytes
	if err := a.writeManifest(); err != nil {
		a.runs[tenant][id] = r
		a.used[tenant] += r.RawBytes
		return err
	}
	a.mDeletes.Inc()
	return nil
}

// Compact removes segment files no manifest run references (crashed
// ingests, deleted runs) across every tenant and clears the tmp staging
// area. It returns the number of files removed.
func (a *Archive) Compact() (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	removed := 0
	var firstErr error

	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// Every tenant payload tree: the legacy default-tenant layout plus
	// tenants/<name>/ for everyone else — including directories of
	// tenants the manifest no longer mentions at all.
	roots := map[string]string{DefaultTenant: a.dir}
	if entries, err := os.ReadDir(filepath.Join(a.dir, "tenants")); err == nil {
		for _, e := range entries {
			if e.IsDir() {
				roots[e.Name()] = filepath.Join(a.dir, "tenants", e.Name())
			}
		}
	}
	for tenant, root := range roots {
		n, err := a.compactTreeLocked(tenant, filepath.Join(root, "segments"), ".seg")
		removed += n
		note(err)
		n, err = a.compactTreeLocked(tenant, filepath.Join(root, "edges"), ".jsonl")
		removed += n
		note(err)
		if tenant != DefaultTenant {
			// Drop a fully emptied tenant directory; best-effort.
			os.Remove(filepath.Join(root, "segments"))
			os.Remove(filepath.Join(root, "edges"))
			os.Remove(root)
		}
	}

	// Ingest holds the same lock while staging, so anything left in
	// tmp/ is debris from a crashed process.
	if tmps, err := os.ReadDir(filepath.Join(a.dir, "tmp")); err == nil {
		for _, t := range tmps {
			if os.Remove(filepath.Join(a.dir, "tmp", t.Name())) == nil {
				removed++
			}
		}
	}

	a.mCompacts.Inc()
	a.mOrphans.Add(uint64(removed))
	if removed > 0 || firstErr != nil {
		a.opts.Journal.Emit(obs.Event{Kind: KindCompact, Count: uint64(removed)})
	}
	if firstErr != nil {
		return removed, fmt.Errorf("store: compact: %w", firstErr)
	}
	return removed, nil
}

// compactTreeLocked removes files under a fan-out tree (segments or
// edges) whose trimmed name is not a live run of the tenant. Callers
// hold a.mu.
func (a *Archive) compactTreeLocked(tenant, root, ext string) (removed int, firstErr error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	for _, sub := range entries {
		if !sub.IsDir() {
			continue
		}
		subPath := filepath.Join(root, sub.Name())
		files, err := os.ReadDir(subPath)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		for _, f := range files {
			id := strings.TrimSuffix(f.Name(), ext)
			if _, live := a.runs[tenant][id]; live {
				continue
			}
			if err := os.Remove(filepath.Join(subPath, f.Name())); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			removed++
		}
		os.Remove(subPath) // drop now-empty fan-out directories; best-effort
	}
	return removed, firstErr
}

// Len returns the number of archived runs across all tenants.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, t := range a.runs {
		n += len(t)
	}
	return n
}
