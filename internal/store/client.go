package store

// HTTP client helpers: the CLI tools accept `http(s)://` run references
// wherever they accept a trace path, and chamrun -push uploads the
// merged online trace to a chamd archive after Finalize.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"time"

	"chameleon/internal/cq"
	"chameleon/internal/mesh"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
)

// httpClient disables the transport's transparent gzip so transfer
// byte counts are observable; decompression is explicit in fetch.
var httpClient = &http.Client{
	Timeout: 60 * time.Second,
	Transport: &http.Transport{
		DisableCompression: true,
	},
}

// clientTenant is the tenant every client helper stamps on its
// requests (the CLI tools' -tenant flag). Empty means the server-side
// default tenant.
var clientTenant string

// SetTenant namespaces all subsequent client-helper requests from this
// process under the named tenant.
func SetTenant(tenant string) { clientTenant = tenant }

// call sends one client request with the process tenant attached and
// fails unless the answer's status is one of ok, quoting up to 512 bytes
// of the answer. On success out, when non-nil, receives the answer: the
// raw bytes for a *[]byte, the decoded JSON for anything else. The
// returned response's body is already drained and closed.
func call(method, url string, hdr http.Header, body []byte, out any, ok ...int) (*http.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if clientTenant != "" {
		req.Header.Set(mesh.HeaderTenant, clientTenant)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if !slices.Contains(ok, resp.StatusCode) {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(msg)))
	}
	switch out := out.(type) {
	case nil:
	case *[]byte:
		if *out, err = io.ReadAll(resp.Body); err != nil {
			return nil, fmt.Errorf("%s %s: %w", method, url, err)
		}
	default:
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return nil, fmt.Errorf("%s %s: decode response: %w", method, url, err)
		}
	}
	return resp, nil
}

// gzipBody returns a request body and its headers, gzip-compressed when
// asked.
func gzipBody(b []byte, contentType string, useGzip bool) ([]byte, http.Header, error) {
	hdr := http.Header{"Content-Type": {contentType}}
	if !useGzip {
		return b, hdr, nil
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		return nil, nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, nil, err
	}
	hdr.Set("Content-Encoding", "gzip")
	return buf.Bytes(), hdr, nil
}

// IsRef reports whether the trace reference is an HTTP(S) URL rather
// than a local path.
func IsRef(s string) bool {
	return strings.HasPrefix(s, "http://") || strings.HasPrefix(s, "https://")
}

// TransferStats describes one HTTP trace fetch: bytes moved on the
// wire vs. the decoded payload size (they differ under gzip transfer).
type TransferStats struct {
	WireBytes int64
	RawBytes  int64
	Gzip      bool
}

func (t TransferStats) String() string {
	if t.Gzip {
		return fmt.Sprintf("%d B gzip on the wire, %d B raw", t.WireBytes, t.RawBytes)
	}
	return fmt.Sprintf("%d B on the wire", t.WireBytes)
}

// FetchBytes GETs a run reference and returns the decoded payload plus
// transfer statistics.
func FetchBytes(url string) ([]byte, TransferStats, error) {
	var wire []byte
	resp, err := call(http.MethodGet, url, http.Header{"Accept-Encoding": {"gzip"}}, nil, &wire, http.StatusOK)
	if err != nil {
		return nil, TransferStats{}, err
	}
	stats := TransferStats{WireBytes: int64(len(wire))}
	payload := wire
	if resp.Header.Get("Content-Encoding") == "gzip" {
		stats.Gzip = true
		zr, err := gzip.NewReader(bytes.NewReader(wire))
		if err != nil {
			return nil, TransferStats{}, fmt.Errorf("GET %s: gzip: %w", url, err)
		}
		payload, err = io.ReadAll(zr)
		if err != nil {
			return nil, TransferStats{}, fmt.Errorf("GET %s: gzip: %w", url, err)
		}
		if err := zr.Close(); err != nil {
			return nil, TransferStats{}, fmt.Errorf("GET %s: gzip: %w", url, err)
		}
	}
	stats.RawBytes = int64(len(payload))
	return payload, stats, nil
}

// LoadTraceStats resolves a trace reference — a local path or an
// http(s):// run URL — into a decoded trace file. The stats pointer is
// non-nil exactly for remote fetches.
func LoadTraceStats(ref string) (*trace.File, *TransferStats, error) {
	if !IsRef(ref) {
		f, err := trace.LoadAny(ref)
		return f, nil, err
	}
	payload, stats, err := FetchBytes(ref)
	if err != nil {
		return nil, nil, err
	}
	f, err := trace.ReadAny(bytes.NewReader(payload))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", ref, err)
	}
	return f, &stats, nil
}

// LoadTrace resolves a trace reference (local path or http(s):// run
// URL) into a decoded trace file.
func LoadTrace(ref string) (*trace.File, error) {
	f, _, err := LoadTraceStats(ref)
	return f, err
}

// OpenRef opens a reference as a byte stream: a local file, or the
// body of an HTTP GET (journals, edge files, Chrome traces).
func OpenRef(ref string) (io.ReadCloser, error) {
	if !IsRef(ref) {
		return os.Open(ref)
	}
	payload, _, err := FetchBytes(ref)
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(payload)), nil
}

// FetchStats GETs a run's compressed-domain analysis report from a
// chamd archive: base is the archive root, id a run reference (full
// content address or unique prefix). The report is computed server-side
// without expanding the stored trace.
func FetchStats(base, id string) (StatsResponse, error) {
	var out StatsResponse
	if err := getJSON(strings.TrimSuffix(base, "/")+"/runs/"+id+"/stats", &out); err != nil {
		return StatsResponse{}, err
	}
	return out, nil
}

// FetchWaves requests the server-side idle-wave report over a run's
// edge sidecar. A positive cols asks the server to treat ranks as a
// row-major cols-wide grid (?cols= query param).
func FetchWaves(base, id string, cols int) (WavesResponse, error) {
	url := strings.TrimSuffix(base, "/") + "/runs/" + id + "/waves"
	if cols > 0 {
		url += fmt.Sprintf("?cols=%d", cols)
	}
	var out WavesResponse
	if err := getJSON(url, &out); err != nil {
		return WavesResponse{}, err
	}
	return out, nil
}

// FetchEdges downloads a run's causal edge sidecar.
func FetchEdges(base, id string) ([]obs.Edge, error) {
	var jsonl []byte
	if _, err := call(http.MethodGet, strings.TrimSuffix(base, "/")+"/runs/"+id+"/edges", nil, nil, &jsonl, http.StatusOK); err != nil {
		return nil, err
	}
	return obs.ReadEdges(bytes.NewReader(jsonl))
}

// PushEdges attaches a causal edge sidecar (JSONL bytes, the format
// obs.WriteEdges produces) to an already-pushed run.
func PushEdges(base, id string, jsonl []byte, useGzip bool) error {
	body, hdr, err := gzipBody(jsonl, "application/x-ndjson", useGzip)
	if err != nil {
		return err
	}
	_, err = call(http.MethodPut, strings.TrimSuffix(base, "/")+"/runs/"+id+"/edges", hdr, body, nil, http.StatusOK)
	return err
}

// Push uploads a trace to a chamd archive rooted at base (e.g.
// "http://host:8321"; a trailing "/runs" is accepted too). It returns
// the server's manifest record and whether the run was new to the
// archive (false = content-address dedup).
func Push(base string, f *trace.File, useGzip bool) (Run, bool, error) {
	payload, _, err := Encode(f)
	if err != nil {
		return Run{}, false, err
	}
	return PushBytes(base, payload, useGzip)
}

// PushBytes uploads an already-serialized trace payload.
func PushBytes(base string, payload []byte, useGzip bool) (Run, bool, error) {
	url := strings.TrimSuffix(base, "/")
	if !strings.HasSuffix(url, "/runs") {
		url += "/runs"
	}
	body, hdr, err := gzipBody(payload, "application/octet-stream", useGzip)
	if err != nil {
		return Run{}, false, err
	}
	var run Run
	resp, err := call(http.MethodPut, url, hdr, body, &run, http.StatusOK, http.StatusCreated)
	if err != nil {
		return Run{}, false, err
	}
	return run, resp.StatusCode == http.StatusCreated, nil
}

// FetchRuns lists a chamd archive's runs. query is the raw filter
// string ("benchmark=lulesh&p=64"), without limit/offset; those come
// from the offset parameter and the server's page size. The returned
// ListResponse carries Next when more pages remain.
func FetchRuns(base, query string, limit, offset int) (ListResponse, error) {
	u := strings.TrimSuffix(base, "/") + "/runs"
	sep := "?"
	if query != "" {
		u += sep + query
		sep = "&"
	}
	if limit > 0 {
		u += fmt.Sprintf("%slimit=%d", sep, limit)
		sep = "&"
	}
	if offset > 0 {
		u += fmt.Sprintf("%soffset=%d", sep, offset)
	}
	var out ListResponse
	if err := getJSON(u, &out); err != nil {
		return ListResponse{}, err
	}
	return out, nil
}

// RegisterCQ registers (or replaces) a continuous query on a chamd
// archive and returns the stored spec.
func RegisterCQ(base string, spec cq.Spec) (cq.Spec, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return cq.Spec{}, err
	}
	var out cq.Spec
	if _, err := call(http.MethodPut, strings.TrimSuffix(base, "/")+"/cq", http.Header{"Content-Type": {"application/json"}},
		body, &out, http.StatusOK, http.StatusCreated); err != nil {
		return cq.Spec{}, err
	}
	return out, nil
}

// FetchCQs lists the tenant's registered continuous queries.
func FetchCQs(base string) ([]cq.Spec, error) {
	var out []cq.Spec
	if err := getJSON(strings.TrimSuffix(base, "/")+"/cq", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// DeleteCQ drops a registered continuous query by name.
func DeleteCQ(base, name string) error {
	_, err := call(http.MethodDelete, strings.TrimSuffix(base, "/")+"/cq/"+name, nil, nil, nil, http.StatusNoContent, http.StatusOK)
	return err
}

// FetchCQFeed fetches the tenant's continuous-query event feed.
func FetchCQFeed(base string) (cq.FeedView, error) {
	var out cq.FeedView
	if err := getJSON(strings.TrimSuffix(base, "/")+"/cq/events", &out); err != nil {
		return cq.FeedView{}, err
	}
	return out, nil
}

// WatchCQFeed long-polls the tenant's CQ feed until its version
// exceeds after or timeout elapses server-side.
func WatchCQFeed(base string, after uint64, timeout time.Duration) (cq.FeedView, error) {
	u := fmt.Sprintf("%s/cq/events?version=%d&timeout=%s",
		strings.TrimSuffix(base, "/"), after, timeout)
	var out cq.FeedView
	if err := getJSON(u, &out); err != nil {
		return cq.FeedView{}, err
	}
	return out, nil
}

// FetchMeshStatus fetches a peer's federation identity and per-tenant
// usage.
func FetchMeshStatus(base string) (MeshStatus, error) {
	var out MeshStatus
	if err := getJSON(strings.TrimSuffix(base, "/")+"/mesh/status", &out); err != nil {
		return MeshStatus{}, err
	}
	return out, nil
}

// TriggerSweep asks a peer to run one anti-entropy pass now and
// returns its report.
func TriggerSweep(base string) (mesh.SweepReport, error) {
	var out struct {
		mesh.SweepReport
		Error string `json:"error,omitempty"`
	}
	if _, err := call(http.MethodPost, strings.TrimSuffix(base, "/")+"/mesh/sweep", nil, nil, &out, http.StatusOK); err != nil {
		return mesh.SweepReport{}, err
	}
	if out.Error != "" {
		return out.SweepReport, fmt.Errorf("sweep: %s", out.Error)
	}
	return out.SweepReport, nil
}
