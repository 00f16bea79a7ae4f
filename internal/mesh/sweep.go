package mesh

// Anti-entropy: each peer periodically asks every other peer for its
// manifest, pulls any run it owns but lacks, and merges continuous-
// query registrations (newest wins). Sweeping is pull-only — a peer
// repairs itself, never pushes — so a restarted or newly added peer
// converges without any coordination beyond the shared -peers list.
// chamd piggybacks the sweep on the archive's background compaction
// cadence; tests and operators trigger it directly (POST /mesh/sweep).

import (
	"encoding/json"
	"fmt"

	"chameleon/internal/cq"
)

// SweepReport summarizes one anti-entropy pass.
type SweepReport struct {
	PeersAsked  int `json:"peers_asked"`
	PeersFailed int `json:"peers_failed"`
	Pulled      int `json:"pulled"`
	EdgesPulled int `json:"edges_pulled"`
	CQMerged    int `json:"cq_merged"`
}

// Sweep runs one anti-entropy pass: pull every run this peer owns but
// lacks, and merge peer CQ registrations into engine (nil skips CQ
// sync). Unreachable peers are skipped, not fatal — the next sweep
// retries.
func (n *Node) Sweep(target Target, engine *cq.Engine) (SweepReport, error) {
	var rep SweepReport
	var firstErr error
	n.mSweeps.Inc()
	for _, peer := range n.others {
		rep.PeersAsked++
		if err := n.sweepPeer(peer, target, engine, &rep); err != nil {
			rep.PeersFailed++
			n.mSweepErrs.Inc()
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	return rep, firstErr
}

func (n *Node) sweepPeer(peer string, target Target, engine *cq.Engine, rep *SweepReport) error {
	body, err := n.Get(peer, "/mesh/manifest", "", ForwardRepair)
	if err != nil {
		return err
	}
	var entries []Entry
	if err := json.Unmarshal(body, &entries); err != nil {
		return fmt.Errorf("mesh: %s manifest: %w", peer, err)
	}
	for _, e := range entries {
		if !n.IsOwner(e.ID) {
			continue
		}
		if !target.Have(e.Tenant, e.ID) {
			payload, err := n.Get(peer, "/runs/"+e.ID, e.Tenant, ForwardRepair)
			if err != nil {
				return err
			}
			if err := target.Pull(e.Tenant, payload); err != nil {
				return fmt.Errorf("mesh: pull %s/%s from %s: %w", e.Tenant, e.ID[:12], peer, err)
			}
			rep.Pulled++
			n.mPulled.Inc()
		}
		// Sidecars converge like runs: an owner that lacks one a peer
		// advertises pulls it, so a replaced or newly attached sidecar
		// survives an owner's death just like the trace itself.
		if e.Edges && !target.HaveEdges(e.Tenant, e.ID) {
			jsonl, err := n.Get(peer, "/runs/"+e.ID+"/edges", e.Tenant, ForwardRepair)
			if err != nil {
				return err
			}
			if err := target.PullEdges(e.Tenant, e.ID, jsonl); err != nil {
				return fmt.Errorf("mesh: pull edges %s/%s from %s: %w", e.Tenant, e.ID[:12], peer, err)
			}
			rep.EdgesPulled++
		}
	}
	if engine != nil {
		raw, err := n.Get(peer, "/cq?all=1", "", ForwardRepair)
		if err != nil {
			return err
		}
		var specs []cq.Spec
		if err := json.Unmarshal(raw, &specs); err != nil {
			return fmt.Errorf("mesh: %s cq specs: %w", peer, err)
		}
		rep.CQMerged += engine.Merge(specs)
	}
	return nil
}
