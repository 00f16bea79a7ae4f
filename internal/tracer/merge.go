package tracer

import (
	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/trace"
	"chameleon/internal/vtime"
)

// MergeOverTree runs one inter-node compression step: every member rank
// contributes its node sequence, traces are merged pairwise up a
// binomial (radix) tree, and members[0] returns the merged sequence
// (nil on other ranks; non-members return mine unchanged). A nil
// members list means all ranks.
//
// members must be in identical order on every participating rank, and
// every member must call MergeOverTree with the same tag. Transfer costs
// are charged by the runtime (message sizes equal the serialized trace
// footprint); merge work is charged per structural comparison and per
// byte to the given ledger category — together these realize the
// paper's O(n² log |members|) inter-compression cost.
func MergeOverTree(p *mpi.Proc, members []int, mine []*trace.Node, filter bool, tag int, cat vtime.Category) []*trace.Node {
	tree := mpi.Members(p, members)
	if !tree.IsMember() {
		return mine
	}
	// Default causal label (tag distinguishes rounds); core's explicit
	// "merge:<cause>" context, when set, takes precedence.
	defer p.CausalContextDefault("merge", tag)()
	model := p.Model()
	// Handles are nil-safe when metrics are off; no guard needed.
	o := p.Obs()
	mSteps := o.Counter("tracer_merge_steps_total")
	mCompares := o.Counter("tracer_merge_compares_total")
	mBytes := o.Counter("tracer_merge_bytes_total")
	o.Gauge("tracer_merge_tree_depth").SetMax(int64(vtime.Log2Ceil(tree.Size())))
	acc := mine
	// t0 marks where the next transfer starts: each receive, and the
	// final send, book the time they put on the clock.
	t0 := p.Clock.Now()
	root := tree.Reduce(tag, func(msg mpi.Message) {
		p.Ledger.Charge(cat, vtime.Duration(p.Clock.Now()-t0))
		o.Span(p.Rank(), "merge-wait", obs.CatTracer, t0, p.Clock.Now())
		child, _ := msg.Payload.([]*trace.Node)
		// Ownership is linear along the tree: the child rank sent its
		// sequence away and this rank's acc is not referenced elsewhere,
		// so the merger consumes both in place instead of deep-copying.
		m := trace.Merger{Filter: filter, P: p.Size(), Owned: true}
		acc = m.Merge(acc, child)
		p.ChargeOverhead(cat,
			model.MergeFixed+
				vtime.Duration(m.Stats.Compares)*model.ComparePerOp+
				vtime.Duration(m.Stats.BytesMerged)*model.MergePerByte)
		mSteps.Inc()
		mCompares.Add(uint64(m.Stats.Compares))
		mBytes.Add(uint64(m.Stats.BytesMerged))
		o.Emit(obs.Event{
			Kind: obs.KindMerge, Rank: p.Rank(), VT: int64(p.Clock.Now()),
			Count: uint64(m.Stats.Compares), Bytes: int64(m.Stats.BytesMerged),
		})
		t0 = p.Clock.Now()
	}, func() (int, any) { return trace.SizeBytes(acc), acc })
	if !root {
		p.Ledger.Charge(cat, vtime.Duration(p.Clock.Now()-t0))
		return nil
	}
	return acc
}
