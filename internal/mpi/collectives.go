package mpi

// ReduceOp combines two uint64 reduction operands.
type ReduceOp func(a, b uint64) uint64

// Built-in reduction operators.
var (
	OpSum ReduceOp = func(a, b uint64) uint64 { return a + b }
	OpMax ReduceOp = func(a, b uint64) uint64 {
		if a > b {
			return a
		}
		return b
	}
	OpMin ReduceOp = func(a, b uint64) uint64 {
		if a < b {
			return a
		}
		return b
	}
	OpBor ReduceOp = func(a, b uint64) uint64 { return a | b }
)

// nextSeq advances this rank's collective sequence number for the
// communicator.
func (c *Comm) nextSeq() int {
	s := c.p.collSeq[c.id]
	c.p.collSeq[c.id] = s + 1
	return s
}

// CollTag consumes the communicator's next collective sequence number and
// returns its internal tag (phase 0; a second phase uses tag|1). The
// tracing layer uses it to run a member-tree collective in the
// communicator's own tag space.
func (c *Comm) CollTag() int { return collTag(c.id, c.nextSeq(), 0) }

// internal returns the untraced alias of this communicator used for
// collective internals (separate matching context, like an MPI
// collective context id).
func (c *Comm) internal() Comm {
	return Comm{p: c.p, id: CommInternal, group: c.group, self: c.self}
}

// --- collectives over a tree ------------------------------------------------
//
// Each received tree hop advances the clock by CollectivePerLevel. A
// rank outside the tree returns at once: its own value, nil, or nothing.

// hop charges one received tree level of a collective.
func (t Tree) hop() { t.in.p.Clock.Advance(t.in.p.rt.model.CollectivePerLevel) }

// ReduceU64 reduces val toward the root; the reduced value is meaningful
// only at the root (second return true). Uses tag.
func (t Tree) ReduceU64(tag int, val uint64, op ReduceOp) (uint64, bool) {
	root := t.Reduce(tag, func(m Message) {
		val = op(val, m.Payload.(uint64))
		t.hop()
	}, func() (int, any) { return 8, val })
	return val, root
}

// BcastObj broadcasts obj (of the given payload size) from the root and
// returns it on every member. Uses tag.
func (t Tree) BcastObj(tag int, obj any, bytes int) any {
	return t.bcast(tag, bytes, obj, t.hop)
}

// AllreduceU64 reduces val to the root and broadcasts the result, the
// Reduce+Bcast structure Algorithm 1 prescribes. Uses tags tag and tag|1.
func (t Tree) AllreduceU64(tag int, val uint64, op ReduceOp) uint64 {
	r, _ := t.ReduceU64(tag, val, op)
	return t.bcast(tag|1, 8, r, t.hop).(uint64)
}

// Barrier synchronizes the members: an allreduce of zero. Uses tags tag
// and tag|1.
func (t Tree) Barrier(tag int) { t.AllreduceU64(tag, 0, OpSum) }

type gatherPair struct {
	Rank int
	Obj  any
}

// GatherObj collects every member's contribution at the root, in a slice
// indexed by member position (by comm rank for a communicator's tree);
// nil elsewhere. Uses tag.
func (t Tree) GatherObj(tag, bytes int, obj any) []any {
	if t.pos < 0 {
		return nil
	}
	acc := []gatherPair{{Rank: t.index(), Obj: obj}}
	if !t.Reduce(tag, func(m Message) {
		acc = append(acc, m.Payload.([]gatherPair)...)
		bytes += m.Bytes
		t.hop()
	}, func() (int, any) { return bytes, acc }) {
		return nil
	}
	out := make([]any, t.n)
	for _, pr := range acc {
		out[pr.Rank] = pr.Obj
	}
	return out
}

// Allgather gathers every member's contribution at the root and
// broadcasts the slice back. Uses tags tag and tag|1.
func (t Tree) Allgather(tag, bytes int, obj any) []any {
	out, _ := t.bcast(tag|1, bytes*t.n, t.GatherObj(tag, bytes, obj), t.hop).([]any)
	return out
}

// Scatter sends payloads[i] (nil payloads: synthetic) from the root to
// the member at index i (member position, or comm rank), in index order,
// and returns this rank's element. Uses tag.
func (t Tree) Scatter(tag, bytes int, payloads []any) any {
	switch {
	case t.pos < 0:
		return nil
	case t.pos > 0:
		return t.in.rawRecv(t.rank(0), tag).Payload
	}
	var mine any
	for i := 0; i < t.n; i++ {
		var obj any
		if payloads != nil {
			obj = payloads[i]
		}
		if i == t.root {
			mine = obj
			continue
		}
		t.in.rawSend(t.at(i), tag, bytes, obj)
	}
	return mine
}

// Alltoall performs a pairwise exchange of bytes with every other member
// (payloads are synthetic; only the communication shape and cost
// matter): in round r a member exchanges with index self XOR r when that
// index exists, the power-of-two schedule generalized by skipping
// out-of-range peers. Uses tag.
func (t Tree) Alltoall(tag, bytes int) {
	if t.pos < 0 {
		return
	}
	self := t.index()
	for r := 1; r < nextPow2(t.n); r++ {
		if peer := self ^ r; peer < t.n {
			t.in.rawSend(t.at(peer), tag, bytes, nil)
			t.in.rawRecv(t.at(peer), tag)
		}
	}
}

func nextPow2(p int) int {
	v := 1
	for v < p {
		v <<= 1
	}
	return v
}

// --- public (traced) communicator collectives -------------------------------

// rawBarrier synchronizes all ranks of the communicator without
// interposition: a reduce followed by an empty broadcast. Tree.Barrier
// broadcasts the 8-byte sum instead; each hop's transfer time differs,
// and recorded virtual times pin both.
func (c *Comm) rawBarrier() {
	t, tag := c.tree(0), c.CollTag()
	t.ReduceU64(tag, 0, OpSum)
	t.bcast(tag|1, 0, nil, t.hop)
}

// Barrier synchronizes the communicator. Marker barriers additionally
// consult the fault injector (when one is configured): a rank scheduled
// to crash here unwinds instead of participating, and once membership
// has shrunk the survivors barrier among themselves.
func (c *Comm) Barrier() {
	if c.id == CommMarker && c.p.rt.fault != nil {
		if c.p.faultMarker() {
			return
		}
	}
	ci := &CallInfo{Op: OpBarrier, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: NoPeer}
	start := c.p.opBegin(ci)
	c.rawBarrier()
	c.p.opEnd(ci, start)
}

// Bcast broadcasts payload (of the given size) from root and returns it
// on every rank.
func (c *Comm) Bcast(root, bytes int, payload any) any {
	ci := &CallInfo{Op: OpBcast, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes}
	start := c.p.opBegin(ci)
	out := c.tree(root).BcastObj(c.CollTag(), payload, bytes)
	c.p.opEnd(ci, start)
	return out
}

// Reduce reduces val to root with op; bytes sizes the per-rank
// contribution for cost purposes.
func (c *Comm) Reduce(root, bytes int, val uint64, op ReduceOp) uint64 {
	ci := &CallInfo{Op: OpReduce, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes}
	start := c.p.opBegin(ci)
	out, _ := c.tree(root).ReduceU64(c.CollTag(), val, op)
	c.p.opEnd(ci, start)
	return out
}

// Allreduce reduces val across all ranks and distributes the result.
func (c *Comm) Allreduce(bytes int, val uint64, op ReduceOp) uint64 {
	ci := &CallInfo{Op: OpAllreduce, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: 0, Bytes: bytes}
	start := c.p.opBegin(ci)
	out := c.tree(0).AllreduceU64(c.CollTag(), val, op)
	c.p.opEnd(ci, start)
	return out
}

// Gather collects per-rank payloads at root (slice indexed by comm rank
// at root, nil elsewhere).
func (c *Comm) Gather(root, bytes int, payload any) []any {
	ci := &CallInfo{Op: OpGather, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes}
	start := c.p.opBegin(ci)
	out := c.tree(root).GatherObj(c.CollTag(), bytes, payload)
	c.p.opEnd(ci, start)
	return out
}

// Allgather collects every rank's payload everywhere.
func (c *Comm) Allgather(bytes int, payload any) []any {
	ci := &CallInfo{Op: OpAllgather, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: 0, Bytes: bytes}
	start := c.p.opBegin(ci)
	out := c.tree(0).Allgather(c.CollTag(), bytes, payload)
	c.p.opEnd(ci, start)
	return out
}

// Scatter distributes payloads[i] from root to comm rank i; returns this
// rank's element.
func (c *Comm) Scatter(root, bytes int, payloads []any) any {
	ci := &CallInfo{Op: OpScatter, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: root, Bytes: bytes}
	start := c.p.opBegin(ci)
	mine := c.tree(root).Scatter(c.CollTag(), bytes, payloads)
	c.p.opEnd(ci, start)
	return mine
}

// Alltoall performs a pairwise exchange of bytes with every other rank.
func (c *Comm) Alltoall(bytes int) {
	ci := &CallInfo{Op: OpAlltoall, Comm: c.id, Dest: NoPeer, Src: NoPeer, Root: NoPeer, Bytes: bytes}
	start := c.p.opBegin(ci)
	c.tree(0).Alltoall(c.CollTag(), bytes)
	c.p.opEnd(ci, start)
}
