package mpi

// The binomial (radix) tree every tree-shaped exchange runs on: the
// communicator collectives, the survivor-group collectives, Chameleon's
// vote, the distributed clustering up the tree, and the inter-node trace
// merge over the K leads ("a reduction step over a radix tree rooted in
// rank 0"). Position 0 is the root; the parent of position v is
// v - lowbit(v) and its children are v|mask for every mask below
// lowbit(v). One reduce walk and one broadcast walk own the topology and
// the send/receive order; callers keep their own cost accounting.

// TreePos returns self's position in the ordered member list, or -1 if
// self is not a member. Position 0 is the tree root.
func TreePos(members []int, self int) int {
	for i, m := range members {
		if m == self {
			return i
		}
	}
	return -1
}

// Tree is one rank's view of a binomial tree: it maps tree positions to
// ranks of an internal (untraced) carrier communicator. Build it with
// Members, or Comm.tree for a communicator's own collectives.
type Tree struct {
	in    Comm
	ranks []int // carrier rank at index i; nil means rank i itself
	root  int   // index of tree position 0
	n     int
	pos   int // this rank's position; -1 for non-members
}

// Members returns this rank's view of the tree over members, an ordered
// list of world ranks identical on every member (position i is
// members[i]). A nil list means the whole world in rank order.
func Members(p *Proc, members []int) Tree {
	t := Tree{in: Comm{p: p, id: CommInternal, group: p.world.group, self: p.rank}, ranks: members, n: len(members)}
	if members == nil {
		t.n, t.pos = p.rt.p, p.rank
	} else {
		t.pos = TreePos(members, p.rank)
	}
	return t
}

// tree returns the communicator's tree rooted at comm rank root: comm
// ranks are rotated so root sits at position 0.
func (c *Comm) tree(root int) Tree {
	n := len(c.group)
	return Tree{in: c.internal(), root: root, n: n, pos: (c.self - root + n) % n}
}

// IsMember reports whether this rank takes part in the tree.
func (t Tree) IsMember() bool { return t.pos >= 0 }

// Size returns the number of tree positions.
func (t Tree) Size() int { return t.n }

// at returns the carrier rank at index i (positions before rotation).
func (t Tree) at(i int) int {
	if t.ranks == nil {
		return i
	}
	return t.ranks[i]
}

// index returns this member's index: its member position, or its comm
// rank in a communicator's tree.
func (t Tree) index() int { return (t.pos + t.root) % t.n }

// rank returns the carrier rank at tree position pos.
func (t Tree) rank(pos int) int { return t.at((pos + t.root) % t.n) }

// Reduce is the reduce-up walk. Each position receives from its children
// in ascending-mask order, handing every message to child; every
// position but the root then sends up()'s (bytes, payload) to its parent.
// It reports whether this rank is the root; non-members return false
// without traffic.
func (t Tree) Reduce(tag int, child func(Message), up func() (bytes int, payload any)) bool {
	if t.pos < 0 {
		return false
	}
	for mask := 1; mask < t.n; mask <<= 1 {
		if t.pos&mask != 0 {
			bytes, payload := up()
			t.in.rawSend(t.rank(t.pos&^mask), tag, bytes, payload)
			return false
		}
		if t.pos|mask < t.n {
			child(t.in.rawRecv(t.rank(t.pos|mask), tag))
		}
	}
	return true
}

// bcast is the broadcast-down walk. Every position but the root receives
// (bytes, payload) from its parent and calls got; every position then
// forwards to its children in descending-mask order. It returns the
// payload; non-members get theirs back without traffic.
func (t Tree) bcast(tag, bytes int, payload any, got func()) any {
	if t.pos < 0 {
		return payload
	}
	mask := 1
	for ; mask < t.n; mask <<= 1 {
		if t.pos&mask != 0 {
			msg := t.in.rawRecv(t.rank(t.pos&^mask), tag)
			payload, bytes = msg.Payload, msg.Bytes
			got()
			break
		}
	}
	for mask >>= 1; mask > 0; mask >>= 1 {
		if t.pos+mask < t.n {
			t.in.rawSend(t.rank(t.pos+mask), tag, bytes, payload)
		}
	}
	return payload
}
