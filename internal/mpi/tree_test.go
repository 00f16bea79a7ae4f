package mpi

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"chameleon/internal/obs"
	"chameleon/internal/vtime"
)

func TestTreePos(t *testing.T) {
	members := []int{5, 9, 2, 7}
	if TreePos(members, 9) != 1 {
		t.Fatalf("pos of 9")
	}
	if TreePos(members, 4) != -1 {
		t.Fatalf("non-member found")
	}
}

// treeChildren returns the positions whose binomial parent
// (c - lowbit(c)) is pos, ascending — the order the reduce walk receives
// in.
func treeChildren(pos, n int) []int {
	var out []int
	for c := pos + 1; c < n; c++ {
		if c-lowbit(c) == pos {
			out = append(out, c)
		}
	}
	return out
}

// TestTreeParentChildSymmetry runs the reduce walk over whole worlds of
// n ranks: every non-root position sends up exactly once, exactly one
// parent (a lower position) receives it as a child, and the children
// lists reach every position from the root exactly once.
func TestTreeParentChildSymmetry(t *testing.T) {
	for n := 1; n <= 70; n++ {
		ups := make([]int, n)
		children := make([][]int, n)
		run(t, n, func(p *Proc) {
			pos := p.Rank()
			Members(p, nil).Reduce(1<<30, func(m Message) {
				children[pos] = append(children[pos], m.Payload.(int))
			}, func() (int, any) {
				ups[pos]++
				return 8, pos
			})
		})
		parentOf := make(map[int]int, n)
		for parent, kids := range children {
			for _, c := range kids {
				if _, dup := parentOf[c]; dup {
					t.Fatalf("n=%d: position %d received by two parents", n, c)
				}
				if c <= parent || c >= n {
					t.Fatalf("n=%d: parent %d received child %d out of range", n, parent, c)
				}
				parentOf[c] = parent
			}
		}
		for pos := 1; pos < n; pos++ {
			if ups[pos] != 1 {
				t.Fatalf("n=%d pos=%d: sent up %d times", n, pos, ups[pos])
			}
			if _, ok := parentOf[pos]; !ok {
				t.Fatalf("n=%d: no parent lists child %d", n, pos)
			}
		}
		// Reachability: BFS from root covers all positions exactly once.
		seen := map[int]bool{0: true}
		frontier := []int{0}
		for len(frontier) > 0 {
			var next []int
			for _, f := range frontier {
				for _, c := range children[f] {
					if seen[c] {
						t.Fatalf("n=%d: position %d reached twice", n, c)
					}
					seen[c] = true
					next = append(next, c)
				}
			}
			frontier = next
		}
		if len(seen) != n {
			t.Fatalf("n=%d: reached %d positions", n, len(seen))
		}
	}
}

// TestTreeParentRoot checks that the root has no parent: on a
// communicator tree rooted at every rank, only the root's reduce walk
// reports it is the root, and the root never sends up.
func TestTreeParentRoot(t *testing.T) {
	const n = 9
	for root := 0; root < n; root++ {
		isRoot := make([]bool, n)
		ups := make([]int, n)
		run(t, n, func(p *Proc) {
			r := p.Rank()
			isRoot[r] = p.World().tree(root).Reduce(1<<30, func(Message) {}, func() (int, any) {
				ups[r]++
				return 0, nil
			})
		})
		for r := 0; r < n; r++ {
			if isRoot[r] != (r == root) {
				t.Fatalf("root %d: rank %d reports root=%v", root, r, isRoot[r])
			}
			if r == root && ups[r] != 0 || r != root && ups[r] != 1 {
				t.Fatalf("root %d: rank %d sent up %d times", root, r, ups[r])
			}
		}
	}
}

// walkCase is one tree to walk: the world rank at every position.
type walkCase struct {
	name  string
	ranks []int
	tree  func(p *Proc) Tree
}

// walkCases returns, for a world of n ranks, the communicator tree at
// every root, and member trees at every rotation of a contiguous and of a
// non-contiguous member list (world 2n+1, so neither list starts at 0 or
// covers the world).
func walkCases(n int) (world int, cases []walkCase) {
	world = 2*n + 1
	for root := 0; root < n; root++ {
		root := root
		ranks := make([]int, n)
		for pos := range ranks {
			ranks[pos] = (pos + root) % n
		}
		cases = append(cases, walkCase{fmt.Sprintf("comm/root%d", root), ranks, func(p *Proc) Tree {
			if p.Rank() >= n {
				return Members(p, []int{})
			}
			c := &Comm{p: p, id: CommWorld, group: p.world.group[:n], self: p.Rank()}
			return c.tree(root)
		}})
	}
	contiguous := make([]int, n)
	scattered := make([]int, n)
	for i := range contiguous {
		contiguous[i] = i + 1
		scattered[i] = world - 1 - 2*i // descending odd/even stride
	}
	for _, base := range []struct {
		name    string
		members []int
	}{{"contiguous", contiguous}, {"scattered", scattered}} {
		for rot := 0; rot < n; rot++ {
			members := append(append([]int(nil), base.members[rot:]...), base.members[:rot]...)
			cases = append(cases, walkCase{fmt.Sprintf("%s/rot%d", base.name, rot), members,
				func(p *Proc) Tree { return Members(p, members) }})
		}
	}
	return world, cases
}

// TestTreeWalkOrder checks both walks on every tree shape: in the reduce
// walk each position receives from exactly its children, in ascending-
// mask order, and sends once to its parent; in the broadcast walk each
// non-root receives once from its parent and every position forwards to
// its children in descending-mask order.
func TestTreeWalkOrder(t *testing.T) {
	const walkTag = 1 << 30
	for n := 1; n <= 33; n++ {
		world, cases := walkCases(n)
		o := obs.New(obs.Options{CausalRanks: world})
		_, err := Run(Config{P: world, Obs: o}, func(p *Proc) {
			for i, c := range cases {
				tree := c.tree(p)
				tree.Reduce(walkTag+2*i, func(Message) {}, func() (int, any) { return 0, nil })
				tree.bcast(walkTag+2*i+1, 0, nil, func() {})
			}
		})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for i, c := range cases {
			posOf := make(map[int]int, n)
			for pos, r := range c.ranks {
				posOf[r] = pos
			}
			// recvd[k][pos]: senders' positions in receive order;
			// sends[k][pos]: the edges pos sent, in any order.
			var recvd [2][][]int
			var sends [2][][]obs.Edge
			for k := range recvd {
				recvd[k], sends[k] = make([][]int, n), make([][]obs.Edge, n)
			}
			for r := 0; r < world; r++ {
				for _, e := range o.Causal.RankEdges(r) {
					k := e.Tag - walkTag - 2*i
					if e.Ctx != "" || (k != 0 && k != 1) {
						continue
					}
					from, okF := posOf[e.From]
					to, okT := posOf[e.To]
					if !okF || !okT {
						t.Fatalf("n=%d %s: edge outside the tree: %+v", n, c.name, e)
					}
					recvd[k][to] = append(recvd[k][to], from)
					sends[k][from] = append(sends[k][from], e)
				}
			}
			// sent returns the receivers' positions in pos's send order
			// (its per-rank send sequence numbers).
			sent := func(k, pos int) []int {
				es := sends[k][pos]
				sort.Slice(es, func(a, b int) bool { return es[a].Seq < es[b].Seq })
				var out []int
				for _, e := range es {
					out = append(out, posOf[e.To])
				}
				return out
			}
			for pos := 0; pos < n; pos++ {
				kids := treeChildren(pos, n)
				var parent []int
				if pos > 0 {
					parent = []int{pos - lowbit(pos)}
				}
				desc := append([]int(nil), kids...)
				sort.Sort(sort.Reverse(sort.IntSlice(desc)))
				checks := []struct {
					what      string
					got, want []int
				}{
					{"reduce receives", recvd[0][pos], kids},
					{"reduce sends", sent(0, pos), parent},
					{"bcast receives", recvd[1][pos], parent},
					{"bcast sends", sent(1, pos), desc},
				}
				for _, ck := range checks {
					if fmt.Sprint(ck.got) != fmt.Sprint(ck.want) {
						t.Fatalf("n=%d %s pos %d: %s %v, want %v", n, c.name, pos, ck.what, ck.got, ck.want)
					}
				}
			}
		}
	}
}

// TestCommAndMemberTreesAgree runs each communicator collective on a
// Dup'd communicator and the same collective over the member tree of the
// same rank order: values and clocks must be bit-equal.
func TestCommAndMemberTreesAgree(t *testing.T) {
	const P = 11
	type outcome struct {
		vals   []any
		clocks []vtime.Time
	}
	runOnce := func(viaComm bool) [P]outcome {
		var out [P]outcome
		run(t, P, func(p *Proc) {
			d := p.World().Dup()
			tree := Members(p, d.group)
			tag := 1 << 30
			note := func(v any) {
				out[p.Rank()].vals = append(out[p.Rank()].vals, v)
				out[p.Rank()].clocks = append(out[p.Rank()].clocks, p.Clock.Now())
			}
			payloads := make([]any, P)
			for i := range payloads {
				payloads[i] = uint64(100 + i)
			}
			if viaComm {
				note(d.Bcast(0, 64, uint64(7)))
				note(d.Reduce(0, 8, uint64(p.Rank()), OpSum))
				note(d.Allreduce(8, uint64(p.Rank()), OpMax))
				note(d.Gather(0, 16, p.Rank()))
				note(d.Allgather(16, p.Rank()))
				note(d.Scatter(0, 32, payloads))
				d.Alltoall(48)
				note(nil)
				return
			}
			note(tree.BcastObj(tag, uint64(7), 64))
			r, _ := tree.ReduceU64(tag+16, uint64(p.Rank()), OpSum)
			note(r)
			note(tree.AllreduceU64(tag+32, uint64(p.Rank()), OpMax))
			note(tree.GatherObj(tag+48, 16, p.Rank()))
			note(tree.Allgather(tag+64, 16, p.Rank()))
			note(tree.Scatter(tag+80, 32, payloads))
			tree.Alltoall(tag+96, 48)
			note(nil)
		})
		return out
	}
	viaComm, viaTree := runOnce(true), runOnce(false)
	for r := 0; r < P; r++ {
		if !reflect.DeepEqual(viaComm[r], viaTree[r]) {
			t.Fatalf("rank %d: comm %+v, member tree %+v", r, viaComm[r], viaTree[r])
		}
	}
}

func TestOpCodeStrings(t *testing.T) {
	for op := OpNone; op < numOpCodes; op++ {
		if op.String() == "" || op.String() == "op?" {
			t.Fatalf("op %d has no name", op)
		}
	}
	if OpCode(200).String() != "op?" {
		t.Fatalf("unknown op name")
	}
	if ParseOpCode("Send") != OpSend || ParseOpCode("garbage") != OpNone {
		t.Fatalf("ParseOpCode broken")
	}
}

func TestOpCodeClassification(t *testing.T) {
	if !OpSend.IsPointToPoint() || OpSend.IsCollective() {
		t.Fatalf("Send classification")
	}
	if !OpBarrier.IsCollective() || OpBarrier.IsPointToPoint() {
		t.Fatalf("Barrier classification")
	}
	if OpWait.IsCollective() {
		t.Fatalf("Wait classified collective")
	}
}

func TestMailboxPending(t *testing.T) {
	mb := newMailbox(new(atomic.Bool))
	if mb.pending() != 0 {
		t.Fatalf("fresh mailbox pending")
	}
	mb.deposit(message{comm: CommWorld, source: 1, tag: 2})
	if mb.pending() != 1 {
		t.Fatalf("pending after deposit")
	}
	mb.take(CommWorld, 1, 2, func() {})
	if mb.pending() != 0 {
		t.Fatalf("pending after take")
	}
}

func TestMinArrive(t *testing.T) {
	mb := newMailbox(new(atomic.Bool))
	if _, ok := mb.minArrive(); ok {
		t.Fatalf("empty mailbox has minArrive")
	}
	mb.deposit(message{comm: CommWorld, source: 0, tag: 1, arrive: 50})
	mb.deposit(message{comm: CommInternal, source: 1, tag: 2, arrive: 10})
	if m, ok := mb.minArrive(); !ok || m != 10 {
		t.Fatalf("minArrive = %v/%v", m, ok)
	}
}
