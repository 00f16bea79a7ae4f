package apps

import (
	"runtime"
	"testing"

	"chameleon/internal/mpi"
	"chameleon/internal/obs"
	"chameleon/internal/vtime"
)

// matchKey identifies one matched receive: the sender, its send
// sequence number, and the virtual arrival time.
type matchKey struct {
	From     int
	Seq      uint64
	ArriveVT int64
}

// matchRun is one run's receive order per rank plus its makespan.
type matchRun struct {
	order    [][]matchKey
	makespan vtime.Duration
}

// runMatchOrder runs body on p ranks with causal capture on and returns
// every rank's receive order.
func runMatchOrder(t *testing.T, p int, body func(*mpi.Proc)) matchRun {
	t.Helper()
	o := obs.New(obs.Options{CausalRanks: p})
	res, err := mpi.Run(mpi.Config{P: p, Obs: o}, body)
	if err != nil {
		t.Fatal(err)
	}
	out := matchRun{order: make([][]matchKey, p), makespan: res.Makespan}
	for r := 0; r < p; r++ {
		for _, e := range o.Causal.RankEdges(r) {
			out.order[r] = append(out.order[r], matchKey{e.From, e.Seq, e.ArriveVT})
		}
	}
	return out
}

// twoWildcardBody is a master/worker pipeline with two masters and a
// wildcard receive on both sides: masters 0 and 1 serve requests from
// any worker, and every worker asks both masters each round and takes
// the two tasks in whichever order they can arrive.
func twoWildcardBody(p, rounds int) func(*mpi.Proc) {
	const (
		tagRequest = 11
		tagTask    = 12
	)
	return func(proc *mpi.Proc) {
		w := proc.World()
		rank := proc.Rank()
		for round := 0; round < rounds; round++ {
			if rank < 2 {
				for i := 2; i < p; i++ {
					msg := w.Recv(mpi.AnySource, tagRequest)
					proc.Compute(vtime.Duration(float64(20*vtime.Microsecond) * jitter(rank, round*p+i, 0.5)))
					w.Send(msg.Source, tagTask, 4096, nil)
				}
				continue
			}
			first := (rank + round) % 2
			w.Send(first, tagRequest, 64, nil)
			w.Send(1-first, tagRequest, 64, nil)
			for i := 0; i < 2; i++ {
				w.Recv(mpi.AnySource, tagTask)
				proc.Compute(vtime.Duration(float64(300*vtime.Microsecond) * jitter(rank, 2*round+i, 0.2)))
			}
		}
	}
}

// TestMatchOrderDeterministic asserts that wildcard matching is decided
// by virtual time alone: across repeated runs at several GOMAXPROCS
// settings, every rank matches the same messages in the same order (its
// causal edge row's (From, Seq, ArriveVT) sequence) and the makespan is
// bit-identical.
func TestMatchOrderDeterministic(t *testing.T) {
	emf, err := Registry("EMF", ClassA, 11)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		p    int
		body func(*mpi.Proc)
	}{
		{"EMF", 11, emf.Body(false)},
		{"two-wildcard", 10, twoWildcardBody(10, 150)},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range cases {
		var ref *matchRun
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			for i := 0; i < 5; i++ {
				got := runMatchOrder(t, c.p, c.body)
				if ref == nil {
					ref = &got
					continue
				}
				if got.makespan != ref.makespan {
					t.Errorf("%s GOMAXPROCS=%d run %d: makespan %v, want %v", c.name, procs, i, got.makespan, ref.makespan)
				}
				for r := range got.order {
					if d := firstDiff(got.order[r], ref.order[r]); d >= 0 {
						t.Fatalf("%s GOMAXPROCS=%d run %d: rank %d receive %d differs: %v, want %v",
							c.name, procs, i, r, d, at(got.order[r], d), at(ref.order[r], d))
					}
				}
			}
		}
	}
}

// firstDiff returns the first index where a and b differ, or -1.
func firstDiff(a, b []matchKey) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	if len(b) > len(a) {
		return len(a)
	}
	return -1
}

// at returns s[i], or the zero key past the end.
func at(s []matchKey, i int) matchKey {
	if i < len(s) {
		return s[i]
	}
	return matchKey{}
}
