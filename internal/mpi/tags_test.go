package mpi

import "testing"

// TestTagFamiliesDisjoint checks that the internal tag families never
// overlap: each family's lowest and highest tag (over the operand ranges
// a run can reach, every collective phase included) must lie in a range
// no other family touches.
func TestTagFamiliesDisjoint(t *testing.T) {
	const (
		maxSeq    = 1<<36 - 1 // collectives per communicator
		maxMarker = 1<<14 - 1 // marker calls; groupFinalizeTag sits at 2^14
		maxRound  = 1<<40 - 1 // flush and merge rounds
		maxNode   = 1<<38 - 1 // replayed trace nodes
	)
	type family struct {
		name   string
		lo, hi int
	}
	families := []family{
		{"collTag(user comms)", collTag(CommWorld, 0, 0), collTag(1<<11-1, maxSeq, 15)},
		{"collTag(shrunken worlds)", collTag(shrunkCommBase, 0, 0), collTag(shrunkCommBase+1<<19, maxSeq, 15)},
		{"VoteTag", VoteTag(0), VoteTag(maxMarker) | 1},
		{"Acurdion*Tag", AcurdionClusterTag, AcurdionRouteTag | 1},
		{"OnlineTag", OnlineTag(0), OnlineTag(maxRound)},
		{"ClusterTag", ClusterTag(0), ClusterTag(maxRound) | 1},
		{"MergeTag", MergeTag(0), MergeTag(maxRound)},
		{"faultTag", faultTag(0, 0), groupFinalizeTag | 1},
		{"ReplayGroupTag", ReplayGroupTag(0, 0), ReplayGroupTag(maxNode, 0xffff) | 3},
	}
	if hi := faultTag(maxMarker, 15); hi >= groupFinalizeTag {
		t.Fatalf("faultTag(%d) = %#x reaches groupFinalizeTag %#x", maxMarker, hi, groupFinalizeTag)
	}
	for i, a := range families {
		if a.lo > a.hi {
			t.Fatalf("%s: empty range [%#x, %#x] (operand overflow)", a.name, a.lo, a.hi)
		}
		for _, b := range families[i+1:] {
			if a.lo <= b.hi && b.lo <= a.hi {
				t.Errorf("%s [%#x, %#x] overlaps %s [%#x, %#x]", a.name, a.lo, a.hi, b.name, b.lo, b.hi)
			}
		}
	}
}
