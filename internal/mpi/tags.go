package mpi

// Internal tag families. Every tracing-layer and collective message
// travels on CommInternal, so its tag alone keeps it from matching any
// other; the families below must therefore never overlap (tags_test.go
// checks it). Each family owns one selector bit at or above 51 and keeps
// its operands below that bit:
//
//	collTag         comm<<40 | seq<<4 | phase   user comms (ID < 2^11),
//	                                            shrunken worlds at bit 60
//	VoteTag         1<<51 | marker<<4 | phase
//	Acurdion*Tag    1<<52 | 0..1
//	OnlineTag       1<<53 | round<<3
//	ClusterTag      1<<54 | round<<3 | phase
//	MergeTag        1<<55 | round<<3
//	faultTag        1<<56 | marker<<4 | phase   (groupFinalizeTag inside)
//	ReplayGroupTag  1<<57 | node<<18 | occ<<2 | phase
//
// Two-phase collectives (reduce then broadcast) use tag for the reduce
// and tag|1 for the broadcast, so every family leaves its low bits free.

// collTag derives a unique internal tag for the seq-th collective on
// communicator id, phase in [0,16). All ranks call collectives on a
// communicator in the same order (an MPI requirement), so tags agree.
func collTag(id CommID, seq, phase int) int {
	return int(id)<<40 | seq<<4 | phase
}

// VoteTag namespaces Chameleon's shrunken-membership vote per marker
// call.
func VoteTag(marker int) int { return 1<<51 | marker<<4 }

// ACURDION's two finalize exchanges: the clustering up the tree and the
// hand-off of the merged trace to rank 0.
const (
	AcurdionClusterTag = 1 << 52
	AcurdionRouteTag   = 1<<52 | 1
)

// OnlineTag carries a flush round's partial global trace from the lead
// tree's root to rank 0.
func OnlineTag(round int) int { return 1<<53 | round<<3 }

// ClusterTag namespaces one distributed clustering round.
func ClusterTag(round int) int { return 1<<54 | round<<3 }

// MergeTag namespaces one radix-tree merge round.
func MergeTag(round int) int { return 1<<55 | round<<3 }

// faultTag namespaces the survivors' marker-barrier traffic per marker
// so successive shrunken barriers can never cross-match.
func faultTag(marker, phase int) int {
	return 1<<56 | marker<<4 | phase
}

// groupFinalizeTag is the tag block for the survivors' finalize barrier
// (faultTag of marker 2^14, beyond any marker a run reaches).
const groupFinalizeTag = 1<<56 | 1<<18

// ReplayGroupTag derives the tag block of the occ-th occurrence of trace
// node id when replay runs a partial-coverage collective over a member
// tree (bits 0-1 stay free for the collective's phases).
func ReplayGroupTag(id, occ int) int {
	return 1<<57 | id<<18 | (occ&0xffff)<<2
}
