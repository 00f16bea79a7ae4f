package cluster

import (
	"chameleon/internal/mpi"
	"chameleon/internal/vtime"
)

// DistributedSelect runs the distributed clustering of Algorithm 3's
// "Clustering" branch: each member contributes one item (itself), items
// flow up a binomial radix tree, every internal node caps its working
// set at k with SelectLeads, the root makes the final selection, and the
// Top-K list is broadcast to every member.
//
// members is an explicit list of sorted world ranks — the survivors,
// once ranks have crashed — or nil for all ranks. Non-members must not
// call it. Communication wait time and distance-computation work are
// charged to the given ledger category. The call is collective over the
// members; tag must be unique per invocation and identical across ranks.
func DistributedSelect(p *mpi.Proc, self Item, members []int, k int, algo Algorithm, tag int, cat vtime.Category) []Item {
	model := p.Model()
	items := []Item{self}
	// Default causal label (tag distinguishes invocations); core's
	// explicit "cluster" context, when set, takes precedence.
	defer p.CausalContextDefault("cluster", tag)()

	// Handles are nil-safe when metrics are off; no guard needed.
	o := p.Obs()
	cDistances := o.Counter("cluster_distance_ops_total")
	cSelections := o.Counter("cluster_selections_total")
	cItems := o.Counter("cluster_items_gathered_total")
	cWorking := o.Histogram("cluster_working_set_items")
	selectTop := func() {
		cWorking.Observe(int64(len(items)))
		res := SelectLeads(items, k, algo)
		items = res.Top
		cSelections.Inc()
		cDistances.Add(uint64(res.Distances))
		p.ChargeOverhead(cat, vtime.Duration(res.Distances)*model.ClusterPerItem)
	}

	tree := mpi.Members(p, members)
	root := tree.Reduce(tag, func(msg mpi.Message) {
		p.Ledger.Charge(cat, model.Alpha+model.CollectivePerLevel)
		childItems, _ := msg.Payload.([]Item)
		items = append(items, childItems...)
		cItems.Add(uint64(len(childItems)))
		if len(items) > k {
			selectTop()
		}
	}, func() (int, any) { return ItemsBytes(items), items })
	if root {
		selectTop()
	} else {
		p.Ledger.Charge(cat, model.Alpha)
	}

	// The whole world broadcasts in CommWorld's collective tag space.
	btag := tag | 1
	if members == nil {
		btag = p.World().CollTag()
	}
	top := tree.BcastObj(btag, items, ItemsBytes(items)).([]Item)
	p.Ledger.Charge(cat, model.Alpha+model.CollectivePerLevel)
	return top
}

// ItemsBytes approximates the wire size of an item list (signatures plus
// rank-list descriptors).
func ItemsBytes(items []Item) int {
	n := 0
	for _, it := range items {
		n += 32 + it.Ranks.SizeBytes()
	}
	return n
}
