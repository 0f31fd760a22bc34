package netsim

import (
	"math"
	"sort"
)

// referenceMaxMinFair is the retained reference allocator: the original
// whole-network progressive-filling solver, kept as a test oracle for the
// incremental component-scoped allocator. It recomputes every flow's
// max-min fair rate from scratch — O(L·F) per freeze round — by repeatedly
// finding the most-constrained link (smallest residual capacity per
// unfrozen flow), freezing its flows at that fair share, and continuing
// until every flow is frozen.
//
// Its arithmetic and tie-breaks (name-ordered link scan, strict-less
// bottleneck selection) are exactly what the production solver reproduces
// with its (share, name)-keyed heap, so tests assert exact rate equality,
// not approximate.
func referenceMaxMinFair(active []*Flow) map[*Flow]float64 {
	flows := make(map[*Flow]struct{}, len(active))
	for _, f := range active {
		flows[f] = struct{}{}
	}
	rates := make(map[*Flow]float64, len(flows))
	frozen := make(map[*Flow]bool, len(flows))

	// Collect the links in play, deterministically ordered for tie-breaks.
	linkSet := make(map[*Link]struct{})
	for f := range flows {
		for _, l := range f.path() {
			linkSet[l] = struct{}{}
		}
	}
	links := make([]*Link, 0, len(linkSet))
	for l := range linkSet {
		links = append(links, l)
	}
	sort.Slice(links, func(i, j int) bool { return links[i].name < links[j].name })

	remaining := len(flows)
	residual := make(map[*Link]float64, len(links))
	for _, l := range links {
		residual[l] = l.capacity
	}

	for remaining > 0 {
		// Find the bottleneck link: min residual / unfrozen-count.
		var bottleneck *Link
		best := math.Inf(1)
		for _, l := range links {
			unfrozen := 0
			for _, f := range l.flows {
				if _, active := flows[f]; active && !frozen[f] {
					unfrozen++
				}
			}
			if unfrozen == 0 {
				continue
			}
			share := residual[l] / float64(unfrozen)
			if share < best {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			// Flows whose links all have zero unfrozen count cannot occur;
			// any leftover flows get starved rates.
			for f := range flows {
				if !frozen[f] {
					rates[f] = 0
					remaining--
				}
			}
			break
		}
		// Freeze every unfrozen flow through the bottleneck at the share and
		// charge it against the residual of every link on its path.
		for _, f := range bottleneck.flows {
			if _, active := flows[f]; !active || frozen[f] {
				continue
			}
			frozen[f] = true
			rates[f] = best
			remaining--
			for _, l := range f.path() {
				residual[l] -= best
				if residual[l] < 0 {
					residual[l] = 0
				}
			}
		}
	}
	return rates
}

// checkRatesAgainstReference re-solves the whole network with the reference
// allocator and reports the first flow whose live rate differs. Tests call
// it after churn events; exact equality is the contract (see
// referenceMaxMinFair).
func (n *Network) checkRatesAgainstReference() (f *Flow, got, want float64, ok bool) {
	want_ := referenceMaxMinFair(n.flows)
	ids := append([]*Flow(nil), n.flows...)
	sort.Slice(ids, func(i, j int) bool { return ids[i].id < ids[j].id })
	for _, fl := range ids {
		if fl.rate != want_[fl] {
			return fl, fl.rate, want_[fl], false
		}
	}
	return nil, 0, 0, true
}
