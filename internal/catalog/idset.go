package catalog

import (
	"math/bits"
	"slices"
)

// IDSet is a set of dense non-negative int32 ids, sized to what it holds
// rather than to the id space: its only member inline, then its members in
// a sorted slice, and a bitset only once the bitset (a bit for every id up
// to the largest member) is no larger than that slice. So k members below n
// cost at most about min(4k, n/8) bytes, membership is a binary search while
// the set is sparse and a bit test once it is dense, and a set of one costs
// no allocation. The zero value is empty. A dense set stays dense until it
// is emptied, which releases its storage.
type IDSet struct {
	s []uint32 // the members in ascending order, or bitset words once dense
	n int32    // the member count
	// one is the only member while s is nil, and denseSet once s holds
	// bitset words.
	one int32
}

const denseSet = -1

// Len returns the number of members.
func (s *IDSet) Len() int { return int(s.n) }

// Has reports whether id is a member.
func (s *IDSet) Has(id int32) bool {
	switch {
	case s.one == denseSet:
		w := int(uint32(id) >> 5)
		return w < len(s.s) && s.s[w]&(1<<(uint32(id)&31)) != 0
	case s.s == nil:
		return s.n == 1 && s.one == id
	default:
		_, ok := slices.BinarySearch(s.s, uint32(id))
		return ok
	}
}

// Add inserts id and reports whether it was new.
func (s *IDSet) Add(id int32) bool {
	switch {
	case s.one == denseSet:
		w, bit := int(uint32(id)>>5), uint32(1)<<(uint32(id)&31)
		if w >= len(s.s) {
			s.s = append(s.s, make([]uint32, w+1-len(s.s))...)
		}
		if s.s[w]&bit != 0 {
			return false
		}
		s.s[w] |= bit
	case s.n == 0:
		s.one = id
	case s.s == nil:
		if s.one == id {
			return false
		}
		a, b := uint32(s.one), uint32(id)
		if b < a {
			a, b = b, a
		}
		s.s, s.one = append(make([]uint32, 0, 2), a, b), 0
	default:
		i, found := slices.BinarySearch(s.s, uint32(id))
		if found {
			return false
		}
		if top := max(s.s[len(s.s)-1], uint32(id)); int(top>>5) <= len(s.s) {
			// A bitset up to the largest member now fits in the words the
			// sorted members (this one included) would take.
			s.densify(top)
			return s.Add(id)
		}
		s.s = slices.Insert(s.s, i, uint32(id))
	}
	s.n++
	return true
}

// densify turns the sorted members into a bitset over ids up to top.
func (s *IDSet) densify(top uint32) {
	words := make([]uint32, top>>5+1)
	for _, id := range s.s {
		words[id>>5] |= 1 << (id & 31)
	}
	s.s, s.one = words, denseSet
}

// Remove deletes id and reports whether it was a member.
func (s *IDSet) Remove(id int32) bool {
	switch {
	case s.one == denseSet:
		w, bit := int(uint32(id)>>5), uint32(1)<<(uint32(id)&31)
		if w >= len(s.s) || s.s[w]&bit == 0 {
			return false
		}
		s.s[w] &^= bit
	case s.s == nil:
		if s.n == 0 || s.one != id {
			return false
		}
	default:
		i, found := slices.BinarySearch(s.s, uint32(id))
		if !found {
			return false
		}
		s.s = slices.Delete(s.s, i, i+1)
	}
	if s.n--; s.n == 0 {
		*s = IDSet{}
	}
	return true
}

// Clear empties the set and releases its storage.
func (s *IDSet) Clear() { *s = IDSet{} }

// Append appends the members to dst in ascending order.
func (s *IDSet) Append(dst []int32) []int32 {
	switch {
	case s.n == 0:
	case s.one == denseSet:
		for w, word := range s.s {
			for ; word != 0; word &= word - 1 {
				dst = append(dst, int32(w<<5+bits.TrailingZeros32(word)))
			}
		}
	case s.s == nil:
		dst = append(dst, s.one)
	default:
		for _, id := range s.s {
			dst = append(dst, int32(id))
		}
	}
	return dst
}
