// Package sorted keeps append-only indexes in order incrementally.
//
// The stores this module snapshots over and over — probe results,
// first-seen instants, router token buckets — only ever gain entries,
// and every snapshot wants them in one canonical order. An index that
// remembers how much of itself is already ascending pays, per snapshot,
// for a sort of what was appended since the last one plus a single
// linear merge, instead of a full sort of everything.
package sorted

import "slices"

// Append appends v to an index, doubling the capacity when it is full.
// An index only ever grows; on append's 1.25x steps a long one would
// allocate five times its final size on the way there, on doubling
// steps twice.
func Append[T any](idx []T, v T) []T {
	if len(idx) == cap(idx) {
		idx = slices.Grow(idx, len(idx)+1)
	}
	return append(idx, v)
}

// Tail restores ascending order on idx, whose first n elements are
// already ascending: it sorts idx[n:] and merges it into the prefix.
// The cost is O(tail·log tail + len(idx)) comparisons and, when the
// tail does not simply extend the prefix, one allocation of the tail's
// size. Equal elements may end up in any order.
func Tail[T any](idx []T, n int, cmp func(a, b T) int) {
	tail := idx[n:]
	if len(tail) == 0 {
		return
	}
	slices.SortFunc(tail, cmp)
	if n == 0 || cmp(idx[n-1], tail[0]) <= 0 {
		return
	}
	// Merge from the back, so that only the tail needs setting aside.
	tail = slices.Clone(tail)
	i, j := n-1, len(tail)-1
	for k := len(idx) - 1; j >= 0; k-- {
		if i >= 0 && cmp(idx[i], tail[j]) > 0 {
			idx[k] = idx[i]
			i--
		} else {
			idx[k] = tail[j]
			j--
		}
	}
}
