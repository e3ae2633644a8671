// Package maputil provides deterministic iteration helpers for Go maps.
//
// Go randomizes map iteration order on purpose; anywhere that order can
// reach printed output, scheduling decisions, or floating-point
// accumulation it is a reproducibility bug in this repository (the
// paper-figure harnesses promise byte-identical runs). The flexvet
// `rangemap` analyzer flags such sites; these helpers are the sanctioned
// fix.
package maputil

import (
	"cmp"
	"slices"
)

// SortedKeys returns m's keys in ascending order. Iterating the returned
// slice visits the map deterministically:
//
//	for _, k := range maputil.SortedKeys(m) {
//		use(k, m[k])
//	}
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
