// Package pathhash implements the incremental path hashing the XSEED paper
// uses to key hyper-edge table entries: a 32-bit hash (the paper stores
// "a hashed integer (32 bits)") computed incrementally as labels are
// appended to a rooted path (the incHash function of Section 5), plus a
// canonical hash for branching patterns of the form p[q1]...[qk]/r
// (Table 1 stores branching hyper-edges relative to the parent label).
//
// FNV-1a is used: it is cheap, incremental over byte streams, and collides
// negligibly at the path counts the paper reports (< 500,000 entries).
package pathhash

import "sort"

// Basis is the hash of the empty path (FNV-1a 32-bit offset basis).
const Basis uint32 = 2166136261

const prime = 16777619

func addByte(h uint32, b byte) uint32 {
	return (h ^ uint32(b)) * prime
}

// AddLabel extends a path hash with one more label (the paper's incHash):
// given the hash of p, it returns the hash of p/label.
func AddLabel(h uint32, label string) uint32 {
	h = addByte(h, '/')
	for i := 0; i < len(label); i++ {
		h = addByte(h, label[i])
	}
	return h
}

// String returns the FNV-1a hash of an arbitrary string. It is deliberately
// the same function family as the path hashes so the whole system shares
// one cheap, well-distributed 32-bit hash.
func String(s string) uint32 {
	h := Basis
	for i := 0; i < len(s); i++ {
		h = addByte(h, s[i])
	}
	return h
}

// Bytes extends a hash with raw bytes. It is the primitive compiled query
// plans use to finish a pattern hash at match time: the plan precomputes the
// canonical suffix bytes once (PatternSuffix) and combines them with the
// context label's precomputed String hash, byte-for-byte equivalent to
// calling Pattern with the label name.
func Bytes(h uint32, b []byte) uint32 {
	for i := 0; i < len(b); i++ {
		h = addByte(h, b[i])
	}
	return h
}

// Path returns the hash of a rooted label path.
func Path(labels ...string) uint32 {
	h := Basis
	for _, l := range labels {
		h = AddLabel(h, l)
	}
	return h
}

// Pattern returns the canonical hash of a branching pattern
// parent[pred1]...[predk]/next. Predicate labels are sorted so the key does
// not depend on predicate order in the query. next may be empty for
// patterns with no main-path continuation.
func Pattern(parent string, preds []string, next string) uint32 {
	sorted := make([]string, len(preds))
	copy(sorted, preds)
	sort.Strings(sorted)
	h := Basis
	for i := 0; i < len(parent); i++ {
		h = addByte(h, parent[i])
	}
	for _, p := range sorted {
		h = addByte(h, '[')
		for i := 0; i < len(p); i++ {
			h = addByte(h, p[i])
		}
		h = addByte(h, ']')
	}
	h = addByte(h, '/')
	for i := 0; i < len(next); i++ {
		h = addByte(h, next[i])
	}
	return h
}

// PatternSuffix returns the canonical byte suffix of a branching pattern —
// everything after the parent label: "[p1]...[pk]/next" with predicate
// labels sorted. For any parent label,
//
//	Pattern(parent, preds, next) == Bytes(String(parent), PatternSuffix(preds, next))
//
// which lets a compiled plan hash one pattern against many context labels
// without re-sorting or re-walking the predicate labels.
func PatternSuffix(preds []string, next string) []byte {
	sorted := make([]string, len(preds))
	copy(sorted, preds)
	sort.Strings(sorted)
	n := len(next) + 1
	for _, p := range sorted {
		n += len(p) + 2
	}
	out := make([]byte, 0, n)
	for _, p := range sorted {
		out = append(out, '[')
		out = append(out, p...)
		out = append(out, ']')
	}
	out = append(out, '/')
	out = append(out, next...)
	return out
}
