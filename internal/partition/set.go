package partition

// Set is a deduplicating set of partitions, bucketed by the 64-bit vector
// hash with Equal confirmation on collision. It replaces the string-keyed
// maps (P.Key()) previously used for dedup in lattice enumeration and
// Algorithm 2's candidate handling: no per-insert key materialization, and
// no silent aliasing for large block ids. Members are numbered in
// insertion order, which lets a descent record one int32 per block pair
// instead of a partition. The zero value is an empty set.
type Set struct {
	head  map[uint64]int32 // hash -> first member with that hash
	items []P
	chain []int32 // per member, the next member with its hash, or -1
}

// NewSet returns an empty set; capacity is a sizing hint.
func NewSet(capacity int) *Set {
	return &Set{head: make(map[uint64]int32, capacity)}
}

// find returns the number of the member equal to p, or -1.
func (s *Set) find(p P) int32 {
	k, ok := s.head[p.Hash()]
	if !ok {
		return -1
	}
	for ; k >= 0; k = s.chain[k] {
		if p.Equal(s.items[k]) {
			return k
		}
	}
	return -1
}

// index returns the number of the member equal to p, inserting p itself
// when no equal partition is present.
func (s *Set) index(p P) int32 {
	if k := s.find(p); k >= 0 {
		return k
	}
	if s.head == nil {
		s.head = make(map[uint64]int32)
	}
	k := int32(len(s.items))
	next, ok := s.head[p.Hash()]
	if !ok {
		next = -1
	}
	s.head[p.Hash()] = k
	s.items = append(s.items, p)
	s.chain = append(s.chain, next)
	return k
}

// Add inserts p and reports whether it was not already present.
func (s *Set) Add(p P) bool {
	n := len(s.items)
	return int(s.index(p)) == n
}

// Intern returns the set's canonical instance of p, inserting p itself
// when no equal partition is present, so partitions that coincide retain
// one backing vector instead of one each.
func (s *Set) Intern(p P) P { return s.items[s.index(p)] }

// Contains reports whether an equal partition is already in the set.
func (s *Set) Contains(p P) bool { return s.find(p) >= 0 }

// Len returns the number of distinct partitions added.
func (s *Set) Len() int { return len(s.items) }

// reset empties the set in place, dropping every partition reference and
// keeping the capacity.
func (s *Set) reset() {
	clear(s.head)
	clear(s.items)
	s.items = s.items[:0]
	s.chain = s.chain[:0]
}
