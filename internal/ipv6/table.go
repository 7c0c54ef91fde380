package ipv6

import (
	"math/bits"
	"net/netip"
	"slices"
)

// Table interns IPv6 addresses into dense ids: the first address it is
// shown becomes id 0, the next new one id 1, and so on. It is the address
// index of a campaign shard's result store, and — copied, ids intact — of
// the topology graph built from the merged store, so an address the store
// filed is never hashed again.
//
// The table is open-addressed with linear probing over 24-byte slots —
// the address's two words, the id, and one 32-bit word that belongs to
// the table's owner (the store keeps its per-address state there, so
// reading it costs no second cache miss). Slots hold no pointers: the
// garbage collector never scans a table, whatever its size. It grows by
// doubling; ids and owner words survive growth, slot positions do not.
//
// An address is identified by its 16 bytes (netip.Addr.As16): an IPv4
// address is its IPv4-mapped form, zones are ignored, and the zero
// netip.Addr is "::".
//
// Ownership: a table belongs to one store or one graph and is written by
// one goroutine at a time — the shard's prober during a run, whichever
// fold owns the store or graph afterwards. Intern, InternHashed and
// writes through their word pointer are writes; Find, FindHashed, Touch,
// Addr, Key, Word, Len and Clone only read and may run concurrently with
// each other.
type Table struct {
	slots []tableSlot // power-of-two length, or nil before the first Intern
	byID  []uint32    // id -> slot index
	shift uint8       // 64 - log2(len(slots)): a hash's top bits pick its home slot
}

type tableSlot struct {
	key  U128
	ref  uint32 // id + 1; zero marks an empty slot
	word uint32
}

// minTableSlots is the slot count a table allocates on its first Intern
// when it was created without a size.
const minTableSlots = 16

// NewTable returns an empty table that holds addrs addresses before it
// first grows; NewTable(0) allocates nothing until the first Intern.
func NewTable(addrs int) *Table {
	t := &Table{}
	if addrs > 0 {
		t.alloc(slotsFor(addrs))
	}
	return t
}

// slotsFor is the smallest slot count whose load limit admits n ids.
func slotsFor(n int) int {
	slots := minTableSlots
	for maxLoad(slots) < n {
		slots *= 2
	}
	return slots
}

// maxLoad is how many ids a table of the given slot count holds before
// it doubles. Seven eighths is dense for linear probing — a lookup at that
// load reads four or five adjacent slots, two cache lines — but a reply's
// probe is a miss to memory either way, and a table half the size misses
// the caches and the TLB less: measured, cold lookups in a table sized at
// seven eighths ran 10–15 % faster than at five eighths.
func maxLoad(slots int) int { return slots / 8 * 7 }

// alloc installs an empty slot array, and an id list that fills exactly
// when the slots reach their load limit.
func (t *Table) alloc(slots int) {
	t.slots = make([]tableSlot, slots)
	t.byID = make([]uint32, 0, maxLoad(slots))
	t.shift = uint8(64 - bits.TrailingZeros(uint(slots)))
}

// hash mixes the two address words. Each step is a bijection of the word
// it folds in, so addresses that share either half never collide on the
// full hash; the top bits, which pick the slot, depend on every input bit.
func (k U128) hash() uint64 {
	h := k.Hi * 0x9e3779b97f4a7c15
	h ^= h >> 32
	h = (h ^ k.Lo) * 0xd6e8feb86659fd93
	return h ^ h>>29
}

// Hashed is an address key with the hash a Table files it under,
// computed once by Hash: a caller that looks one address up in several
// passes (Touch, then FindHashed or InternHashed) hashes it only once.
type Hashed struct {
	Key  U128
	hash uint64
}

// Hash returns k with its table hash.
func Hash(k U128) Hashed { return Hashed{Key: k, hash: k.hash()} }

// Intern returns a's id, assigning the next dense one on first sight, and
// a pointer to the owner word of a's slot (zero for a new address). The
// pointer is valid until the next Intern.
func (t *Table) Intern(a netip.Addr) (id uint32, word *uint32) {
	return t.InternHashed(Hash(FromAddr(a)))
}

// InternHashed is Intern of a hashed key. A table grows when a new key
// would take it past its load limit, so its size depends only on how
// many ids it has handed out, never on how often a known key is seen.
func (t *Table) InternHashed(k Hashed) (id uint32, word *uint32) {
	if len(t.slots) == 0 {
		t.alloc(minTableSlots)
	}
	i := t.probe(k)
	if t.slots[i].ref != 0 {
		return t.slots[i].ref - 1, &t.slots[i].word
	}
	if len(t.byID) == maxLoad(len(t.slots)) {
		t.grow()
		i = t.probe(k)
	}
	s := &t.slots[i]
	s.key = k.Key
	t.byID = append(t.byID, uint32(i))
	s.ref = uint32(len(t.byID))
	return s.ref - 1, &s.word
}

// Find returns a's id and owner word, and whether a has been interned.
func (t *Table) Find(a netip.Addr) (id, word uint32, ok bool) {
	return t.FindHashed(Hash(FromAddr(a)))
}

// FindHashed is Find of a hashed key.
func (t *Table) FindHashed(k Hashed) (id, word uint32, ok bool) {
	if len(t.slots) == 0 {
		return 0, 0, false
	}
	s := &t.slots[t.probe(k)]
	if s.ref == 0 {
		return 0, 0, false
	}
	return s.ref - 1, s.word, true
}

// probe returns the slot that holds k, or else the empty slot that ends
// k's probe run — where k would go. The table must have slots.
func (t *Table) probe(k Hashed) uint64 {
	mask := uint64(len(t.slots) - 1)
	for i := k.hash >> t.shift; ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.ref == 0 || s.key == k.Key {
			return i
		}
	}
}

// Touch loads k's home slot and returns a word read from it. It changes
// nothing: a fold that touches a block's keys before it interns them, one
// after another, has their cache misses in flight at once instead of one
// by one. Callers add the word to a sink so the load is kept.
func (t *Table) Touch(k Hashed) uint64 {
	if len(t.slots) == 0 {
		return 0
	}
	return uint64(t.slots[k.hash>>t.shift].ref)
}

// grow doubles the slot array and re-seats every id in it.
func (t *Table) grow() {
	old, n := t.slots, len(t.byID)
	t.alloc(2 * len(old))
	t.byID = t.byID[:n]
	mask := uint64(len(t.slots) - 1)
	for _, s := range old {
		if s.ref == 0 {
			continue
		}
		i := s.key.hash() >> t.shift
		for t.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		t.slots[i] = s
		t.byID[s.ref-1] = uint32(i)
	}
}

// Len returns the number of interned addresses; ids are 0 … Len()-1.
func (t *Table) Len() int { return len(t.byID) }

// Slots returns the allocated slot count.
func (t *Table) Slots() int { return len(t.slots) }

// Addr returns the address of an interned id.
func (t *Table) Addr(id uint32) netip.Addr { return t.Key(id).Addr() }

// Key returns the key of an interned id.
func (t *Table) Key(id uint32) U128 { return t.slots[t.byID[id]].key }

// Word returns the owner word of an interned id.
func (t *Table) Word(id uint32) uint32 { return t.slots[t.byID[id]].word }

// Clone returns an independent copy: same ids, same owner words.
func (t *Table) Clone() *Table {
	return &Table{slots: slices.Clone(t.slots), byID: slices.Clone(t.byID), shift: t.shift}
}
