package probe

import (
	"math/bits"
	"net/netip"
	"slices"

	"beholder/internal/ipv6"
	"beholder/internal/sorted"
)

// HopEntry is one responsive hop of a traced path with its address
// resolved — what Result.Path hands out. The store itself keeps a hop as
// its TTL and the id of its address in the store's table (see hop).
type HopEntry struct {
	TTL  uint8
	Addr netip.Addr
}

// hop is one responsive hop as a store keeps it: the probe TTL and the id
// of the hop address in the store's address table. Every hop address is
// an address the table already holds — Add files r.From as an interface
// one step before it files the hop — so a hop is 8 pointer-free bytes,
// a quarter of a HopEntry, and the garbage collector never scans a hop
// list.
type hop struct {
	ttl uint8
	id  uint32
}

// Trace is one target's row in its store: everything the store keeps
// about the responses attributable to the target, in 64 pointer-free
// bytes. Rows live in slabs of traceBlock — one 4 096-byte allocation
// each — that never move, so a *Trace stays valid for the store's life,
// and the garbage collector never scans a row. The target is a key, and
// the hops and unreachable counts are named by index into arenas of the
// owning store: read them through Store.ForEachHop and
// Store.ForEachUnreach.
type Trace struct {
	target ipv6.U128
	// seen is a 256-bit bitmap of exactly the TTLs present in the hops,
	// so the per-reply duplicate check on the hot path is one word test
	// instead of a scan, and a new hop's place in the TTL-ordered list is
	// the count of seen TTLs below it.
	seen [4]uint64
	// hops is the hopRef of the trace's piece of the store's hop arena,
	// which holds its Time-Exceeded sources in ascending TTL order, one
	// per TTL: duplicate TTLs keep the first answer (Paris-stable flows
	// make later answers identical in practice). nHops of the piece's
	// capHops entries are filled; capHops is zero until the first hop.
	hops           uint32
	nHops, capHops uint16
	// unreach heads the trace's destination-unreachable counts: the index
	// + 1 of its lowest-code entry in the owning store's unreach slab,
	// zero when it has none.
	unreach uint32
	// Reached reports a destination-originated response (echo reply,
	// port unreachable, RST) was received from the target itself.
	Reached bool
}

// Target returns the address the trace belongs to.
func (t *Trace) Target() netip.Addr { return t.target.Addr() }

// unreachEntry is one destination-unreachable count of one trace: the
// code, how many replies carried it, and the index + 1 of the trace's
// next-higher code in the same slab (zero ends the chain). Entries are
// pointer-free and chained in ascending code order, so a trace's counts
// cost no heap object of their own and read out in encoding order.
type unreachEntry struct {
	n    int64
	next uint32
	code uint8
}

// HasTTL reports whether a hop at ttl has been recorded.
func (t *Trace) HasTTL(ttl uint8) bool {
	return t.seen[ttl>>6]&(1<<(ttl&63)) != 0
}

// PathLength returns the highest responding TTL (the paper's path length
// metric for Table 7).
func (t *Trace) PathLength() int {
	for w := 3; w >= 0; w-- {
		if t.seen[w] != 0 {
			return w<<6 | (bits.Len64(t.seen[w]) - 1)
		}
	}
	return 0
}

// Store accumulates campaign results: per-target traces, the global
// interface-address set, and response-mix counters. A Store is owned by a
// single goroutine while a campaign runs — the fold goroutine of its
// shard's prober, which applies the parsed replies in arrival order while
// the prober goroutine sends and receives; Run returns only once the fold
// is done. The sharded campaign engine gives every shard its own Store
// and folds them together afterwards with Merge, which is deterministic
// regardless of how the shard goroutines interleaved.
//
// The store's one address index is an ipv6.Table: a reply's source and
// its target are each one table probe, and what the store knows about an
// address — is it an interface, which trace does it key — sits in the
// owner word of the address's slot, so the probe that finds the address
// has already fetched its state. Hops name their addresses by table id,
// so a trace holds no address but its target. The table is the store's
// alone; a topology graph starts from a copy of it (graph.FromStore), in
// which the store's ids are its node ids.
//
// Beside the table the store keeps a canonical index: every trace and
// every interface address is appended to a slice when it is created — by
// Add, by Merge, and by DecodeStore, the only three paths that create
// either — so AppendBinary walks slices in canonical order instead of
// collecting and sorting keys on every encode. The index is sorted
// lazily: each encode sorts only the entries appended since the previous
// one and merges them into the sorted prefix.
//
// Nothing the store grows with its results holds a pointer — rows, hops,
// unreachable entries, index entries and table slots are all plain
// numbers — so however large a store gets, the garbage collector scans
// no more of it than the short lists of its slabs and chunks.
type Store struct {
	recordPaths bool
	tab         *ipv6.Table

	// blocks holds every trace row in creation order, in slabs of
	// traceBlock: trace number n is blocks[n/traceBlock][n%traceBlock]
	// (row). The reply fold path therefore allocates once per traceBlock
	// discovered targets, and row pointers are stable for the store's
	// lifetime.
	blocks []*[traceBlock]Trace

	// traceIdx and ifaceIdx are the canonical index: the number of every
	// trace, and the table id of every address whose word carries
	// ifaceBit, each ascending by address up to its *Sorted mark and in
	// creation order beyond it.
	traceIdx     []uint32
	ifaceIdx     []uint32
	tracesSorted int
	ifacesSorted int

	// lastTarget/lastTrace memoize the most recent trace touched by Add.
	// Replies cluster by target (fill-mode follow-ups, the sequential
	// baseline's per-destination bursts), so the memo removes the
	// per-reply table probe for the common repeat case.
	lastTarget ipv6.U128
	lastTrace  *Trace

	// hopChunks is the hop arena every trace's hops live in: pieces are
	// carved from the last chunk (hopUsed of its hops are taken), and a
	// chunk never moves once made. A new trace's first piece holds piece
	// hops; a full piece moves to one twice its size (addHop).
	hopChunks [][]hop
	hopUsed   int
	piece     int

	// sink keeps the gather passes' loads (Gather, Merge) from being
	// optimised away.
	sink uint64

	// unreach holds every trace's destination-unreachable entries,
	// chained per trace from Trace.unreach. Entries are only ever added,
	// each to one trace's chain, so its length is the store's count of
	// (trace, code) pairs.
	unreach []unreachEntry

	// Response mix (Table 4): ICMPv6 type/code counts.
	TimeExceeded      int64
	EchoReplies       int64
	TCPRsts           int64
	DestUnreachByCode map[uint8]int64
	Unparseable       int64 // replies whose probe state could not be recovered
	Rewritten         int64 // quoted target failed the checksum cross-check
}

// The owner word of a table slot, as the store uses it: the top bit marks
// an interface address, the rest is the address's trace number plus one
// (zero: no trace).
const (
	ifaceBit   uint32 = 1 << 31
	traceMask         = ifaceBit - 1
	traceBlock        = 64
)

// The hop arena. A hopRef names a piece: its chunk's place in the arena
// above hopRefBits, its offset in the chunk below. A store's chunks start
// at hopChunkMin pieces and double up to hopChunk pieces, so a small
// store allocates a few hundred bytes of hops, not a 64 KB slab. A piece
// holds hopPiece hops unless the store was sized for fewer (NewStoreSized),
// at least minPiece; a piece that fills moves to one twice its size,
// up to maxHops — one hop per TTL.
const (
	hopRefBits  = 13 // a chunk holds at most hopChunk*hopPiece = 1<<13 hops
	hopChunkMin = 4
	hopChunk    = 512
	hopPiece    = 16
	minPiece    = 4
	maxHops     = 256
)

// carve takes a piece of n hops from the arena and returns its hopRef.
func (s *Store) carve(n int) uint32 {
	k := len(s.hopChunks)
	if k == 0 || len(s.hopChunks[k-1])-s.hopUsed < n {
		pieces := hopChunkMin
		if k > 0 {
			pieces = min(2*len(s.hopChunks[k-1])/s.piece, hopChunk)
		}
		s.hopChunks = append(s.hopChunks, make([]hop, max(pieces*s.piece, n)))
		s.hopUsed = 0
		k++
	}
	ref := uint32(k-1)<<hopRefBits | uint32(s.hopUsed)
	s.hopUsed += n
	return ref
}

// hopsOf returns t's hops, in ascending TTL order, with the rest of its
// piece as spare capacity; nil before its first hop.
func (s *Store) hopsOf(t *Trace) []hop {
	if t.capHops == 0 {
		return nil
	}
	c, off := s.hopChunks[t.hops>>hopRefBits], t.hops&(1<<hopRefBits-1)
	return c[off : off+uint32(t.nHops) : off+uint32(t.capHops)]
}

// reserve makes room in t's piece for n hops: t keeps its piece if it
// holds n, and otherwise moves to a new one of n hops, at least the
// store's piece size.
func (s *Store) reserve(t *Trace, n int) {
	if n <= int(t.capHops) {
		return
	}
	n = min(max(n, s.piece), maxHops)
	old := s.hopsOf(t)
	t.hops, t.capHops = s.carve(n), uint16(n)
	copy(s.hopsOf(t), old)
}

// addHop files the hop (ttl, id) in t's TTL order unless ttl already has
// one.
func (s *Store) addHop(t *Trace, ttl uint8, id uint32) {
	if t.HasTTL(ttl) {
		return
	}
	w := ttl >> 6
	i := bits.OnesCount64(t.seen[w] & (1<<(ttl&63) - 1))
	for _, below := range t.seen[:w] {
		i += bits.OnesCount64(below)
	}
	t.seen[w] |= 1 << (ttl & 63)
	if t.nHops == t.capHops {
		s.reserve(t, max(2*int(t.capHops), 1))
	}
	h := s.hopsOf(t)[:t.nHops+1]
	copy(h[i+1:], h[i:])
	h[i] = hop{ttl: ttl, id: id}
	t.nHops++
}

// NewStore creates a result store. recordPaths enables per-target trace
// retention (needed for path analysis and subnet discovery); without it
// only aggregate counters and the interface set are kept, which is what
// pure discovery-power measurements need.
func NewStore(recordPaths bool) *Store { return NewStoreSized(recordPaths, 0, hopPiece) }

// NewStoreSized is NewStore with an address table that holds addrs
// addresses — interfaces plus traced targets — before it first grows,
// and hop pieces for traces that get about hops TTL probes each (a
// campaign shard's window sends each target a share of its TTLs): a
// trace's first piece holds that many hops, held to [minPiece,
// hopPiece]. Both sizes are hints; they change no result.
func NewStoreSized(recordPaths bool, addrs, hops int) *Store {
	return &Store{
		recordPaths:       recordPaths,
		tab:               ipv6.NewTable(addrs),
		piece:             min(max(hops, minPiece), hopPiece),
		DestUnreachByCode: make(map[uint8]int64),
	}
}

// AddrTable returns the store's address table for reading — its size, or
// a Clone whose ids match ForEachAddr's (graph.FromStore). Writing it is
// the store's business alone.
func (s *Store) AddrTable() *ipv6.Table { return s.tab }

// Add folds one reply into the store and reports whether the reply's
// source was a previously unseen interface address.
func (s *Store) Add(r Reply) (newInterface bool) {
	var f foldSlot
	s.keys(&r, &f)
	return s.apply(&r, &f)
}

// foldSlot is what a fold knows of one reply before applying it: the
// keys the reply files in the table, hashed — its source if it is a Time
// Exceeded, its target if the store keeps traces and the reply names one
// (zero otherwise) — and, after Gather, the number + 1 of the target's
// trace as Gather found it, zero if it had none yet.
type foldSlot struct {
	from, target ipv6.Hashed
	trace        uint32
}

// keys fills f's keys for r.
func (s *Store) keys(r *Reply, f *foldSlot) {
	*f = foldSlot{}
	if r.Kind == KindTimeExceeded {
		f.from = ipv6.Hash(ipv6.FromAddr(r.From))
	}
	if s.recordPaths && r.Target.IsValid() {
		f.target = ipv6.Hash(ipv6.FromAddr(r.Target))
	}
}

// Gathered is the scratch of a block fold: a block of replies and what
// Gather loaded for each. Its memory is reused by the next Gather, so a
// fold that keeps one for its life allocates nothing once warm.
type Gathered struct {
	rs    []Reply
	slots []foldSlot
}

// Gather, then fold. Yarrp6's permutation gives consecutive replies no
// locality, so folding each into the store — its source's table slot,
// its target's, the target's trace row, then the row's hop piece — is a
// chain of cache misses, each load waiting on the one before it. Gather
// loads what folding rs will read in passes instead: it hashes every
// reply's keys once, loads their home slots, then the row of each
// target already filed, then that row's hop piece — loads independent
// of one another within a pass, so their misses overlap. It changes
// nothing in the store; AddGathered then folds the replies one by one,
// in order, finding their data in cache. A trace Gather found is a hint
// AddGathered re-checks, so no result depends on it — a target filed by
// an earlier reply of the same block is simply looked up again.
func (s *Store) Gather(rs []Reply, g *Gathered) {
	if cap(g.slots) < len(rs) {
		g.slots = make([]foldSlot, len(rs))
	}
	g.rs, g.slots = rs, g.slots[:len(rs)]
	for i := range rs {
		s.keys(&rs[i], &g.slots[i])
	}
	var acc uint64
	for i := range g.slots {
		if rs[i].Kind == KindTimeExceeded {
			acc += s.tab.Touch(g.slots[i].from)
		}
		if s.recordPaths && rs[i].Target.IsValid() {
			acc += s.tab.Touch(g.slots[i].target)
		}
	}
	if s.recordPaths {
		for i := range g.slots {
			if !rs[i].Target.IsValid() {
				continue
			}
			if _, w, ok := s.tab.FindHashed(g.slots[i].target); ok {
				g.slots[i].trace = w & traceMask
			}
		}
		for i := range g.slots {
			if t := s.traceIn(g.slots[i].trace); t != nil {
				acc += uint64(t.hops)
			}
		}
		for i := range g.slots {
			if t := s.traceIn(g.slots[i].trace); t != nil && t.nHops > 0 {
				h := s.hopsOf(t)
				acc += uint64(h[0].id) + uint64(h[len(h)-1].id)
			}
		}
	}
	s.sink += acc
}

// AddGathered is Add of the reply at index i of the block Gather last
// loaded into g.
func (s *Store) AddGathered(g *Gathered, i int) (newInterface bool) {
	return s.apply(&g.rs[i], &g.slots[i])
}

// apply folds r, whose keys f holds, into the store: the one fold step
// of Add and AddGathered.
func (s *Store) apply(r *Reply, f *foldSlot) (newInterface bool) {
	if !r.StateRecovered && r.Kind == KindTimeExceeded {
		s.Unparseable++
	}
	if r.TargetRewritten {
		s.Rewritten++
	}
	var from uint32
	switch r.Kind {
	case KindTimeExceeded:
		s.TimeExceeded++
		from, newInterface = s.addInterface(f.from)
	case KindEchoReply:
		s.EchoReplies++
	case KindTCPRst:
		s.TCPRsts++
	case KindDestUnreach:
		s.DestUnreachByCode[r.Code]++
	}
	if !s.recordPaths || !r.Target.IsValid() {
		return newInterface
	}
	t, key := s.lastTrace, f.target.Key
	if t == nil || s.lastTarget != key {
		if t = s.traceIn(f.trace); t == nil || t.target != key {
			_, w := s.tab.InternHashed(f.target)
			t = s.row(s.traceAt(w, key))
		}
		s.lastTarget, s.lastTrace = key, t
	}
	switch r.Kind {
	case KindTimeExceeded:
		if r.TTL != 0 {
			s.addHop(t, r.TTL, from)
		}
	case KindEchoReply, KindTCPRst:
		t.Reached = true
	case KindDestUnreach:
		if r.Code == 4 { // port unreachable comes from the destination
			t.Reached = true
		}
		s.addUnreach(t, r.Code, 1)
	}
	return newInterface
}

// addUnreach adds n to t's destination-unreachable count for code,
// chaining a new entry in code order when t has none for it yet.
func (s *Store) addUnreach(t *Trace, code uint8, n int64) {
	prev := uint32(0) // the entry the new one follows, index + 1; zero: none
	for i := t.unreach; i != 0; i = s.unreach[i-1].next {
		e := &s.unreach[i-1]
		if e.code == code {
			e.n += n
			return
		}
		if e.code > code {
			break
		}
		prev = i
	}
	s.unreach = sorted.Append(s.unreach, unreachEntry{n: n, code: code})
	id := uint32(len(s.unreach))
	link := &t.unreach // taken after the append, which may move the slab
	if prev != 0 {
		link = &s.unreach[prev-1].next
	}
	s.unreach[id-1].next, *link = *link, id
}

// ForEachUnreach calls fn for every destination-unreachable code t, one
// of this store's traces, drew, in ascending code order, with the
// number of replies that carried it.
func (s *Store) ForEachUnreach(t *Trace, fn func(code uint8, n int64)) {
	for i := t.unreach; i != 0; i = s.unreach[i-1].next {
		fn(s.unreach[i-1].code, s.unreach[i-1].n)
	}
}

// addInterface inserts the address whose hashed key is k into the
// interface set and returns its id and whether it was new: one table
// probe, the verdict read off the slot it lands on.
func (s *Store) addInterface(k ipv6.Hashed) (id uint32, added bool) {
	id, w := s.tab.InternHashed(k)
	return id, s.markInterface(w, id)
}

// markInterface files the address with the given id, whose owner word is
// *w, as an interface, reporting whether it was not one yet.
func (s *Store) markInterface(w *uint32, id uint32) bool {
	if *w&ifaceBit != 0 {
		return false
	}
	*w |= ifaceBit
	s.ifaceIdx = sorted.Append(s.ifaceIdx, id)
	return true
}

// traceAt returns the number of target's trace, whose owner word is *w,
// creating an empty one on first sight.
func (s *Store) traceAt(w *uint32, target ipv6.U128) uint32 {
	if n := *w & traceMask; n != 0 {
		return n - 1
	}
	n := uint32(len(s.traceIdx))
	*w |= n + 1
	if n%traceBlock == 0 {
		s.blocks = append(s.blocks, new([traceBlock]Trace))
	}
	s.row(n).target = target
	s.traceIdx = sorted.Append(s.traceIdx, n)
	return n
}

// row returns trace number n.
func (s *Store) row(n uint32) *Trace { return &s.blocks[n/traceBlock][n%traceBlock] }

// traceIn returns the trace a slot's owner word names, or nil.
func (s *Store) traceIn(w uint32) *Trace {
	if n := w & traceMask; n != 0 {
		return s.row(n - 1)
	}
	return nil
}

// traceOf returns the trace of target, or nil.
func (s *Store) traceOf(target ipv6.U128) *Trace {
	_, w, _ := s.tab.FindHashed(ipv6.Hash(target))
	return s.traceIn(w)
}

// Merge folds src into s. Campaign shards probe disjoint slices of the
// (target × TTL) domain, so hop entries never collide; if they do (e.g.
// merging overlapping ad-hoc campaigns), the entry already present wins,
// matching Add's first-answer rule — merge shards in virtual-time order
// to keep that rule meaningful. Merging is pure set union plus counter
// addition, so the merged store is identical however the shard goroutines
// interleaved. src is not modified; merging a store into itself is a
// no-op.
//
// Every address src files — interface, trace target, or both — costs one
// probe of s's table, in one pass over src's table in id order, gathered
// in chunks of mergeChunk, that also records the address's id in s. Hops
// then cross by id through that array: no hop address is hashed again.
func (s *Store) Merge(src *Store) {
	if s == src {
		return
	}
	s.TimeExceeded += src.TimeExceeded
	s.EchoReplies += src.EchoReplies
	s.TCPRsts += src.TCPRsts
	s.Unparseable += src.Unparseable
	s.Rewritten += src.Rewritten
	for code, n := range src.DestUnreachByCode {
		s.DestUnreachByCode[code] += n
	}
	remap := make([]uint32, src.tab.Len()) // src id -> s id + 1; zero: not yet translated
	var into []uint32                      // src trace number -> s's
	if s.recordPaths {
		into = make([]uint32, len(src.traceIdx))
		// Room for every src entry up front, so the fold below appends
		// into one allocation at most.
		s.unreach = slices.Grow(s.unreach, len(src.unreach))
	}
	var (
		keys [mergeChunk]ipv6.Hashed
		ids  [mergeChunk]uint32
	)
	for lo := 0; lo < len(remap); lo += mergeChunk {
		// Gather, then merge, as Gather does for a reply block: read a
		// chunk's keys straight from src's slots, load their home slots
		// in s, then intern them in id order.
		m := 0
		for id := lo; id < min(lo+mergeChunk, len(remap)); id++ {
			if w := src.tab.Word(uint32(id)); w&ifaceBit != 0 || (s.recordPaths && w&traceMask != 0) {
				keys[m], ids[m] = ipv6.Hash(src.tab.Key(uint32(id))), uint32(id)
				m++
			}
		}
		for _, k := range keys[:m] {
			s.sink += s.tab.Touch(k)
		}
		for j, k := range keys[:m] {
			w := src.tab.Word(ids[j])
			sid, sw := s.tab.InternHashed(k)
			remap[ids[j]] = sid + 1
			if w&ifaceBit != 0 {
				s.markInterface(sw, sid)
			}
			if n := w & traceMask; s.recordPaths && n != 0 {
				into[n-1] = s.traceAt(sw, k.Key)
			}
		}
	}
	for n, sn := range into {
		st, t := src.row(uint32(n)), s.row(sn)
		// Room for every src hop at once: one move at most.
		s.reserve(t, int(t.nHops)+int(st.nHops))
		for _, h := range src.hopsOf(st) {
			if t.HasTTL(h.ttl) {
				continue
			}
			if remap[h.id] == 0 {
				// A hop address that is no interface: only a decoded
				// store holds one, and the pass above skipped it.
				sid, _ := s.tab.InternHashed(ipv6.Hash(src.tab.Key(h.id)))
				remap[h.id] = sid + 1
			}
			s.addHop(t, h.ttl, remap[h.id]-1)
		}
		t.Reached = t.Reached || st.Reached
		src.ForEachUnreach(st, func(code uint8, n int64) { s.addUnreach(t, code, n) })
	}
}

// mergeChunk is how many of src's addresses one gather of Merge loads.
const mergeChunk = 256

// Equal reports whether two stores hold identical results: the same
// counters, interface set, and (when both record paths) the same traces
// hop for hop. Sharded-campaign tests use it to prove merge determinism.
func (s *Store) Equal(o *Store) bool {
	if s.TimeExceeded != o.TimeExceeded || s.EchoReplies != o.EchoReplies ||
		s.TCPRsts != o.TCPRsts || s.Unparseable != o.Unparseable ||
		s.Rewritten != o.Rewritten {
		return false
	}
	if len(s.DestUnreachByCode) != len(o.DestUnreachByCode) {
		return false
	}
	for code, n := range s.DestUnreachByCode {
		if o.DestUnreachByCode[code] != n {
			return false
		}
	}
	if len(s.ifaceIdx) != len(o.ifaceIdx) {
		return false
	}
	for _, id := range s.ifaceIdx {
		if _, w, _ := o.tab.FindHashed(ipv6.Hash(s.tab.Key(id))); w&ifaceBit == 0 {
			return false
		}
	}
	if s.recordPaths != o.recordPaths {
		return false
	}
	if len(s.traceIdx) != len(o.traceIdx) {
		return false
	}
	for _, n := range s.traceIdx {
		st := s.row(n)
		ot := o.traceOf(st.target)
		if ot == nil || st.Reached != ot.Reached || st.seen != ot.seen {
			return false
		}
		// Equal TTL bitmaps line the TTL-ordered hop lists up entry for
		// entry; each store's ids resolve through its own table.
		oh := o.hopsOf(ot)
		for i, h := range s.hopsOf(st) {
			if s.tab.Key(h.id) != o.tab.Key(oh[i].id) {
				return false
			}
		}
		// Both chains run in ascending code order: equal counts line up
		// entry for entry.
		i, j := st.unreach, ot.unreach
		for i != 0 && j != 0 && s.unreach[i-1].code == o.unreach[j-1].code && s.unreach[i-1].n == o.unreach[j-1].n {
			i, j = s.unreach[i-1].next, o.unreach[j-1].next
		}
		if i != 0 || j != 0 {
			return false
		}
	}
	return true
}

// NumInterfaces returns the count of unique Time-Exceeded sources.
func (s *Store) NumInterfaces() int { return len(s.ifaceIdx) }

// AddrSeen reports whether addr was discovered as an interface address,
// without materializing the interface slice.
func (s *Store) AddrSeen(addr netip.Addr) bool {
	_, w, _ := s.tab.Find(addr)
	return w&ifaceBit != 0
}

// ForEachInterface calls fn for every discovered interface address, in
// unspecified order. Analysis passes that only fold addresses into their
// own structures use it to avoid allocating the full slice Interfaces
// returns.
func (s *Store) ForEachInterface(fn func(netip.Addr)) {
	for _, id := range s.ifaceIdx {
		fn(s.tab.Addr(id))
	}
}

// Interfaces returns the discovered interface addresses, unordered. The
// result is allocated exactly once at full size.
func (s *Store) Interfaces() []netip.Addr {
	out := make([]netip.Addr, len(s.ifaceIdx))
	for i, id := range s.ifaceIdx {
		out[i] = s.tab.Addr(id)
	}
	return out
}

// Trace returns the per-target record, or nil without path recording.
func (s *Store) Trace(target netip.Addr) *Trace { return s.traceOf(ipv6.FromAddr(target)) }

// Traces returns all retained traces, unordered. The result is allocated
// exactly once at full size; the rows it points to never move.
func (s *Store) Traces() []*Trace {
	out := make([]*Trace, len(s.traceIdx))
	for i, n := range s.traceIdx {
		out[i] = s.row(n)
	}
	return out
}

// NumTraces returns how many targets have any recorded response.
func (s *Store) NumTraces() int { return len(s.traceIdx) }

// ForEachHop calls fn for every hop of t, one of this store's traces, in
// ascending TTL order: the TTL and the id of the hop address in the
// store's table. AddrTable().Addr resolves the id; a graph built on a
// copy of the table (graph.FromStore) uses it as its node id.
func (s *Store) ForEachHop(t *Trace, fn func(ttl uint8, id uint32)) {
	for _, h := range s.hopsOf(t) {
		fn(h.ttl, h.id)
	}
}

// ForEachAddr walks the store's address table in id order: every address
// the table holds, whether it is an interface, and its trace (nil when it
// keys none). A graph that starts from a copy of the table (see
// graph.FromStore) reads the store's results by id this way, without
// hashing an address.
func (s *Store) ForEachAddr(fn func(id uint32, iface bool, t *Trace)) {
	for id := uint32(0); int(id) < s.tab.Len(); id++ {
		w := s.tab.Word(id)
		fn(id, w&ifaceBit != 0, s.traceIn(w))
	}
}

// OtherICMPv6 returns the count of non-Time-Exceeded ICMPv6 responses
// (Table 3's "Other ICMPv6" column).
func (s *Store) OtherICMPv6() int64 {
	n := s.EchoReplies
	for _, c := range s.DestUnreachByCode {
		n += c
	}
	return n
}

// Responses returns the total parsed responses of all kinds.
// OtherICMPv6 already folds echo replies and unreachables.
func (s *Store) Responses() int64 {
	return s.TimeExceeded + s.TCPRsts + s.OtherICMPv6()
}
