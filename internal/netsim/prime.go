package netsim

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"beholder/internal/sorted"
)

// Prime replay and simulator-state checkpointing.
//
// The only mutable state the response side of the simulator carries is
// router token buckets — everything else is a pure function of (seed,
// probe bytes, send time). Two mechanisms make that state exact across
// the campaign engine's structural transformations:
//
//   - Prime replay (BeginPrime/PrimeFlow/PrimeRun/EndPrime): a shard
//     clone replays the serial probe schedule that precedes its
//     permutation window, running send's routing decision (decide) —
//     its draws and token-bucket consumption — at the replayed instants
//     without decoding packets, scheduling replies, counting stats, or
//     consulting the fault plane.
//     After the replay the clone's buckets hold exactly the levels the
//     single serial prober's would have held at the window-start
//     instant, so N-shard reply counters match serial even past ICMPv6
//     rate-limit saturation.
//
//   - Sim-state blobs (ExportSimState/ImportSimState): a checkpointing
//     prober exports the bucket levels at the interrupt instant and the
//     resumed connection imports them, so a resumed run is byte-exact
//     even when a rate limiter was saturated across the interrupt —
//     including bucket consumption from fill probes, which a replay of
//     the raw schedule alone could not reproduce.

// BeginPrime opens a prime replay: PrimeFlow/PrimeRun evaluate probes
// against the router token buckets at explicit replayed instants while
// the clock stays parked, no replies are scheduled, and the fault plane
// is never consulted (a faulted vantage's own schedule deviates from
// serial anyway, and prime replays the serial history). Vantage stats —
// PrimeFlow's plan lookups count as hits and misses — are snapshotted
// here and restored at EndPrime; universe stats are untouched.
func (v *Vantage) BeginPrime() { v.primeSaved = v.Stats }

// EndPrime closes the replay, restoring the vantage stats BeginPrime
// saved. Flow tokens issued by PrimeFlow are invalidated.
func (v *Vantage) EndPrime() {
	v.Stats = v.primeSaved
	v.primeFlows = v.primeFlows[:0]
}

// primeFlow is the per-flow replay state behind a PrimeFlow token: the
// flow's plan — an immutable core, so holding the pointer pins it
// whatever the table evicts — and whether its destination answers the
// probe itself (hostAnswers).
type primeFlow struct {
	plan    *planCore
	answers bool
}

// PrimeFlow registers the probe's flow for replay and returns its
// token. Sending a probe pays packet decode, plan lookup, and the
// reply-construction branches; a Yarrp6 replay touches each flow
// ~TTL-span times, so callers register the flow once (building one
// representative probe — flow identity is constant per target by Yarrp6
// construction) and replay each (TTL, instant) through PrimeRun. Tokens
// are valid until EndPrime.
func (v *Vantage) PrimeFlow(pkt []byte) (int, error) {
	if err := v.dec.Decode(pkt); err != nil {
		return 0, fmt.Errorf("netsim: undecodable probe: %w", err)
	}
	d := &v.dec
	plan := v.lookupPlan(d)
	if plan == &v.scratch {
		// No table: the scratch core is overwritten by the next lookup.
		plan = v.publish(plan)
	}
	v.primeFlows = append(v.primeFlows, primeFlow{plan: plan, answers: hostAnswers(plan, d)})
	return len(v.primeFlows) - 1, nil
}

// PrimeRun replays a run of probes of registered flows, probe i being
// flow toks[i] at hop limit ttls[i], departing at at0 + i·gap; a
// negative token skips its probe (its flow could not be registered) but
// not its instant. Each probe runs send's routing decision (decide) —
// its draws and its router token-bucket refill/consume — with everything
// that cannot touch a bucket — packet parsing, plan lookup, counters,
// reply construction — elided. Runs must be replayed in schedule order
// (bucket refill clamps backwards time).
//
// The run is gathered, then replayed (gather.go): passes over the run
// load every probe's plan core, step and router row, then the probes
// are applied in order.
func (v *Vantage) PrimeRun(toks []int, ttls []uint8, at0, gap time.Duration) {
	if len(v.gather) < len(toks) {
		v.gather = make([]gatherSlot, len(toks))
	}
	v.gnext = nil // the scratch no longer holds a send batch's gather
	g := v.gather[:len(toks)]
	for i, tok := range toks {
		g[i] = gatherSlot{}
		if tok >= 0 {
			c := v.primeFlows[tok].plan
			g[i] = gatherSlot{c: c, aux: stepOf(c, ttls[i])}
		}
	}
	v.gsink += v.gatherRouters(g)
	at := at0
	for i, tok := range toks {
		if tok >= 0 {
			v.prime1(&v.primeFlows[tok], ttls[i], at)
		}
		at += gap
	}
}

// PrimeIdx replays one probe of a registered flow at virtual instant at:
// the one-probe case of PrimeRun.
func (v *Vantage) PrimeIdx(tok int, ttl uint8, at time.Duration) {
	v.prime1(&v.primeFlows[tok], ttl, at)
}

// prime1 replays one probe of flow f: send's routing decision, kept
// for its bucket effect alone.
func (v *Vantage) prime1(f *primeFlow, ttl uint8, at time.Duration) {
	v.decide(f.plan, h(f.plan.fh, 40, uint64(ttl)), ttl, f.answers, at)
}

// simStateEntrySize is the serialized size of one router bucket record:
// RouterKey (ASN u32, Class u8, K1 u64, K2 u64) + tokens f64 + last i64.
const simStateEntrySize = 4 + 1 + 8 + 8 + 8 + 8

// simStateKeyCompare is the router-key order sim-state blobs are sorted
// in: (ASN, Class, K1, K2) lexicographic.
func simStateKeyCompare(a, b RouterKey) int {
	switch {
	case a.ASN != b.ASN:
		return cmp.Compare(a.ASN, b.ASN)
	case a.Class != b.Class:
		return cmp.Compare(a.Class, b.Class)
	case a.K1 != b.K1:
		return cmp.Compare(a.K1, b.K1)
	}
	return cmp.Compare(a.K2, b.K2)
}

// simEntry reads record i of a sim-state entry region.
func simEntry(data []byte, i int) (k RouterKey, tokens float64, last time.Duration) {
	e := data[i*simStateEntrySize:]
	k.ASN = binary.LittleEndian.Uint32(e)
	k.Class = e[4]
	k.K1 = binary.LittleEndian.Uint64(e[5:])
	k.K2 = binary.LittleEndian.Uint64(e[13:])
	tokens = math.Float64frombits(binary.LittleEndian.Uint64(e[21:]))
	last = time.Duration(binary.LittleEndian.Uint64(e[29:]))
	return
}

// ExportSimState appends the vantage's mutable simulator state — the
// router token-bucket levels — to buf and returns the extended slice:
// the born routers, plus any imported records whose router was never
// touched (and so still carries exactly the imported state). Entries are
// sorted by router key, so equal states serialize to equal bytes.
// Campaign checkpointing stores the blob in the artifact;
// ImportSimState restores it. The export is one merge of two ascending
// sequences — the key-sorted row index, of which only the rows born
// since the previous export need sorting, and the imported records.
func (v *Vantage) ExportSimState(buf []byte) []byte {
	n := len(v.byKey)
	v.byKey = v.appendBorn(v.byKey, n)
	sorted.Tail(v.byKey, n, func(a, b uint32) int { return simStateKeyCompare(v.row(a).key(), v.row(b).key()) })
	pending := v.simPending
	buf = slices.Grow(buf, 4+len(v.byKey)*simStateEntrySize+len(pending))
	head := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	for _, ref := range v.byKey {
		r := v.row(ref)
		// Imported records ahead of r belong to routers never touched
		// here; a record for r itself is stale — the live bucket wins.
		for len(pending) > 0 {
			k, _, _ := simEntry(pending, 0)
			c := simStateKeyCompare(k, r.key())
			if c < 0 {
				buf = append(buf, pending[:simStateEntrySize]...)
			} else if c > 0 {
				break
			}
			pending = pending[simStateEntrySize:]
		}
		buf = binary.LittleEndian.AppendUint32(buf, r.asn)
		buf = append(buf, r.class)
		buf = binary.LittleEndian.AppendUint64(buf, r.k1)
		buf = binary.LittleEndian.AppendUint64(buf, r.k2)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.tokens))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(r.last))
	}
	buf = append(buf, pending...)
	binary.LittleEndian.PutUint32(buf[head:], uint32((len(buf)-head-4)/simStateEntrySize))
	return buf
}

// appendBorn appends to dst the refs of the rows born after the first
// from, in birth order.
func (v *Vantage) appendBorn(dst []uint32, from int) []uint32 {
	for c, chunk := range v.rows {
		for off := from; off < len(chunk); off++ {
			dst = append(dst, uint32(c)<<rowChunkBits|uint32(off))
		}
		from = max(from-len(chunk), 0)
	}
	return dst
}

// ImportSimState restores the bucket levels serialized by
// ExportSimState. Restoration is lazy: the record region is retained
// (the caller hands over the buffer and must not modify it afterwards)
// and consulted at router birth via binary search, so a shard clone
// importing a whole campaign's bucket state materializes routers only
// as its own window touches them — importing costs nothing per router,
// and the untouched majority of a sibling's routers never exists here
// at all.
// Records for routers the vantage had already born are applied
// immediately; every router property beyond the bucket is re-derived
// purely from (seed, key), so restored routers are identical to the
// exporting vantage's.
func (v *Vantage) ImportSimState(data []byte) error {
	if len(data) < 4 {
		return fmt.Errorf("netsim: sim state: truncated header")
	}
	n := binary.LittleEndian.Uint32(data)
	data = data[4:]
	if uint64(len(data)) != uint64(n)*simStateEntrySize {
		return fmt.Errorf("netsim: sim state: %d bytes for %d routers", len(data), n)
	}
	var prev RouterKey
	for i := 0; i < int(n); i++ {
		k, tokens, last := simEntry(data, i)
		// Lookup and export both rely on the canonical order.
		if i > 0 && simStateKeyCompare(prev, k) >= 0 {
			return fmt.Errorf("netsim: sim state: router %v out of order", k)
		}
		prev = k
		if math.IsNaN(tokens) || math.IsInf(tokens, 0) || tokens < 0 {
			return fmt.Errorf("netsim: sim state: invalid token level for router %v", k)
		}
		// Virtual time never runs before zero; an instant that did would
		// overflow the refill's elapsed time into a negative level.
		if last < 0 {
			return fmt.Errorf("netsim: sim state: negative refill instant for router %v", k)
		}
		if _, ok := v.u.ASByASN(k.ASN); !ok {
			return fmt.Errorf("netsim: sim state: unknown AS %d", k.ASN)
		}
	}
	// The record region is retained and consulted at router birth; the
	// caller must not modify data afterwards. (Checkpoint decoders and
	// group priming both hand over buffers they never touch again.)
	v.simPending = data
	for _, chunk := range v.rows {
		for i := range chunk {
			r := &chunk[i]
			if tokens, last, ok := v.simLookup(r.key()); ok {
				r.tokens = min(tokens, r.burst)
				r.last = last
			}
		}
	}
	return nil
}

// simLookup finds key's imported bucket record, if any.
func (v *Vantage) simLookup(key RouterKey) (tokens float64, last time.Duration, ok bool) {
	n := len(v.simPending) / simStateEntrySize
	if n == 0 {
		return 0, 0, false
	}
	i := sort.Search(n, func(i int) bool {
		k, _, _ := simEntry(v.simPending, i)
		return simStateKeyCompare(k, key) >= 0
	})
	if i == n {
		return 0, 0, false
	}
	k, tokens, last := simEntry(v.simPending, i)
	if k != key {
		return 0, 0, false
	}
	return tokens, last, true
}
