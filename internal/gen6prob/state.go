// Source serialization: the blob that rides in adaptive checkpoint
// artifacts, so an interrupted run resumes mid-adaptation from the
// artifact alone. It carries what New was built from — the config and
// the seed observations — and everything generation has changed since:
// sampler counter, emitted set, and the weighted trie as a preorder walk
// with per-node child masks. Only the cluster prior is rebuilt, and
// deterministically, from the seeds. The encoding is canonical:
// RestoreState accepts exactly the blobs AppendState writes
// (FuzzRestoreState pins this).
package gen6prob

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
)

// stateMagic versions the serialized source.
const stateMagic = "G6PB03"

// AppendState implements core.TargetSource: it appends the complete
// source — config, seeds, sampler counter, emitted-target set, weighted
// trie — to buf and returns the extended slice.
func (s *Source) AppendState(buf []byte) []byte {
	c := &s.cfg
	buf = append(buf, stateMagic...)
	for _, v := range []uint64{c.Key, c.RewardWeight, uint64(c.AliasMinHits)} {
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	buf = appendAddrs(buf, s.seeds)
	buf = binary.LittleEndian.AppendUint64(buf, s.ctr)
	emitted := make([]netip.Addr, 0, len(s.emitted))
	for a := range s.emitted {
		emitted = append(emitted, a)
	}
	slices.SortFunc(emitted, netip.Addr.Compare)
	buf = appendAddrs(buf, emitted)
	return appendNode(buf, s.root)
}

// appendAddrs appends a counted list of 16-byte addresses.
func appendAddrs(buf []byte, addrs []netip.Addr) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(addrs)))
	for _, a := range addrs {
		a16 := a.As16()
		buf = append(buf, a16[:]...)
	}
	return buf
}

func appendNode(buf []byte, n *node) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, n.weight)
	var flags byte
	if n.dead {
		flags |= 1
	}
	if n.spent {
		flags |= 2
	}
	buf = append(buf, flags)
	var mask uint16
	for v := 0; v < 16; v++ {
		if n.children[v] != nil {
			mask |= 1 << v
		}
	}
	buf = binary.LittleEndian.AppendUint16(buf, mask)
	for v := 0; v < 16; v++ {
		if n.children[v] != nil {
			buf = appendNode(buf, n.children[v])
		}
	}
	return buf
}

// RestoreState implements core.TargetSource: it replaces the whole
// source with the serialized one, so a zero Source restores into the
// source that wrote the blob — nothing about its construction is
// supplied by the caller.
func (s *Source) RestoreState(data []byte) error {
	r := stateReader{buf: data}
	if string(r.take(len(stateMagic))) != stateMagic {
		return fmt.Errorf("gen6prob: bad state magic")
	}
	var cfg Config
	cfg.Key, cfg.RewardWeight, cfg.AliasMinHits = r.uint(8), r.uint(8), int(int64(r.uint(8)))
	canon := cfg
	canon.setDefaults()
	if canon != cfg {
		r.fail("non-canonical config")
	}
	seeds := r.addrs(false)
	ctr := r.uint(8)
	emitted := r.addrs(true)
	root := r.node(0)
	if r.err == nil && r.off != len(data) {
		r.fail("%d trailing state bytes", len(data)-r.off)
	}
	if r.err != nil {
		return r.err
	}
	*s = Source{
		cfg:      cfg,
		seeds:    seeds,
		clusters: clusters(seeds),
		root:     root,
		emitted:  make(map[netip.Addr]struct{}, len(emitted)),
		ctr:      ctr,
	}
	for _, a := range emitted {
		s.emitted[a] = struct{}{}
	}
	return nil
}

// stateReader is a bounds-checked cursor over an untrusted state blob.
// The first failure sticks in err and every later read returns zero, so
// RestoreState reads the layout straight through and checks once.
type stateReader struct {
	buf []byte
	off int
	err error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("gen6prob: "+format, args...)
	}
}

// take returns the next n bytes, or nil once the blob has run short.
func (r *stateReader) take(n int) []byte {
	if r.err == nil && len(r.buf)-r.off < n {
		r.fail("truncated state at offset %d", r.off)
	}
	if r.err != nil {
		return nil
	}
	r.off += n
	return r.buf[r.off-n : r.off]
}

// uint reads an n-byte little-endian unsigned integer.
func (r *stateReader) uint(n int) uint64 {
	var v uint64
	for i, c := range r.take(n) {
		v |= uint64(c) << (8 * i)
	}
	return v
}

// addrs reads a counted address list in the ascending order appendAddrs
// is given: strictly ascending for a set, repeats allowed otherwise. The
// count is checked against the bytes left before anything is allocated.
func (r *stateReader) addrs(set bool) []netip.Addr {
	n := r.uint(4)
	if r.err == nil && n*16 > uint64(len(r.buf)-r.off) {
		r.fail("implausible address count %d", n)
	}
	if r.err != nil {
		return nil
	}
	out := make([]netip.Addr, n)
	for i := range out {
		var a16 [16]byte
		copy(a16[:], r.take(16))
		out[i] = netip.AddrFrom16(a16)
		if i == 0 {
			continue
		}
		if c := out[i-1].Compare(out[i]); c > 0 || set && c == 0 {
			r.fail("addresses out of order at entry %d", i)
		}
	}
	return out
}

// node reads one trie node and its subtree, preorder.
func (r *stateReader) node(depth int) *node {
	if depth > nybbleDepth {
		r.fail("trie deeper than %d levels", nybbleDepth)
	}
	if r.err != nil {
		return nil
	}
	n := &node{weight: r.uint(8)}
	flags := r.uint(1)
	if flags > 3 {
		r.fail("unknown node flags %#x", flags)
	}
	n.dead, n.spent = flags&1 != 0, flags&2 != 0
	mask := r.uint(2)
	for v := 0; v < 16 && r.err == nil; v++ {
		if mask&(1<<v) != 0 {
			n.children[v] = r.node(depth + 1)
		}
	}
	return n
}
