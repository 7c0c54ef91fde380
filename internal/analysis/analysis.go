// Package analysis computes the derived metrics the paper's tables and
// figures report — per-hop responsiveness, EUI-64 path offsets, feature
// coverage and exclusivity, reachability — and renders them as text
// tables and series suitable for terminal output and EXPERIMENTS.md.
package analysis

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"

	"beholder/internal/bgp"
	"beholder/internal/ipv6"
	"beholder/internal/probe"
)

// PerHopResponsiveness returns, for each TTL in [1, maxTTL], the fraction
// of traces with a Time-Exceeded response at that hop (Figure 5's
// y-axis). denom is the number of traces that probed each hop — for
// randomized full-range probing this is the target count.
func PerHopResponsiveness(store *probe.Store, maxTTL int, denom int) []float64 {
	counts := make([]int, maxTTL+1)
	for _, tr := range store.Traces() {
		store.ForEachHop(tr, func(ttl uint8, _ uint32) {
			if int(ttl) <= maxTTL {
				counts[ttl]++
			}
		})
	}
	out := make([]float64, maxTTL)
	for ttl := 1; ttl <= maxTTL; ttl++ {
		if denom > 0 {
			out[ttl-1] = float64(counts[ttl]) / float64(denom)
		}
	}
	return out
}

// PathLengths returns the distribution of per-trace path lengths
// (highest responding TTL) for traces with any hop.
func PathLengths(store *probe.Store) []int {
	var out []int
	for _, tr := range store.Traces() {
		if l := tr.PathLength(); l > 0 {
			out = append(out, l)
		}
	}
	sort.Ints(out)
	return out
}

// Percentile returns the p'th percentile (0-100) of sorted values; zero
// for empty input.
func Percentile(sorted []int, p int) int {
	if len(sorted) == 0 {
		return 0
	}
	idx := p * (len(sorted) - 1) / 100
	return sorted[idx]
}

// EUIOffsets computes, for every EUI-64 interface address discovered in
// store, its hop position as a negative offset from the end of its trace
// (Table 7's "EUI-64: Path Offset": 0 means last hop on path). The
// returned slice is sorted ascending.
func EUIOffsets(store *probe.Store) []int {
	var out []int
	tab := store.AddrTable()
	for _, tr := range store.Traces() {
		plen := tr.PathLength()
		store.ForEachHop(tr, func(ttl uint8, id uint32) {
			if ipv6.IsEUI64IID(ipv6.IID(tab.Addr(id))) {
				out = append(out, int(ttl)-plen)
			}
		})
	}
	sort.Ints(out)
	return out
}

// CountEUIInterfaces returns how many distinct discovered interface
// addresses carry EUI-64 identifiers.
func CountEUIInterfaces(store *probe.Store) int {
	n := 0
	store.ForEachInterface(func(a netip.Addr) {
		if ipv6.IsEUI64IID(ipv6.IID(a)) {
			n++
		}
	})
	return n
}

// ReachedTargetASNFraction returns the fraction of traces with at least
// one hop resolving (RIR- and equivalence-augmented) to the target's
// origin ASN — Table 7's "Reach Target ASN" column.
func ReachedTargetASNFraction(store *probe.Store, table *bgp.Table) float64 {
	total, reached := 0, 0
	tab := store.AddrTable()
	for _, tr := range store.Traces() {
		asn := table.Origin(tr.Target)
		if asn == 0 {
			continue
		}
		total++
		in := false
		store.ForEachHop(tr, func(_ uint8, id uint32) {
			if in {
				return
			}
			hopASN := table.OriginAny(tab.Addr(id))
			in = hopASN != 0 && table.SameOrg(hopASN, asn)
		})
		if in {
			reached++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(reached) / float64(total)
}

// Features summarizes a set of addresses against the RIB: distinct
// covering BGP prefixes and origin ASNs (Tables 5 and 7).
type Features struct {
	Addrs    *ipv6.Set
	Routed   int
	Prefixes map[netip.Prefix]struct{}
	ASNs     map[uint32]struct{}
}

// FeaturesOf computes coverage features for a set of addresses.
func FeaturesOf(addrs *ipv6.Set, table *bgp.Table) Features {
	f := Features{
		Addrs:    addrs,
		Prefixes: make(map[netip.Prefix]struct{}),
		ASNs:     make(map[uint32]struct{}),
	}
	for _, a := range addrs.Addrs() {
		rt, ok := table.Lookup(a)
		if !ok {
			continue
		}
		f.Routed++
		f.Prefixes[rt.Prefix] = struct{}{}
		f.ASNs[rt.Origin] = struct{}{}
	}
	return f
}

// ExclusiveKeys returns, per named set, the keys appearing in that set
// only (the "Exclusive" columns and Figure 2/6 insets).
func ExclusiveKeys[K comparable](sets map[string]map[K]struct{}) map[string]int {
	mult := make(map[K]int)
	for _, s := range sets {
		for k := range s {
			mult[k]++
		}
	}
	out := make(map[string]int, len(sets))
	for name, s := range sets {
		n := 0
		for k := range s {
			if mult[k] == 1 {
				n++
			}
		}
		out[name] = n
	}
	return out
}

// Count6to4 tallies addresses in 2002::/16 (Table 5's 6to4 column).
func Count6to4(s *ipv6.Set) int {
	n := 0
	for _, a := range s.Addrs() {
		if ipv6.Is6to4(a) {
			n++
		}
	}
	return n
}

// Table is a renderable result table.
type Table struct {
	ID      string // e.g. "Table 3"
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render formats the table as aligned text.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Series is one named line of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a renderable result figure: named series over a common axis
// definition.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// Render formats the figure as a per-series data listing.
func (f *Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s  [x: %s, y: %s]\n", f.ID, f.Title, f.XLabel, f.YLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "  %s:\n", s.Name)
		for i := range s.X {
			fmt.Fprintf(&b, "    %g\t%g\n", s.X[i], s.Y[i])
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}
