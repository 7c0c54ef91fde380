package beholder

import "testing"

// TestExperimentSchedStudy: every supervised campaign's store equals
// its bare run — the deadline campaign's partial store included, which
// must equal the bare run interrupted at the same instant — and every
// row reports a nonempty graph.
func TestExperimentSchedStudy(t *testing.T) {
	tbl := smallExperiments().SchedStudy()
	if len(tbl.Rows) != 4 {
		t.Fatalf("SchedStudy rows = %d, want 4", len(tbl.Rows))
	}
	deadline := 0
	for _, row := range tbl.Rows {
		name, state, nodes, edges, equal := row[1], row[3], row[6], row[7], row[8]
		want := "equal"
		if state == "incomplete/deadline" {
			deadline++
			want = "equal (partial)"
		}
		if equal != want {
			t.Errorf("%s (%s): store vs bare = %q, want %q", name, state, equal, want)
		}
		if nodes == "0" || edges == "0" {
			t.Errorf("%s: graph has %s nodes and %s edges", name, nodes, edges)
		}
	}
	if deadline != 1 {
		t.Fatalf("%d rows ended on their deadline, want 1:\n%s", deadline, tbl.Render())
	}
}
