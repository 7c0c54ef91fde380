package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"beholder/internal/store"
)

// stringSpec is the spec schema with targets as strings: what earlier
// daemons wrote (indented, one string per target) and how a reader
// without targetList decodes a spec.
type stringSpec struct {
	Tenant  string   `json:"tenant"`
	Name    string   `json:"name"`
	Targets []string `json:"targets,omitempty"`
	Rate    float64  `json:"rate,omitempty"`
	MaxTTL  int      `json:"maxttl,omitempty"`
	Fill    bool     `json:"fill,omitempty"`
	Key     uint64   `json:"key,omitempty"`
	Shards  int      `json:"shards,omitempty"`
	Batch   int      `json:"batch,omitempty"`
}

func stringSpecOf(req campaignReq) stringSpec {
	sp := stringSpec{Tenant: req.Tenant, Name: req.Name, Rate: req.Rate, MaxTTL: req.MaxTTL,
		Fill: req.Fill, Key: req.Key, Shards: req.Shards, Batch: req.Batch}
	for _, a := range req.Targets.addrs {
		sp.Targets = append(sp.Targets, a.String())
	}
	return sp
}

// TestSpecFormatCompat: specs cross daemon versions both ways. A state
// dir holding an indented spec with string targets recovers and
// completes byte-equal to its solo run, and the compact spec a daemon
// pins at admission decodes, as strings, into the targets it was given.
func TestSpecFormatCompat(t *testing.T) {
	stateDir := filepath.Join(t.TempDir(), "state")
	reqs := soakCampaigns(t)[:2]
	old, fresh := reqs[0], reqs[1]
	st, err := store.Open(store.Config{Dir: stateDir, KeepSuffixes: []string{".stream.ndjson"}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(stringSpecOf(old), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(storeKey(old.Tenant, old.Name), kindSpec, blob); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	d := startTestDaemon(t, soakOptions(stateDir, 5*time.Millisecond, nil))
	if code := d.postReq(t, fresh); code != http.StatusOK {
		t.Fatalf("submit: %d", code)
	}
	d.waitCompleted(t, reqs)
	d.stop(t)
	checkStores(t, stateDir, reqs)

	st, err = store.Open(store.Config{Dir: stateDir, KeepSuffixes: []string{".stream.ndjson"}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	pinned, err := st.Get(storeKey(fresh.Tenant, fresh.Name), kindSpec)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.ContainsAny(pinned, "\n ") {
		t.Fatalf("pinned spec is not compact: %s", pinned)
	}
	var sp stringSpec
	if err := json.Unmarshal(pinned, &sp); err != nil {
		t.Fatal(err)
	}
	if want := stringSpecOf(fresh); !slices.Equal(sp.Targets, want.Targets) || len(sp.Targets) == 0 {
		t.Fatalf("pinned targets %v, want %v", sp.Targets, want.Targets)
	}
}
