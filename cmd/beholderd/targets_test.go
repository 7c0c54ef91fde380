package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"slices"
	"strings"
	"testing"
)

// stringTargets decodes a targets value through a []string field:
// encoding/json into strings, then netip.ParseAddr on each until the
// first that fails.
func stringTargets(in []byte) (addrs []netip.Addr, bad string, badErr, decErr error) {
	var ss []string
	if decErr = json.Unmarshal(in, &ss); decErr != nil {
		return nil, "", nil, decErr
	}
	for _, s := range ss {
		a, err := netip.ParseAddr(s)
		if err != nil {
			return nil, s, err, nil
		}
		addrs = append(addrs, a)
	}
	return addrs, "", nil, nil
}

// FuzzSubmitTargets is differential: a targets value decodes into a
// targetList exactly when it decodes into a []string, yields the
// addresses netip.ParseAddr makes of those strings, and, when one of
// them is no address, names the same first one with the same error.
// Its seed corpus is written by tools/gencorpus.
func FuzzSubmitTargets(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		want, wantBad, wantBadErr, wantDecErr := stringTargets(in)
		var got targetList
		decErr := json.Unmarshal(in, &got)
		if (decErr == nil) != (wantDecErr == nil) {
			t.Fatalf("%q: decode error %v, []string decode error %v", in, decErr, wantDecErr)
		}
		if decErr != nil {
			return
		}
		if (got.err == nil) != (wantBadErr == nil) {
			t.Fatalf("%q: bad target %q (%v), want %q (%v)", in, got.bad, got.err, wantBad, wantBadErr)
		}
		if got.err != nil {
			if got.bad != wantBad || got.err.Error() != wantBadErr.Error() {
				t.Fatalf("%q: bad target %q (%v), want %q (%v)", in, got.bad, got.err, wantBad, wantBadErr)
			}
			return
		}
		if !slices.Equal(got.addrs, want) {
			t.Fatalf("%q: addresses %v, want %v", in, got.addrs, want)
		}
		// What decodes re-encodes to a value that decodes to itself.
		enc, err := json.Marshal(got)
		if err != nil {
			t.Fatalf("%q: encode: %v", in, err)
		}
		var back targetList
		if err := json.Unmarshal(enc, &back); err != nil || back.err != nil || !slices.Equal(back.addrs, got.addrs) {
			t.Fatalf("%q: re-encoded as %s, which decodes to %v (%v, %v)", in, enc, back.addrs, err, back.err)
		}
	})
}

// TestSubmitTargetsAllocs pins the decoder's allocations to a constant
// per body: decoding a 10 000-target request costs what a 10-target one
// does.
func TestSubmitTargetsAllocs(t *testing.T) {
	body := func(n int) []byte {
		var b bytes.Buffer
		b.WriteString(`{"tenant":"alice","name":"c1","targets":[`)
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, `"2001:db8:%x::%x"`, i>>8, i)
		}
		b.WriteString(`]}`)
		return b.Bytes()
	}
	allocs := func(b []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			var req campaignReq
			if err := json.Unmarshal(b, &req); err != nil || len(req.Targets.addrs) == 0 {
				t.Fatalf("decode: %v", err)
			}
		})
	}
	small, large := allocs(body(10)), allocs(body(10_000))
	if large != small {
		t.Fatalf("decoding 10 000 targets: %v allocations, 10 targets: %v", large, small)
	}
}

// TestSubmitTargetErrors pins the refusals' text: a non-string element
// fails the decode with encoding/json's own message, and a string that is
// no address is named by submit as before.
func TestSubmitTargetErrors(t *testing.T) {
	var req campaignReq
	err := json.Unmarshal([]byte(`{"tenant":"alice","targets":["2001:db8::1",7]}`), &req)
	var te *json.UnmarshalTypeError
	if !errors.As(err, &te) || !strings.Contains(err.Error(), "campaignReq.targets of type string") {
		t.Fatalf("number element: %v", err)
	}
	d := aliceDaemon(t)
	req = campaignReq{}
	if err := json.Unmarshal([]byte(`{"tenant":"alice","name":"x","targets":["2001:db8::1","nope"]}`), &req); err != nil {
		t.Fatal(err)
	}
	_, err = d.submit(req, nil, true)
	if want := `bad target "nope": ParseAddr("nope"): unable to parse IP`; err == nil || err.Error() != want {
		t.Fatalf("submit: %v, want %s", err, want)
	}
}
