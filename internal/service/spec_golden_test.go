package service

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
)

var update = flag.Bool("update", false, "rewrite testdata/spec_digests.txt from the current code")

const specDigestsFile = "testdata/spec_digests.txt"

// TestSpecDigests pins the bytes hexd serves. For /v1/spec (HEX and HEX+,
// fault-free, Byzantine and fail-silent, with and without exclude_hops)
// and for /v1/run (every output, every scenario, the same fault mixes and
// both topologies), it compares each request's canonical key and the
// SHA-256 of its response body with testdata/spec_digests.txt. Each run is
// served twice, by Service.Handler() and by RunUnits on a second service,
// so neither path answers from the other's cache and both must agree. An
// intended change reruns the test with -update and names each changed
// case in the changelog.
func TestSpecDigests(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	h := s.Handler()
	got := map[string]string{}
	var names []string
	for _, plus := range []bool{false, true} {
		for _, ft := range []string{"correct", "byzantine", "fail-silent"} {
			for _, hops := range []int{0, 2} {
				req := SpecRequest{L: 12, W: 8, Scenario: "iii", Runs: 6, Seed: 3,
					FaultType: ft, HexPlus: plus, ExcludeHops: hops}
				if ft != "correct" {
					req.Faults = 2
				}
				body, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/spec", strings.NewReader(string(body))))
				if rec.Code != http.StatusOK {
					t.Fatalf("%s: status %d (%s)", body, rec.Code, rec.Body)
				}
				if err := req.Normalize(s.Options()); err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("plus=%t/%s/hops=%d", plus, ft, hops)
				sum := sha256.Sum256(rec.Body.Bytes())
				got[name] = req.CanonicalKey() + " " + hex.EncodeToString(sum[:])
				names = append(names, name)
			}
		}
	}

	first, runs := len(names), []RunRequest(nil)
	for _, out := range []string{"stats", "csv", "svg", "agg"} {
		for _, sc := range []string{"zero", "udminus", "udplus", "ramp"} {
			for _, ft := range []string{"correct", "byzantine", "fail-silent"} {
				for _, plus := range []bool{false, true} {
					req := RunRequest{L: 12, W: 8, Scenario: sc, Seed: 3, FaultType: ft, HexPlus: plus, Output: out}
					if ft != "correct" {
						req.Faults = 2
					}
					body, err := json.Marshal(req)
					if err != nil {
						t.Fatal(err)
					}
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(string(body))))
					if rec.Code != http.StatusOK {
						t.Fatalf("%s: status %d (%s)", body, rec.Code, rec.Body)
					}
					if err := req.Normalize(s.Options()); err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("run/%s/%s/%s/plus=%t", out, sc, ft, plus)
					got[name] = req.CanonicalKey() + " " + bodyDigest(t, out, rec.Body.Bytes())
					names = append(names, name)
					runs = append(runs, req)
				}
			}
		}
	}
	vals, errs := newTestService(t, Options{Workers: 2}).RunUnits(context.Background(), time.Minute, runs)
	for i, req := range runs {
		name := names[first+i]
		if errs[i] != nil {
			t.Fatalf("RunUnits %s: %v", name, errs[i])
		}
		if d := req.CanonicalKey() + " " + bodyDigest(t, req.Output, vals[i].Body); d != got[name] {
			t.Errorf("%s: RunUnits serves %q, the handler %q", name, d, got[name])
		}
	}

	if *update {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(specDigestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(specDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, rest, ok := strings.Cut(sc.Text(), " "); ok {
			want[name] = rest
		}
	}
	if len(want) != len(names) {
		t.Errorf("%s has %d cases, the test runs %d", specDigestsFile, len(want), len(names))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s: key and digest %q, want %q", name, got[name], want[name])
		}
	}
}

// bodyDigest is the hex SHA-256 of a served body. An agg record carries
// the run's wall time, so its ElapsedNs is zeroed before hashing.
func bodyDigest(t *testing.T, output string, body []byte) string {
	t.Helper()
	if output == "agg" {
		a, err := store.DecodeAggregate(body)
		if err != nil {
			t.Fatal(err)
		}
		a.ElapsedNs = 0
		body = store.EncodeAggregate(a)
	}
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}
