package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiment"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from the current code")

// TestOrderCoversRegistry ensures -exp all runs every registered
// experiment and that every id in the order list resolves.
func TestOrderCoversRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range order {
		if _, ok := experiments[id]; !ok {
			t.Errorf("order lists unknown experiment %q", id)
		}
		if seen[id] {
			t.Errorf("order lists %q twice", id)
		}
		seen[id] = true
	}
	for id := range experiments {
		if !seen[id] {
			t.Errorf("experiment %q missing from -exp all order", id)
		}
	}
}

const digestsFile = "testdata/digests.txt"

// TestExperimentDigests pins every paper experiment: for each id in order
// it runs the experiment as `hexpaper -exp <id> -runs 6 -json` does and
// compares the SHA-256 of that JSON object, without its "seconds", with
// testdata/digests.txt. A digest that moves means the experiment's output
// moved; an intended change reruns the test with -update and names each
// changed id in the changelog.
func TestExperimentDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all 32 experiments (a few seconds)")
	}
	o := experiment.Options{Runs: 6, Seed: 1}
	got := make(map[string]string, len(order))
	for _, id := range order {
		text, data, err := experiments[id](o)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		body, err := json.Marshal(struct {
			ID   string             `json:"id"`
			Data map[string]float64 `json:"data,omitempty"`
			Text string             `json:"text"`
		}{id, data, text})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		sum := sha256.Sum256(body)
		got[id] = hex.EncodeToString(sum[:])
	}

	if *update {
		var b strings.Builder
		for _, id := range order {
			fmt.Fprintf(&b, "%s %s\n", id, got[id])
		}
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		id, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestsFile, sc.Text())
		}
		want[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, id := range order {
		switch w, ok := want[id]; {
		case !ok:
			t.Errorf("%s: no pinned digest (run with -update)", id)
		case w != got[id]:
			t.Errorf("%s: digest %s, pinned %s", id, got[id], w)
		}
	}
	if len(want) != len(order) {
		t.Errorf("%s pins %d experiments, order lists %d", digestsFile, len(want), len(order))
	}
}
