package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/digests.txt from the current code")

const digestsFile = "testdata/digests.txt"

// invocations are the pinned hexsim command lines, by name: the fault-free
// default, both fault types, HEX+, every layer-0 scenario and every
// output mode.
var invocations = []struct {
	name string
	args []string
}{
	{"fault-free", []string{"-L", "20", "-W", "10", "-seed", "3"}},
	{"byzantine", []string{"-L", "20", "-W", "10", "-faults", "2", "-seed", "7"}},
	{"fail-silent", []string{"-L", "20", "-W", "10", "-faults", "2", "-fault-type", "fail-silent", "-seed", "7"}},
	{"plus", []string{"-L", "16", "-W", "9", "-plus", "-faults", "2", "-seed", "5"}},
	{"scenario-ii", []string{"-L", "18", "-W", "8", "-scenario", "ii", "-seed", "11"}},
	{"scenario-iii", []string{"-L", "18", "-W", "8", "-scenario", "iii", "-seed", "11"}},
	{"scenario-iv", []string{"-L", "18", "-W", "8", "-scenario", "iv", "-seed", "11"}},
	{"layers", []string{"-L", "12", "-W", "6", "-layers", "-heat=false", "-seed", "2"}},
	{"csv", []string{"-L", "10", "-W", "6", "-csv", "-scenario", "iii", "-seed", "4"}},
	{"svg", []string{"-L", "10", "-W", "6", "-svg", "-faults", "1", "-seed", "4"}},
}

// runHexsim runs hexsim in process and returns its stdout and stderr.
func runHexsim(t *testing.T, args []string) (string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("hexsim %s: exit %d\n%s", strings.Join(args, " "), code, stderr.String())
	}
	return stdout.String(), stderr.String()
}

// TestHexsimDigests pins hexsim's standard output: the SHA-256 of stdout
// for each invocation must equal testdata/digests.txt. Each invocation
// runs again with -trace-tail 64, whose tracer makes the core execute
// every event; its stdout must be identical, and the flight summary goes
// to stderr only. An intended output change reruns the test with -update.
func TestHexsimDigests(t *testing.T) {
	got := make(map[string]string, len(invocations))
	for _, inv := range invocations {
		out, _ := runHexsim(t, inv.args)
		traced, stderr := runHexsim(t, append([]string{"-trace-tail", "64"}, inv.args...))
		if traced != out {
			t.Errorf("%s: stdout differs with -trace-tail 64", inv.name)
		}
		if !strings.Contains(stderr, "hexsim: flight recorder: captured=64") {
			t.Errorf("%s: no flight summary on stderr with -trace-tail 64:\n%s", inv.name, stderr)
		}
		sum := sha256.Sum256([]byte(out))
		got[inv.name] = hex.EncodeToString(sum[:])
	}

	if *update {
		var b strings.Builder
		for _, inv := range invocations {
			fmt.Fprintf(&b, "%s %s\n", inv.name, got[inv.name])
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
		name, sum, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestsFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, inv := range invocations {
		switch w, ok := want[inv.name]; {
		case !ok:
			t.Errorf("%s: no pinned digest (run with -update)", inv.name)
		case w != got[inv.name]:
			t.Errorf("%s: digest %s, pinned %s", inv.name, got[inv.name], w)
		}
	}
	if len(want) != len(invocations) {
		t.Errorf("%s pins %d invocations, the test runs %d", digestsFile, len(want), len(invocations))
	}
}
