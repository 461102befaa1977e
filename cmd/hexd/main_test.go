package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestBackendAndRouterLifecycle builds hexd and runs it as both roles: a
// -store-dir backend and a -router over it, each on a port the kernel
// picks. One /v1/run through the router must answer 200 with the client's
// request ID echoed; then SIGTERM must drain each process to exit status
// 0 with "drained, bye" as its last word.
func TestBackendAndRouterLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the hexd binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "hexd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	backend := startHexd(t, bin, "-store-dir", filepath.Join(dir, "store"))
	router := startHexd(t, bin, "-router", "-peers", "http://"+backend.addr)

	req, err := http.NewRequest(http.MethodPost, "http://"+router.addr+"/v1/run",
		strings.NewReader(`{"l":10,"w":6,"seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "hexd-lifecycle-1")
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/run via the router = %d (%s)", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Request-ID"); got != "hexd-lifecycle-1" {
		t.Errorf("X-Request-ID = %q, want the client's own", got)
	}

	router.stop(t)
	backend.stop(t)
}

// daemon is one running hexd process and the log it wrote to stderr.
type daemon struct {
	cmd  *exec.Cmd
	addr string        // the bound address its "listening" line reports
	done chan struct{} // closed when its stderr reaches EOF

	mu  sync.Mutex
	log strings.Builder
}

// startHexd runs bin on 127.0.0.1:0 with args and waits for its
// "listening" line. The process is killed at cleanup if still running.
func startHexd(t *testing.T, bin string, args ...string) *daemon {
	t.Helper()
	d := &daemon{
		cmd:  exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...),
		done: make(chan struct{}),
	}
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if d.cmd.ProcessState == nil {
			d.cmd.Process.Kill()
			<-d.done
			d.cmd.Wait()
		}
	})
	addrc := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			d.mu.Lock()
			d.log.WriteString(sc.Text() + "\n")
			d.mu.Unlock()
			var line struct{ Msg, Addr string }
			if json.Unmarshal(sc.Bytes(), &line) == nil && strings.HasSuffix(line.Msg, "listening") {
				select {
				case addrc <- line.Addr:
				default:
				}
			}
		}
	}()
	select {
	case d.addr = <-addrc:
	case <-d.done:
		t.Fatalf("hexd %v exited before listening:\n%s", args, d.logText())
	case <-time.After(30 * time.Second):
		t.Fatalf("hexd %v not listening after 30s:\n%s", args, d.logText())
	}
	return d
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

// stop sends SIGTERM and requires a clean drain: exit status 0 and a
// last log line that says "drained, bye".
func (d *daemon) stop(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-d.done:
	case <-time.After(30 * time.Second):
		t.Fatalf("hexd %v still running 30s after SIGTERM:\n%s", d.cmd.Args, d.logText())
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("hexd %v: %v\n%s", d.cmd.Args, err, d.logText())
	}
	lines := strings.Split(strings.TrimSpace(d.logText()), "\n")
	if last := lines[len(lines)-1]; !strings.Contains(last, "drained, bye") {
		t.Fatalf("hexd %v ended its log with %s, want \"drained, bye\"", d.cmd.Args, last)
	}
}
