package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"time"
)

// daemons are the real binaries permbench drives, built from the module's
// cmd/ packages.
var daemons = []string{"permserve", "permrouter", "shardsplit"}

// env owns everything a run leaves outside its own memory: the built
// binaries, the run's scratch directory and every child process. close
// undoes all of it and is safe on every exit path, signals included.
type env struct {
	modDir string // the bench module (holds go.mod and out/)
	binDir string // out/bin: kept between runs, go build skips up-to-date binaries
	runDir string // out/run-<pid>: index sets, WALs, child logs; removed by close

	http *http.Client

	mu      sync.Mutex
	procs   []*proc
	spawned int // children started so far; numbers their logs
	closed  bool
}

// proc is one child daemon.
type proc struct {
	name string
	cmd  *exec.Cmd
	url  string // http://127.0.0.1:<port>, parsed from the child's log
	done chan struct{}
}

// findModule walks up from the working directory to the bench module, so
// the command works from the module root (go run -C bench ./permbench) and
// from the package directory (go test).
func findModule() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		blob, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(blob), "module repro/bench\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("permbench must run inside the repro/bench module (try: go run -C bench ./permbench)")
		}
		dir = parent
	}
}

// newEnv locates the module, builds the daemons and creates the scratch
// directory. Everything is written under the module's out/, never outside
// the checkout.
func newEnv() (*env, error) {
	mod, err := findModule()
	if err != nil {
		return nil, err
	}
	e := &env{
		modDir: mod,
		binDir: filepath.Join(mod, "out", "bin"),
		runDir: filepath.Join(mod, "out", fmt.Sprintf("run-%d", os.Getpid())),
		http: &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 8,
				DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
			},
		},
	}
	if err := os.MkdirAll(e.binDir, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(e.runDir, 0o755); err != nil {
		return nil, err
	}
	args := []string{"build", "-o", e.binDir + string(filepath.Separator)}
	for _, d := range daemons {
		args = append(args, "repro/cmd/"+d)
	}
	build := exec.Command("go", args...)
	build.Dir = mod
	if out, err := build.CombinedOutput(); err != nil {
		e.close()
		return nil, fmt.Errorf("building daemons: %v\n%s", err, out)
	}
	return e, nil
}

// close kills every child, waits for each, and removes the scratch
// directory. Idempotent.
func (e *env) close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return
	}
	e.closed = true
	for _, p := range e.procs {
		p.cmd.Process.Kill()
	}
	for _, p := range e.procs {
		<-p.done
	}
	e.procs = nil
	e.http.CloseIdleConnections()
	os.RemoveAll(e.runDir)
}

// dumpLogs copies the tail of every child log to w; called when a run
// fails, before close removes them.
func (e *env) dumpLogs(w io.Writer) {
	logs, _ := filepath.Glob(filepath.Join(e.runDir, "*.log"))
	for _, path := range logs {
		blob, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
		if len(lines) > 25 {
			lines = lines[len(lines)-25:]
		}
		fmt.Fprintf(w, "--- %s\n%s\n", filepath.Base(path), bytes.Join(lines, []byte("\n")))
	}
}

// run executes a one-shot tool (shardsplit) to completion.
func (e *env) run(bin string, args ...string) error {
	cmd := exec.Command(filepath.Join(e.binDir, bin), args...)
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("%s %s: %v\n%s", bin, strings.Join(args, " "), err, out)
	}
	return nil
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// start spawns a daemon on port 0 and returns once its log names the bound
// address. The caller then waits for readiness with waitReady.
func (e *env) start(name, bin string, args ...string) (*proc, error) {
	e.mu.Lock()
	e.spawned++
	logPath := filepath.Join(e.runDir, fmt.Sprintf("%02d-%s.log", e.spawned, name))
	e.mu.Unlock()
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(filepath.Join(e.binDir, bin), append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	err = cmd.Start()
	logFile.Close()
	if err != nil {
		return nil, fmt.Errorf("starting %s: %v", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	e.mu.Lock()
	if e.closed {
		// A signal arrived while this child was being spawned: close has
		// already swept the list, so this one is ours to reap.
		e.mu.Unlock()
		cmd.Process.Kill()
		<-p.done
		return nil, fmt.Errorf("starting %s: run is shutting down", name)
	}
	e.procs = append(e.procs, p)
	e.mu.Unlock()

	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		blob, _ := os.ReadFile(logPath)
		if m := listenRE.FindSubmatch(blob); m != nil {
			p.url = string(m[1])
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before listening (see %s)", name, filepath.Base(logPath))
		case <-time.After(2 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("%s did not log its address within 60s", name)
}

// waitReady polls /healthz until it answers 200.
func (e *env) waitReady(p *proc) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := e.http.Get(p.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming ready", p.name)
		case <-time.After(2 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not ready within 60s", p.name)
}

// kill stops one child with SIGKILL — the crash the durability check needs,
// and the fastest teardown for everything else — and waits for it.
func (e *env) kill(p *proc) {
	p.cmd.Process.Kill()
	<-p.done
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, q := range e.procs {
		if q == p {
			e.procs = append(e.procs[:i], e.procs[i+1:]...)
			break
		}
	}
}

// scrape fetches and parses one daemon's /metrics.
func (e *env) scrape(p *proc) (exposition, error) {
	resp, err := e.http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: status %d", p.name, resp.StatusCode)
	}
	return parseExposition(resp.Body)
}
