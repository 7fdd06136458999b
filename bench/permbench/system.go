package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// system is one booted topology.
type system struct {
	dir     string  // the index set directory
	servers []*proc // permserve processes, one per shard
	router  *proc   // nil when clients talk to the daemon directly
	splitS  float64 // shardsplit: build the indexes, write the set
	bootS   float64 // spawn to every /healthz ok
}

// front is the process clients talk to.
func (s *system) front() *proc {
	if s.router != nil {
		return s.router
	}
	return s.servers[0]
}

func (s *system) all() []*proc {
	if s.router != nil {
		return append([]*proc{s.router}, s.servers...)
	}
	return s.servers
}

// setUp builds the workload's index set with shardsplit, writes the serving
// operating point (and mutability) into each sidecar manifest, boots the
// daemons on free ports and waits until each is ready.
func (e *env) setUp(w workload, id int) (*system, error) {
	s := &system{dir: filepath.Join(e.runDir, fmt.Sprintf("set-%d", id))}
	t0 := time.Now()
	err := e.run("shardsplit", "-out", s.dir, "-set", w.dataset, "-dataset", w.dataset,
		"-n", fmt.Sprint(w.n), "-seed", fmt.Sprint(w.corpusSeed), "-shards", fmt.Sprint(w.shards), "-method", "napp")
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.shards; i++ {
		if err := editManifest(filepath.Join(s.shardDir(i), w.dataset+".json"), w); err != nil {
			return nil, err
		}
	}
	s.splitS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := e.boot(w, s); err != nil {
		return nil, err
	}
	s.bootS = time.Since(t0).Seconds()
	return s, nil
}

func (s *system) shardDir(i int) string { return filepath.Join(s.dir, fmt.Sprintf("shard%d", i)) }

// boot starts the daemons of an index set that is already on disk.
func (e *env) boot(w workload, s *system) error {
	s.servers, s.router = nil, nil
	for i := 0; i < w.shards; i++ {
		p, err := e.start(fmt.Sprintf("permserve%d", i), "permserve", "-dir", s.shardDir(i))
		if err != nil {
			return err
		}
		s.servers = append(s.servers, p)
	}
	var urls []string
	for _, p := range s.servers {
		if err := e.waitReady(p); err != nil {
			return err
		}
		urls = append(urls, p.url)
	}
	if w.shards > 1 {
		p, err := e.start("permrouter", "permrouter", "-shards", strings.Join(urls, ","))
		if err != nil {
			return err
		}
		s.router = p
		return e.waitReady(p)
	}
	return nil
}

// tearDown kills the system's processes and deletes its files.
func (e *env) tearDown(s *system) {
	for _, p := range s.all() {
		e.kill(p)
	}
	os.RemoveAll(s.dir)
}

// editManifest sets the manifest fields permbench owns — "params" and
// "mutable" — and leaves every other field as shardsplit wrote it.
func editManifest(path string, w workload) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var man map[string]json.RawMessage
	if err := json.Unmarshal(blob, &man); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	man["params"] = mustJSON(map[string]float64{"t": float64(w.t)})
	if w.mutable {
		man["mutable"] = mustJSON(true)
	}
	blob, err = json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
