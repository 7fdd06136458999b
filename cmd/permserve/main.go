// Command permserve is the serving daemon: it warm-starts a named set of
// saved indexes from a directory (one .psix file + one .json sidecar
// manifest per index, see internal/server.Manifest) and answers k-NN
// queries over HTTP.
//
// Usage:
//
//	permserve -write-demo -dir demo/        # build a small demo index set
//	permserve -dir demo/ -addr :8080        # serve it
//
//	curl localhost:8080/healthz
//	curl localhost:8080/v1/indexes
//	curl localhost:8080/metrics
//	curl -d '{"query": "ACGTACGTAC", "k": 3}' localhost:8080/v1/indexes/dna-vptree/search
//	curl -d '{"queries": ["ACGT", "TTTT"], "k": 3}' localhost:8080/v1/indexes/dna-vptree/search
//	curl -XPOST localhost:8080/v1/indexes/dna-vptree/reload
//
// The demo set includes a mutable index ("sift-mutable"): adds and deletes
// are WAL-durable the moment they are acknowledged, and flush seals the
// memtable into an immutable tier (see internal/lsm):
//
//	curl -d '{"object": [0.1, 0.2, ...]}' localhost:8080/v1/indexes/sift-mutable/add
//	curl -d '{"ids": [1500]}' localhost:8080/v1/indexes/sift-mutable/delete
//	curl -XPOST localhost:8080/v1/indexes/sift-mutable/flush
//	curl localhost:8080/statusz        # tier rows of the mutable indexes
//
// -addr supports port 0; the actually bound address is logged, which the
// smoke test uses to serve on a free port. SIGINT/SIGTERM shut down
// gracefully: in-flight requests finish, new connections are refused.
//
// GET /metrics serves every counter, per-stage timing attribution, latency
// histograms and the Go runtime's heap and GC gauges in Prometheus text
// format (see README "Observability"), so the serving-side allocation
// behavior of the query hot path is observable in production.
// -pprof-addr (empty by default) exposes net/http/pprof on a separate
// listener, whose /debug/pprof/heap?debug=1 page carries the full MemStats;
// profile with
//
//	go tool pprof http://127.0.0.1:6060/debug/pprof/heap
//
// -mutex-profile-fraction and -block-profile-rate turn on the runtime's
// contention profilers (mutex and blocking profiles under /debug/pprof/),
// both off by default because sampling costs the hot path.
// -slow-query-threshold logs a rate-limited JSON line, with the per-stage
// breakdown, for every request slower than the threshold.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/faultfs"
	"repro/internal/index"
	"repro/internal/obs"
	"repro/internal/seqscan"
	"repro/internal/server"
	"repro/internal/vecmath"
	"repro/internal/vfs"
	"repro/internal/vptree"
)

func main() {
	dir := flag.String("dir", "", "index set directory: <name>.psix + <name>.json per index (required)")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port; the bound address is logged)")
	workers := flag.Int("workers", 0, "goroutines per batch request (<= 0: GOMAXPROCS)")
	timeout := flag.Duration("timeout", 10*time.Second, "per-request execution budget (0: none)")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof profiling endpoints (empty: disabled); keep it on a loopback or otherwise private port")
	mutexFraction := flag.Int("mutex-profile-fraction", 0, "sample 1/n of mutex contention events for /debug/pprof/mutex (0: disabled)")
	blockRate := flag.Int("block-profile-rate", 0, "sample blocking events lasting >= n ns for /debug/pprof/block (0: disabled)")
	slowThreshold := flag.Duration("slow-query-threshold", 0, "log a JSON slow_query line, with per-stage timing, for requests slower than this (0: disabled)")
	slowEvery := flag.Duration("slow-query-every", time.Second, "rate limit between slow_query lines")
	writeDemo := flag.Bool("write-demo", false, "write a small demo index set into -dir and exit")
	flag.Parse()

	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "permserve: -dir is required (try: permserve -write-demo -dir demo/)")
		os.Exit(2)
	}
	if *writeDemo {
		if err := writeDemoSet(*dir); err != nil {
			log.Fatalf("permserve: writing demo set: %v", err)
		}
		return
	}

	if *mutexFraction > 0 {
		runtime.SetMutexProfileFraction(*mutexFraction)
		log.Printf("permserve: mutex profiling on (fraction 1/%d)", *mutexFraction)
	}
	if *blockRate > 0 {
		runtime.SetBlockProfileRate(*blockRate)
		log.Printf("permserve: block profiling on (rate %dns)", *blockRate)
	}
	if *pprofAddr != "" {
		// A dedicated mux on a separate listener: profiling never shares a
		// port with the serving API, so exposing one cannot expose the
		// other. CPU/heap/goroutine profiles are how serving-side
		// allocation wins (see README "Performance") are verified live.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			log.Fatalf("permserve: pprof listener: %v", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		log.Printf("permserve: pprof on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := (&http.Server{Handler: pmux}).Serve(pln); err != nil {
				log.Printf("permserve: pprof server: %v", err)
			}
		}()
	}

	// PERMSERVE_FAULT_FS routes the mutable tier's storage I/O through a
	// fault-injecting filesystem (see internal/faultfs.Parse for the rule
	// spec). A fault drill knob for scripts/fault_smoke.sh — never set it in
	// production.
	var storage vfs.FS
	if spec := os.Getenv("PERMSERVE_FAULT_FS"); spec != "" {
		ffs, err := faultfs.Parse(spec)
		if err != nil {
			log.Fatalf("permserve: PERMSERVE_FAULT_FS: %v", err)
		}
		log.Printf("permserve: FAULT INJECTION ARMED (PERMSERVE_FAULT_FS=%s)", spec)
		storage = ffs
	}

	reg, err := server.OpenDirFS(*dir, storage)
	if err != nil {
		log.Fatalf("permserve: %v", err)
	}
	for _, name := range reg.Names() {
		log.Printf("permserve: serving index %q", name)
	}
	srv := server.New(reg, server.Options{
		Workers:            *workers,
		Timeout:            *timeout,
		Metrics:            obs.Default(),
		SlowQueryThreshold: *slowThreshold,
		SlowQueryEvery:     *slowEvery,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("permserve: %v", err)
	}
	// The kernel arm (avx2, sse2 or generic) explains a latency gap between
	// two hosts of one fleet from their logs.
	log.Printf("permserve: listening on http://%s (%d indexes, %s kernels)", ln.Addr(), len(reg.Names()), vecmath.Arm())

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		log.Printf("permserve: shutting down (in-flight requests get 10s to finish)")
		shctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(shctx); err != nil {
			log.Fatalf("permserve: shutdown: %v", err)
		}
		// Close mutable trees last: every acknowledged write is already
		// WAL-durable, this just releases file handles and lets background
		// compaction finish.
		if err := reg.Close(); err != nil {
			log.Fatalf("permserve: closing registry: %v", err)
		}
		log.Printf("permserve: bye")
	case err := <-errCh:
		log.Fatalf("permserve: %v", err)
	}
}

// writeDemoSet builds a small, quick-to-construct index set so the serving
// path can be tried (and smoke-tested) without running any benchmark first:
// two permutation indexes and an exact baseline over a SIFT-like corpus,
// plus a VP-tree over DNA strings under normalized edit distance.
func writeDemoSet(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	const (
		seed   = 42
		nDense = 1500
		nDNA   = 800
	)
	siftFam, err := dataset.Typed[[]float32]("sift")
	if err != nil {
		return err
	}
	dnaFam, err := dataset.Typed[[]byte]("dna")
	if err != nil {
		return err
	}
	sift, l2 := siftFam.Gen(seed, nDense), siftFam.Spaces()[0]
	dna, normLeven := dnaFam.Gen(seed, nDNA), dnaFam.Spaces()[0]

	if err := writeDemoIndex(dir, "sift-napp", server.Manifest{Dataset: siftFam.Name(), Seed: seed, N: nDense},
		func() (index.Index[[]float32], error) {
			return core.NewNAPP(l2, sift, core.NAPPOptions{
				NumPivots: 128, NumPivotIndex: 16, MinShared: 1, Seed: seed,
			})
		}); err != nil {
		return err
	}
	if err := writeDemoIndex(dir, "sift-seqscan", server.Manifest{Dataset: siftFam.Name(), Seed: seed, N: nDense},
		func() (index.Index[[]float32], error) {
			return seqscan.New(l2, sift), nil
		}); err != nil {
		return err
	}
	// The mutable demo: an exact base index plus a WAL-backed LSM tree, so
	// add/delete/flush (and the ingest smoke test's kill -9 recovery) can
	// be exercised out of the box.
	if err := writeDemoIndex(dir, "sift-mutable", server.Manifest{Dataset: siftFam.Name(), Seed: seed, N: nDense, Mutable: true},
		func() (index.Index[[]float32], error) {
			return seqscan.New(l2, sift), nil
		}); err != nil {
		return err
	}
	return writeDemoIndex(dir, "dna-vptree", server.Manifest{Dataset: dnaFam.Name(), Seed: seed, N: nDNA},
		func() (index.Index[[]byte], error) {
			return vptree.New(normLeven, dna, vptree.Options{Seed: seed})
		})
}

// writeDemoIndex builds one index and writes its file + sidecar manifest.
func writeDemoIndex[T any](dir, name string, man server.Manifest, build func() (index.Index[T], error)) error {
	idx, err := build()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	path, _, err := server.WriteIndex(dir, name, idx, man)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	log.Printf("permserve: wrote %s (%s over %s, n=%d)", path, idx.Name(), man.Dataset, man.N)
	return nil
}
