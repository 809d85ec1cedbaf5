// Command ppserve is the long-lived push-pull graph-query service: it
// loads one or more graphs, loads (or fits) the host-keyed PPTUNE
// cost-model profile, and serves concurrent BFS / ParentBFS / SSSP /
// PageRank / CC queries over HTTP+JSON from a self-healing worker pool
// with cost-aware admission (deadline-feasibility sheds, class-based
// earliest-deadline-first scheduling, per-query execution budgets),
// refcounted graph snapshots, validated hot reload, and live metrics.
// A -graph spec that fails to load leaves its graph answering 503 while
// the rest serve; /readyz reports 503 until every graph serves.
//
// Usage:
//
//	ppserve -graph kron:12 -graph web=file:web.mtx \
//	        -tune PPTUNE_linux_amd64.json -workers 8 -addr :8080
//
// Query it:
//
//	curl 'localhost:8080/query?graph=kron&algo=bfs&source=0'
//	curl 'localhost:8080/metrics'
//
// Reload the -graph specs without restarting (file-backed graphs re-read
// from disk; a graph that fails to load or validate rolls back to its
// old snapshot while the rest swap):
//
//	kill -HUP $(pidof ppserve)          # or:
//	curl -X POST localhost:8080/admin/reload
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pushpull/internal/calibrate"
	"pushpull/internal/core"
	"pushpull/internal/harness"
	"pushpull/internal/serve"
)

// graphFlags collects repeatable -graph specs.
type graphFlags []string

func (g *graphFlags) String() string { return strings.Join(*g, ",") }
func (g *graphFlags) Set(s string) error {
	*g = append(*g, s)
	return nil
}

func main() {
	var specs graphFlags
	flag.Var(&specs, "graph", "graph to serve: name=file:path.mtx | name=dataset:scale | dataset[:scale] (repeatable; scale defaults to 12; default kron)")
	addr := flag.String("addr", ":8080", "listen address")
	tune := flag.String("tune", "", "cost-model profile to load (PPTUNE_<os>_<arch>.json); missing/invalid profiles degrade to untuned")
	calib := flag.Bool("calibrate", false, "fit a quick cost model at startup instead of loading -tune (writes to -tune when set)")
	workers := flag.Int("workers", 0, "worker pool size (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "admission queue depth (default 4x workers)")
	minBudget := flag.Duration("min-budget", 0, "floor on per-query execution budgets, which are 8x each query's predicted run time (default 1s)")
	flag.Parse()

	cfg := serve.Config{Workers: *workers, QueueDepth: *queue, MinBudget: *minBudget}
	logger := log.New(os.Stderr, "ppserve: ", log.LstdFlags)
	if err := run(logger, specs, *addr, *tune, *calib, cfg); err != nil {
		logger.Fatal(err)
	}
}

// graphSources turns the -graph specs into reloadable sources: each
// source's Load re-resolves the spec, so file-backed graphs pick up new
// on-disk data at every reload. A dataset spec without a scale takes 12.
func graphSources(logger *log.Logger, specs []string) ([]serve.GraphSource, error) {
	sources := make([]serve.GraphSource, 0, len(specs))
	for _, spec := range specs {
		gs, err := harness.ParseGraphSpec(spec, 12)
		if err != nil {
			return nil, err
		}
		spec := spec // the closure logs the original flag text
		sources = append(sources, serve.GraphSource{
			Name: gs.Name,
			Load: func() (*serve.Graph, error) {
				start := time.Now()
				m, err := gs.Load()
				if err != nil {
					return nil, fmt.Errorf("-graph %s: %w", spec, err)
				}
				logger.Printf("loaded graph %q: %d vertices, %d edges (%.1f ms)",
					gs.Name, m.NRows(), m.NVals(), float64(time.Since(start).Nanoseconds())/1e6)
				return serve.NewGraph(gs.Name, m), nil
			},
		})
	}
	return sources, nil
}

func run(logger *log.Logger, specs []string, addr, tune string, calib bool, cfg serve.Config) error {
	if len(specs) == 0 {
		specs = []string{"kron"}
	}
	sources, err := graphSources(logger, specs)
	if err != nil {
		return err
	}

	model, err := resolveModel(logger, tune, calib)
	if err != nil {
		return err
	}
	cfg.Model = model

	srv, err := serve.NewFromSources(cfg, sources)
	if err != nil {
		return err
	}
	for _, gi := range srv.GraphInfos() {
		if gi.Status != serve.GraphServing {
			logger.Printf("graph %q FAILED to load (serving degraded; fix and SIGHUP to retry): %s", gi.Name, gi.Error)
		}
	}
	if srv.Degraded() {
		logger.Printf("started DEGRADED: readiness (/readyz) reports 503 until every graph serves")
	}

	hs := &http.Server{Addr: addr, Handler: newHandler(srv, logger)}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	logger.Printf("serving on %s (%d graphs, algorithms: %s)",
		ln.Addr(), len(sources), strings.Join(serve.AlgorithmNames(), " "))

	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				logger.Printf("received SIGHUP, reloading graph specs")
				logReload(logger, "sighup reload", srv.Reload(context.Background()))
				continue
			}
			logger.Printf("received %s, shutting down", sig)
			break loop
		case err := <-errc:
			srv.Close()
			return err
		}
	}

	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		logger.Printf("http shutdown: %v", err)
	}
	srv.Close()
	logger.Printf("drained; bye")
	return nil
}

// resolveModel produces the planner's cost model: a quick startup
// calibration when -calibrate is set, otherwise a lenient load of -tune
// (missing or corrupt profiles degrade to the untuned unit model rather
// than refusing to start — serving beats tuning).
func resolveModel(logger *log.Logger, tune string, calib bool) (*core.CostModel, error) {
	if calib {
		logger.Printf("calibrating cost model (quick)...")
		prof, err := calibrate.Run(calibrate.Options{Quick: true})
		if err != nil {
			return nil, fmt.Errorf("calibrate: %w", err)
		}
		if tune != "" {
			if err := calibrate.Save(tune, prof); err != nil {
				logger.Printf("could not save profile to %s: %v", tune, err)
			} else {
				logger.Printf("saved profile to %s", tune)
			}
		}
		return &prof.Model, nil
	}
	if tune == "" {
		logger.Printf("running untuned (no -tune profile; planner uses unit RAM costs)")
		return nil, nil
	}
	prof := calibrate.LoadLenient(tune, func(format string, args ...any) {
		logger.Printf("-tune: "+format, args...)
	})
	if prof == nil {
		return nil, nil
	}
	logger.Printf("loaded cost-model profile %s", tune)
	return &prof.Model, nil
}
