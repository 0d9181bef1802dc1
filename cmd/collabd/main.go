// Command collabd runs the collaborative-optimizer server: it hosts the
// Experiment Graph, the artifact store, the materialization strategy, and
// the reuse planner behind the HTTP protocol of internal/remote.
//
// Usage:
//
//	collabd -addr :7171 -budget 1073741824 -strategy sa -planner ln \
//	        [-store-dir /var/lib/collab -mem-budget 268435456 -disk-budget 0] \
//	        [-trace 65536] [-explain 16] [-pprof]
//
// -store-dir enables the durable artifact tier: cold artifacts demote to
// checksummed, content-addressed files when the -mem-budget is exceeded (or
// after -demote-idle of inactivity) and are verified and re-indexed on the
// next boot, so a restart serves them without recomputation. The EG
// snapshot defaults into the same directory when -data-dir is unset.
//
// Prometheus-style metrics are always served at /metrics (including
// per-route request histograms, counters, and inflight gauges), liveness at
// /healthz, and readiness at /readyz; -trace N keeps a rolling buffer of
// the newest N server trace events, exported at /v1/trace as Chrome trace
// JSON and analyzed per request at /v1/critpath; -explain N keeps the
// last N optimizer decision records exported at /v1/explain;
// -requests N keeps a flight recorder of the last N request summaries
// exported at /v1/requests (`collab requests`); -clients N attributes
// requests, wall time, bytes, and lock wait to up to N distinct callers
// (keyed by X-Collab-Client, else remote address) at /v1/clients;
// -artifacts N tracks the lifecycle and storage economics of up to N
// distinct artifacts (events, reuse savings vs storage rent) at
// /v1/artifacts (`collab artifacts`); -slow-request D warns on requests
// slower than D; -pprof mounts net/http/pprof under /debug/pprof/.
//
// -profile-file loads the cost profile from a JSON file — typically one
// refitted from measurements by `collab calibration -fit TIER` — instead
// of the named -profile preset.
//
// All logging is structured (log/slog); every request-scoped line carries
// the request_id propagated from the client's X-Collab-Request header.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/eg"
	"repro/internal/explain"
	"repro/internal/materialize"
	"repro/internal/obs"
	"repro/internal/persist"
	"repro/internal/remote"
	"repro/internal/reuse"
	"repro/internal/store"
	"repro/internal/tier"
)

func main() {
	var (
		addr       = flag.String("addr", ":7171", "listen address")
		budget     = flag.Int64("budget", 1<<30, "materialization budget in bytes")
		strategy   = flag.String("strategy", "sa", "materialization strategy: sa|hm|hl|all")
		planner    = flag.String("planner", "ln", "reuse planner: ln|hl|allm|allc")
		alpha      = flag.Float64("alpha", 0.5, "utility weight of model quality (0..1)")
		profile    = flag.String("profile", "memory", "storage profile: memory|disk|remote")
		profFile   = flag.String("profile-file", "", "load the cost profile from a JSON file (e.g. collab calibration -fit output); overrides -profile")
		warmstart  = flag.Bool("warmstart", true, "enable warmstart donor search")
		dataDir    = flag.String("data-dir", "", "directory for persistent state (empty: -store-dir, else in-memory only)")
		storeDir   = flag.String("store-dir", "", "directory for the durable artifact tier (empty: memory-only store)")
		memBudget  = flag.Int64("mem-budget", 0, "memory-tier byte budget; cold artifacts demote to -store-dir (0: unbounded)")
		diskBudget = flag.Int64("disk-budget", 0, "disk-tier byte budget; coldest artifacts evict for real (0: unbounded)")
		demoteIdle = flag.Duration("demote-idle", 0, "demote artifacts idle this long to the disk tier (0: only on budget pressure)")
		pruneIdle  = flag.Int("prune-idle", 0, "drop unmaterialized vertices idle for N workloads (0: never)")
		pruneFreq  = flag.Int("prune-min-freq", 0, "always keep vertices seen in at least N workloads")
		checkpoint = flag.Duration("checkpoint", 5*time.Minute, "periodic save interval when -data-dir is set")
		traceCap   = flag.Int("trace", 0, "buffer up to N server trace events for GET /v1/trace (0: tracing off)")
		explainCap = flag.Int("explain", 16, "keep the last N optimizer decision records for GET /v1/explain (0: explain off)")
		requestCap = flag.Int("requests", obs.DefaultFlightCap, "keep the last N request summaries for GET /v1/requests (0: flight recorder off)")
		clientCap  = flag.Int("clients", obs.DefaultClientCap, "attribute resource usage to up to N distinct clients for GET /v1/clients (0: attribution off)")
		ledgerCap  = flag.Int("artifacts", obs.DefaultLedgerCap, "track lifecycle and storage economics of up to N distinct artifacts for GET /v1/artifacts (0: ledger off)")
		slowWarn   = flag.Duration("slow-request", time.Second, "log a warning for requests slower than this (0: off)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
		logLevel   = flag.String("log-level", "info", "log level: debug|info|warn|error")
	)
	flag.Parse()

	level, err := logLevelByName(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level)

	prof, err := profileByName(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if *profFile != "" {
		blob, err := os.ReadFile(*profFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "collabd: -profile-file:", err)
			os.Exit(2)
		}
		prof, err = cost.ParseProfileJSON(blob)
		if err != nil {
			fmt.Fprintln(os.Stderr, "collabd: -profile-file:", err)
			os.Exit(2)
		}
		logger.Info("cost profile loaded", "file", *profFile, "name", prof.Name,
			"latency", prof.Latency, "bytes_per_second", prof.BytesPerSecond)
	}
	cfg := materialize.Config{Alpha: *alpha, Profile: prof}
	strat, err := strategyByName(*strategy, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	plan, err := plannerByName(*planner)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	srvOpts := []core.ServerOption{
		core.WithBudget(*budget),
		core.WithStrategy(strat),
		core.WithPlanner(plan),
		core.WithWarmstart(*warmstart),
		core.WithLogger(logger),
		core.WithPrunePolicy(eg.PrunePolicy{
			MaxIdleWorkloads: *pruneIdle,
			MinFrequency:     *pruneFreq,
		}),
	}
	if *traceCap > 0 {
		srvOpts = append(srvOpts, core.WithTracing(obs.NewTraceCapped(*traceCap)))
	}
	if *explainCap > 0 {
		srvOpts = append(srvOpts, core.WithExplain(explain.NewRecorder(*explainCap)))
	}
	if *ledgerCap > 0 {
		srvOpts = append(srvOpts, core.WithArtifactLedger(obs.NewArtifactLedger(*ledgerCap)))
	} else {
		srvOpts = append(srvOpts, core.WithArtifactLedger(nil))
	}
	stOpts := store.Options{MemoryBudget: *memBudget, DiskBudget: *diskBudget}
	if *storeDir != "" {
		disk, report, err := tier.Open(*storeDir)
		if err != nil {
			logger.Error("opening store dir", "dir", *storeDir, "err", err)
			os.Exit(1)
		}
		stOpts.Disk = disk
		logger.Info("store recovered", "dir", *storeDir,
			"frames", report.Frames, "blobs", report.Blobs, "columns", report.Columns,
			"bytes_verified", report.BytesVerified,
			"quarantined", report.Quarantined, "orphans", report.OrphanColumns)
		if *dataDir == "" {
			// Keep the EG snapshot next to the artifacts it indexes.
			*dataDir = *storeDir
		}
	} else if *memBudget > 0 {
		logger.Warn("-mem-budget without -store-dir hard-evicts cold artifacts (no disk tier to demote to)")
	}
	srv := core.NewServer(store.NewTiered(prof, stOpts), srvOpts...)
	if *storeDir != "" && *demoteIdle > 0 {
		go func() {
			ticker := time.NewTicker(*demoteIdle)
			defer ticker.Stop()
			for range ticker.C {
				if n := srv.Store.DemoteIdle(*demoteIdle); n > 0 {
					logger.Info("idle artifacts demoted to disk", "count", n)
				}
			}
		}()
	}
	if *dataDir != "" {
		restored, err := persist.Load(srv, *dataDir)
		if err != nil {
			logger.Error("restoring state", "dir", *dataDir, "err", err)
			os.Exit(1)
		}
		if restored {
			logger.Info("state restored", "dir", *dataDir,
				"vertices", srv.EG.Len(), "materialized", srv.Store.Len())
		}
		save := func(reason string) {
			if err := persist.Save(srv, *dataDir); err != nil {
				logger.Error("state save failed", "reason", reason, "err", err)
			} else {
				logger.Info("state saved", "reason", reason)
			}
		}
		go func() {
			ticker := time.NewTicker(*checkpoint)
			defer ticker.Stop()
			for range ticker.C {
				save("checkpoint")
			}
		}()
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if *storeDir != "" {
				// Drain the memory tier so every artifact is durable in the
				// checksummed tier files, not just in the gob snapshot.
				if err := srv.Store.FlushToDisk(); err != nil {
					logger.Error("store flush failed", "err", err)
				}
			}
			save("shutdown")
			os.Exit(0)
		}()
	}
	logger.Info("listening", "addr", *addr, "strategy", strat.Name(),
		"planner", plan.Name(), "budget", *budget, "alpha", *alpha,
		"profile", prof.Name)
	logger.Info("debug surfaces", "metrics", "/metrics",
		"trace", traceState(*traceCap), "explain", explainState(*explainCap),
		"requests", requestState(*requestCap), "clients", clientsState(*clientCap),
		"artifacts", ledgerState(*ledgerCap), "pprof", *pprofOn)
	var flight *obs.FlightRecorder
	if *requestCap > 0 {
		flight = obs.NewFlightRecorder(*requestCap)
	}
	var clients *obs.ClientTable
	if *clientCap > 0 {
		clients = obs.NewClientTable(*clientCap)
	}
	handler := remote.NewHandler(srv,
		remote.WithHandlerLogger(logger),
		remote.WithSlowRequestWarn(*slowWarn),
		remote.WithPprof(*pprofOn),
		remote.WithFlightRecorder(flight),
		remote.WithClientTable(clients))
	if err := http.ListenAndServe(*addr, handler); err != nil {
		logger.Error("server exited", "err", err)
		os.Exit(1)
	}
}

func traceState(cap int) string {
	if cap > 0 {
		return fmt.Sprintf("on (%d-event buffer, GET /v1/trace)", cap)
	}
	return "off (-trace N to enable)"
}

func explainState(cap int) string {
	if cap > 0 {
		return fmt.Sprintf("on (last %d records, GET /v1/explain)", cap)
	}
	return "off (-explain N to enable)"
}

func requestState(cap int) string {
	if cap > 0 {
		return fmt.Sprintf("on (last %d summaries, GET /v1/requests)", cap)
	}
	return "off (-requests N to enable)"
}

func clientsState(cap int) string {
	if cap > 0 {
		return fmt.Sprintf("on (up to %d clients, GET /v1/clients)", cap)
	}
	return "off (-clients N to enable)"
}

func ledgerState(cap int) string {
	if cap > 0 {
		return fmt.Sprintf("on (up to %d artifacts, GET /v1/artifacts)", cap)
	}
	return "off (-artifacts N to enable)"
}

func logLevelByName(name string) (slog.Level, error) {
	switch name {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("unknown log level %q (debug|info|warn|error)", name)
	}
}

func profileByName(name string) (cost.Profile, error) {
	switch name {
	case "memory":
		return cost.Memory(), nil
	case "disk":
		return cost.Disk(), nil
	case "remote":
		return cost.Remote(), nil
	default:
		return cost.Profile{}, fmt.Errorf("unknown profile %q (memory|disk|remote)", name)
	}
}

func strategyByName(name string, cfg materialize.Config) (materialize.Strategy, error) {
	switch name {
	case "sa":
		return materialize.NewStorageAware(cfg), nil
	case "hm":
		return materialize.NewGreedy(cfg), nil
	case "hl":
		return materialize.NewHelix(cfg), nil
	case "all":
		return materialize.NewAll(), nil
	default:
		return nil, fmt.Errorf("unknown strategy %q (sa|hm|hl|all)", name)
	}
}

func plannerByName(name string) (reuse.Planner, error) {
	switch name {
	case "ln":
		return reuse.Linear{}, nil
	case "hl":
		return reuse.Helix{}, nil
	case "allm":
		return reuse.AllMaterialized{}, nil
	case "allc":
		return reuse.AllCompute{}, nil
	default:
		return nil, fmt.Errorf("unknown planner %q (ln|hl|allm|allc)", name)
	}
}
