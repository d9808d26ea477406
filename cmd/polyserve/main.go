// Command polyserve runs the PolyPath simulation service: an HTTP/JSON
// API over the experiment harness with job scheduling, backpressure, and
// result memoization. See README.md ("Service") for the API and examples.
//
//	polyserve -addr :8080
//	curl -s localhost:8080/v1/healthz
//	curl -s -X POST localhost:8080/v1/jobs -d '{"experiment":"fig8","insts":50000}'
//
// Every job fans its cells across -par shards of the deterministic
// scheduler (results are byte-identical under any -par), streams its
// completed cells via GET /v1/jobs/{id}/cells?after=N, and reports shard
// progress in /metrics:
//
//	curl -s -X POST localhost:8080/v1/jobs -d \
//	  '{"configs":[{"name":"mono","model":"monopath"},{"name":"see","model":"see"}],
//	    "insts":50000}'
//	curl -s localhost:8080/v1/jobs/job-000002/cells?after=0
//
// Every admitted job is journaled write-ahead to -journal until it
// finishes, so still-queued jobs resume on restart after a graceful
// SIGINT/SIGTERM drain (in-flight jobs finish first) or an abrupt kill.
//
// The same binary also runs distributed (see README.md "Distributed
// operation"): a coordinator accepts the identical /v1 API and shards
// sweep cells across registered workers,
//
//	polyserve -role coordinator -addr :8080 -store /tmp/store
//	polyserve -role worker -node w1 -addr :8081 -coordinator http://localhost:8080 -store /tmp/store
//
// with lease-based membership, consistent-hash cell ownership, retries,
// and hedging; the same journal lets in-flight jobs survive a
// coordinator restart.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// advertiseAddr derives the URL workers hand to the coordinator when
// -advertise is not set: a bare ":8081" listen address advertises as
// loopback (the local-fleet case); anything with a host passes through.
func advertiseAddr(advertise, listen string) string {
	if advertise != "" {
		return advertise
	}
	if strings.HasPrefix(listen, ":") {
		return "http://127.0.0.1" + listen
	}
	return "http://" + listen
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 1, "concurrent jobs (each job parallelizes across cells internally)")
	queue := flag.Int("queue", 16, "job queue capacity (backpressure beyond this)")
	cacheCells := flag.Int("cache", 4096, "memoization cache capacity in cells (0 = disable)")
	par := flag.Int("par", 0, "parallel simulations per job (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 0, "default per-job wall-time cap (0 = none)")
	maxInsts := flag.Uint64("maxinsts", 0, "per-benchmark instruction cap clients may request (0 = unbounded)")
	journal := flag.String("journal", "polyserve.journal", "write-ahead job journal; pending jobs resume from it on restart (empty = disable)")
	audit := flag.String("audit", "off", "invariant-audit level for every simulation: off, commit, cycle")
	chaosPanic := flag.String("chaos-panic", "", "chaos testing only: panic the worker on jobs whose title contains this string")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this extra address (metrics are also on the main address)")
	role := flag.String("role", server.RoleStandalone, "fleet role: standalone, coordinator, or worker")
	node := flag.String("node", "", "stable node ID in fleet APIs and logs (default: the role)")
	coordinator := flag.String("coordinator", "", "coordinator base URL this worker attaches to (worker role)")
	advertise := flag.String("advertise", "", "base URL this worker advertises to the coordinator (default: derived from -addr)")
	store := flag.String("store", "", "content-addressed result store directory shared across the fleet (empty = none)")
	lease := flag.Duration("lease", 3*time.Second, "worker lease TTL; a worker missing heartbeats this long is evicted")
	cellTimeout := flag.Duration("cell-timeout", 2*time.Minute, "coordinator deadline for one cell including retries")
	version := flag.Bool("version", false, "print the build version and role, then exit")
	flag.Parse()

	if *version {
		fmt.Printf("polyserve %s (role %s)\n", obs.Version(), *role)
		return
	}

	auditLevel, err := pipeline.ParseAuditLevel(*audit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyserve:", err)
		os.Exit(2)
	}
	logger := log.New(os.Stderr, "", log.LstdFlags)
	if *chaosPanic != "" {
		logger.Printf("polyserve: CHAOS MODE: worker panics on job titles containing %q", *chaosPanic)
	}
	if *role == server.RoleWorker && *coordinator == "" {
		fmt.Fprintln(os.Stderr, "polyserve: -role worker requires -coordinator")
		os.Exit(2)
	}
	cfg := server.Config{
		Workers:        *workers,
		QueueCapacity:  *queue,
		CacheCells:     *cacheCells,
		SimParallelism: *par,
		DefaultTimeout: *timeout,
		MaxInsts:       *maxInsts,
		JournalPath:    *journal,
		Audit:          auditLevel,
		ChaosPanic:     *chaosPanic,
		Log:            logger,

		Role:        *role,
		NodeID:      *node,
		StoreDir:    *store,
		LeaseTTL:    *lease,
		CellTimeout: *cellTimeout,
	}
	if *role == server.RoleCoordinator {
		cfg.DialWorker = client.DialWorker
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyserve:", err)
		os.Exit(1)
	}

	// Worker role: keep this node registered with its coordinator. The
	// loop re-registers after coordinator restarts and partitions;
	// /v1/healthz reports the current attachment state.
	attachCtx, attachCancel := context.WithCancel(context.Background())
	defer attachCancel()
	if *role == server.RoleWorker {
		coord := client.New(*coordinator)
		coord.MaxAttempts = 2
		att := &client.Attachment{
			Coordinator: coord,
			ID:          cfg.NodeID,
			Addr:        advertiseAddr(*advertise, *addr),
			OnState:     srv.SetAttachment,
			Logf:        logger.Printf,
		}
		if att.ID == "" {
			att.ID = *role
		}
		go att.Run(attachCtx)
	}

	if *debugAddr != "" {
		// Live introspection: pprof profiles of the running service plus a
		// second /metrics mount, on an address that can stay private even
		// when the API address is exposed.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dbg.Handle("/metrics", srv.MetricsHandler())
		go func() {
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Printf("polyserve: debug server: %v", err)
			}
		}()
		logger.Printf("polyserve: debug server on http://%s (/debug/pprof/, /metrics)", *debugAddr)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	done := make(chan error, 1)
	go func() { done <- httpSrv.ListenAndServe() }()
	logger.Printf("polyserve: %s listening on %s (workers=%d queue=%d cache=%d, version %s)", *role, *addr, *workers, *queue, *cacheCells, obs.Version())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-done:
		fmt.Fprintln(os.Stderr, "polyserve:", err)
		os.Exit(1)
	case got := <-sig:
		logger.Printf("polyserve: %v: draining (in-flight jobs finish; queued jobs stay journaled in %s)", got, *journal)
	}

	// Stop accepting HTTP first, then drain the scheduler.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Printf("polyserve: http shutdown: %v", err)
	}
	n, err := srv.Drain()
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyserve: drain:", err)
		os.Exit(1)
	}
	if n > 0 {
		logger.Printf("polyserve: %d queued job(s) left in the journal", n)
	}
	logger.Printf("polyserve: bye")
}
