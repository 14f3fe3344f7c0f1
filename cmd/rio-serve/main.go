// Command rio-serve is the multi-tenant graph-execution service: a
// long-running HTTP front end over rio.Compile and rio.Engine. Clients
// POST task flows in the JSON wire format rio-vet writes (-emit json) and
// vets; the server preflights them, compiles each distinct (graph,
// mapping) once with rio.Compile into the tenant's flow table —
// certifying the compiled streams when -verify is set — and serves every
// execution by replaying the flow's compiled program on the tenant's
// engine (Engine.RunCompiledContext).
//
//	rio-serve -addr :8080 -workers 8 -verify
//	rio-vet -workload lu -size 6 -emit json | curl -sd @- localhost:8080/v1/flows
//	curl -sd '{"kernel":"spin"}' localhost:8080/v1/flows/<id>/run
//	curl -s localhost:8080/v1/progress
//	curl -s localhost:8080/metrics
//
// Tenancy is per X-Rio-Tenant header (default "default"): each tenant
// gets its own engine and bounded worker pool, bounded submission queue
// (full → 429 with Retry-After) and flow table. SIGTERM/SIGINT
// drain gracefully: new work is rejected with 503 while queued and
// in-flight executions finish, bounded by -drain-timeout.
//
// A run uses all -workers of its tenant's pool, or one: a flow submitted
// without a mapping runs on one worker whenever its recent runs were
// faster there, which is the case for flows of cheap tasks. Each run
// response says which ("workers").
//
// The debug surfaces — /debug/pprof and /debug/vars — are served on
// -debug-addr (empty disables them), kept off the client-facing
// listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "expvar"
	_ "net/http/pprof"

	"rio/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "rio-serve:", err)
		os.Exit(1)
	}
}

// run serves until ctx is canceled (the signal path in production),
// then drains. ready, when non-nil, receives the bound listen address
// once the service accepts connections — the test hook that makes
// "-addr 127.0.0.1:0" usable.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("rio-serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address of the service API")
	debugAddr := fs.String("debug-addr", "", "listen address of the debug surfaces (pprof, expvar); empty disables them")
	workers := fs.Int("workers", 4, "worker-pool size of each tenant engine")
	queue := fs.Int("queue", 64, "per-tenant submission-queue depth (full queues answer 429)")
	tenants := fs.Int("tenants", 16, "maximum number of tenants")
	flows := fs.Int("flows", 128, "maximum registered flows per tenant")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request execution timeout (server.Config.Timeout)")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint sent with 429 responses")
	verify := fs.Bool("verify", false, "certify compiled streams on every cache miss (translation validation)")
	prune := fs.Bool("prune", true, "apply §3.5 task pruning when compiling")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "how long a shutdown drain waits for in-flight work before canceling it")
	if err := fs.Parse(args); err != nil {
		return err
	}

	srv := server.New(server.Config{
		Workers:       *workers,
		QueueDepth:    *queue,
		MaxTenants:    *tenants,
		MaxFlows:      *flows,
		Timeout:       *timeout,
		RetryAfter:    *retryAfter,
		Verify:        *verify,
		Prune:         *prune,
		PublishExpvar: *debugAddr != "",
	})

	if *debugAddr != "" {
		// The pprof and expvar imports register on http.DefaultServeMux;
		// serve that mux on the debug listener only.
		go func() {
			log.Printf("rio-serve: debug surfaces on %s (/debug/pprof, /debug/vars)", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				log.Printf("rio-serve: debug listener: %v", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("rio-serve: serving on %s (%d workers/tenant, queue %d, timeout %v, verify %v)",
		ln.Addr(), *workers, *queue, *timeout, *verify)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	log.Printf("rio-serve: shutdown requested; draining (up to %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	if err := hs.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("rio-serve: http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	return nil
}
