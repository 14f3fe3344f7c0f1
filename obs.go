package rio

import (
	"expvar"
	"io"
	"log"
	"net/http"

	"rio/internal/trace"
)

// Observability helpers: exporting a Runtime's always-on Progress counters
// to the standard monitoring surfaces (Prometheus text format, expvar).
// Both only *read* the engine's counters; neither changes what a run does.

// MetricsHandler returns an http.Handler exposing rt's Progress counters
// in the Prometheus text exposition format. Each request takes a fresh
// snapshot, so the handler can be scraped while a run is in flight:
//
//	http.Handle("/metrics", rio.MetricsHandler(rt))
//
// The counters reset when a new run starts (each run publishes a fresh
// table); scrapers see per-run progressions, not process-lifetime totals.
//
// Write errors are surfaced, not swallowed: an error before the first
// byte reaches the client becomes a 500 (the scrape visibly failed,
// instead of an empty 200 the scraper would record as "no samples");
// an error after the first byte — the status line is already on the
// wire — is logged, so a half-written exposition never passes silently.
func MetricsHandler(rt interface{ Progress() Progress }) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		cw := &countingWriter{w: w}
		if err := trace.WriteMetrics(cw, rt.Progress()); err != nil {
			if cw.n == 0 {
				// Nothing flushed yet: the status code is still ours to set.
				http.Error(w, "rio: writing metrics: "+err.Error(), http.StatusInternalServerError)
				return
			}
			logMetricsError(err)
		}
	})
}

// logMetricsError reports a mid-exposition metrics write failure. A
// package variable so handler tests can observe the after-first-byte
// path; production use keeps the default standard-library logger.
var logMetricsError = func(err error) {
	log.Printf("rio: metrics handler: writing exposition after first byte: %v", err)
}

// countingWriter tracks whether any byte reached the underlying writer,
// which decides whether a metrics write error can still become a 500.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// PublishExpvar publishes rt's Progress under the given expvar name (the
// /debug/vars JSON surface). It must be called once per name per process
// — expvar.Publish panics on duplicates, mirroring expvar's own contract.
func PublishExpvar(name string, rt interface{ Progress() Progress }) {
	expvar.Publish(name, expvar.Func(func() any { return rt.Progress() }))
}
