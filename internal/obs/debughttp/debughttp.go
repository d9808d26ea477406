// Package debughttp serves polysim's and polyserve's -debug-addr. It is
// not part of internal/obs so that net/http stays out of the simulator's
// imports.
package debughttp

import (
	"net/http"
	"net/http/pprof"

	"repro/internal/obs/metrics"
)

// Metrics serves reg in the Prometheus text exposition format.
func Metrics(reg *metrics.Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
}

// Handler serves net/http/pprof under /debug/pprof/ and m at /metrics.
func Handler(m http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", m)
	return mux
}
