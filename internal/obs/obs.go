// Package obs is the observability subsystem: bounded, lock-free capture
// of cycle-level pipeline trace events (ring.go), exporters for the
// captured streams — Chrome/Perfetto trace_event JSON (export.go) and a
// Konata-style per-instruction pipeline timeline (konata.go) — and build
// introspection (Version).
//
// The subsystem is strictly observation-only: attaching a tracer never
// changes simulation results (TestTracingObservationOnly,
// TestTracedJobMatchesUntracedResult and make trace-smoke enforce this),
// and with tracing disabled the simulator's hot path pays only a nil
// check per event site. Events carry plain values; the exporters write
// their text (TraceEvent.Note), and TestTraceExportGolden pins it. What
// tracing costs is BenchmarkTracerOn against BenchmarkCycleLoop.
// The sibling package obs/metrics is the operational-metrics registry
// behind polyserve's GET /metrics endpoint; obs/debughttp serves both
// commands' -debug-addr.
package obs

import (
	"fmt"
	"runtime/debug"

	"repro/internal/pipeline"
)

// Version returns the build identity of the running binary: the main
// module version plus the VCS revision embedded by the Go toolchain
// (runtime/debug.ReadBuildInfo). It is reported by the -version flag of
// every command and by polyserve's GET /v1/healthz.
func Version() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "(unknown)"
	}
	ver := bi.Main.Version
	if ver == "" {
		ver = "(devel)"
	}
	rev, modified := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			modified = s.Value == "true"
		}
	}
	if rev == "" {
		return fmt.Sprintf("%s %s (%s)", bi.Main.Path, ver, bi.GoVersion)
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	dirty := ""
	if modified {
		dirty = "-dirty"
	}
	return fmt.Sprintf("%s %s rev %s%s (%s)", bi.Main.Path, ver, rev, dirty, bi.GoVersion)
}

// Tee fans one pipeline event stream out to several tracers, so e.g. a
// human-readable PipeTrace and a Ring capture can observe the same run.
// Nil tracers are skipped; with zero or one non-nil tracer the fan-out
// indirection is elided.
func Tee(tracers ...pipeline.Tracer) pipeline.Tracer {
	live := make([]pipeline.Tracer, 0, len(tracers))
	for _, t := range tracers {
		if t != nil {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return teeTracer(live)
}

type teeTracer []pipeline.Tracer

func (t teeTracer) Event(e pipeline.TraceEvent) {
	for _, tr := range t {
		tr.Event(e)
	}
}
