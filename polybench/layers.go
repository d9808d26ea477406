package main

// layerUnits names every per-layer metric a traced run reports in its
// result line, with its unit: the per_layer list of BENCHMARK.json.
// METRICS.md gives each one's layer, definition and the end-to-end metric
// it should move.
var layerUnits = map[string]string{
	// workload, isa, pipeline build/verify (decomposition pass)
	"workload.generate_ms":       "ms",
	"isa.ref_interp_ns_per_inst": "ns/inst",
	"pipeline.build_us":          "us",
	"pipeline.verify_us":         "us",
	"pipeline.allocs_per_cell":   "allocs",
	// pipeline cycle loop
	"pipeline.cycle_ns":                "ns/cycle",
	"pipeline.cycle_ns.monopath":       "ns/cycle",
	"pipeline.cycle_ns.oracle":         "ns/cycle",
	"pipeline.cycle_ns.see":            "ns/cycle",
	"pipeline.cycle_ns.see-oracle-ce":  "ns/cycle",
	"pipeline.cycle_ns.dualpath":       "ns/cycle",
	"pipeline.cycle_ns.dual-oracle-ce": "ns/cycle",
	"pipeline.cycle_ns.tage":           "ns/cycle",
	"pipeline.cycle_ns.adaptive":       "ns/cycle",
	"pipeline.ns_per_inst":             "ns/inst",
	// modelled machine (simulated, exact)
	"pipeline.fetch_per_commit":      "ratio",
	"pipeline.killed_frac":           "ratio",
	"pipeline.avg_paths":             "paths",
	"pipeline.divergences_per_kinst": "1/kinst",
	"bpred.mispredict_rate":          "ratio",
	"bpred.mispredict_err_pp":        "pp",
	"confidence.pvn":                 "ratio",
	// core, harness, sched
	"core.run_cell_ms.p50":   "ms",
	"core.run_cell_ms.max":   "ms",
	"core.unattributed_frac": "ratio",
	"harness.cell_busy_s":    "s",
	"sched.utilization":      "ratio",
	"sched.tail_idle_s":      "s",
	// tracing cost
	"trace.overhead_pct": "%",
}
