package main

// layerUnits lists every per-layer metric with its unit. A traced run
// reports all of them; a layer that is not on the workload's operation
// path reads 0 there (for example shred.* on design-cold).
var layerUnits = map[string]string{
	"xmltok.ms_per_mb":         "ms/MB",
	"xmltok.tokens_per_mb":     "tokens/MB",
	"stream.ms_per_mb":         "ms/MB",
	"shred.eval_ms_per_mb":     "ms/MB",
	"shred.guard_ms_per_mb":    "ms/MB",
	"shred.sink_ms_per_mb":     "ms/MB",
	"shred.allocs_per_mb":      "allocs/MB",
	"shred.alloc_bytes_per_mb": "B/MB",
	"shred.tuples_per_mb":      "tuples/MB",
	"shred.fd_checks_per_mb":   "checks/MB",
	"shred.batches":            "batches/doc",
	"shred.compile_us":         "us",
	"stream.validator_new_us":  "us",
	"registry.compile_ms":      "ms",
	"xmlkey.implication_ms":    "ms",
	"rel.cover_warm_ms":        "ms",
	"xmlkey.memo_entries":      "count",
	"xpath.intern_entries":     "count",
	"rel.cover_fds":            "count",
	"rel.bcnf_ms":              "ms",
	"sqlgen.ddl_ms":            "ms",
	"rel.candidates_ms":        "ms",
	"registry.hits":            "count",
	"registry.misses":          "count",
	"registry.evictions":       "count",
	"registry.hit_ratio":       "ratio",
	"server.handler_ms":        "ms",
	"client.transport_ms":      "ms",
	"client.attempts_per_op":   "attempts/op",
	"resilience.queue_wait_ms": "ms",
	"resilience.busy_sheds":    "count",
	"runtime.gc_cpu_ms_op":     "ms/op",
}

// layerZeros returns every per-layer metric at 0, for a traced run to
// fill in the layers its workload exercises.
func layerZeros() map[string]metric {
	m := make(map[string]metric, len(layerUnits))
	for n, u := range layerUnits {
		m[n] = metric{0, u}
	}
	return m
}
