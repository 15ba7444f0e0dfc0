package main

// catalogEntry names a metric of the JSON result line, its unit and
// which way is better.
type catalogEntry struct{ name, unit, better string }

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is BENCHMARK.json's end_to_end list: what a -trace 0 run
// reports on its last line. moved_bytes_per_edge and fail_frac are
// end-to-end too, but the first is undefined on two workloads and both
// are exactly 0 where all is well, which the driver's contract rules
// out; they are printed in the table, compared by -compare, and
// fail_frac reaches the driver as failed/attempted.
var endToEnd = []catalogEntry{
	{"setup_s", "s", lower},
	{"edges_per_s", "1/s", higher},
	{"jobs_per_s", "1/s", higher},
	{"job_p50_ms", "ms", lower},
	{"job_p95_ms", "ms", lower},
	{"live_heap_mb", "MiB", lower},
}

// perLayer is BENCHMARK.json's per_layer list: what a -trace 1 run
// reports on its last line. A workload that does not exercise a layer
// reports 0 for it there and leaves it out of the table.
var perLayer = []catalogEntry{
	{"moved_bytes_per_edge", "B", lower},
	{"trace_overhead_frac", "ratio", lower},

	{"gen.generate_s", "s", lower},
	{"graph.transpose_s", "s", lower},
	{"graph.csr_bytes_per_edge", "B", lower},
	{"gio.upload_decode_s", "s", lower},

	{"kernels.serial.bfs.job_ms", "ms", lower},
	{"kernels.serial.cc.job_ms", "ms", lower},
	{"kernels.serial.sssp.job_ms", "ms", lower},
	{"kernels.serial.pagerank.job_ms", "ms", lower},
	{"kernels.staged.bfs.job_ms", "ms", lower},
	{"kernels.staged.cc.job_ms", "ms", lower},
	{"kernels.staged.sssp.job_ms", "ms", lower},
	{"kernels.staged.pagerank.job_ms", "ms", lower},
	{"kernels.serial.bfs.push_job_ms", "ms", lower},
	{"kernels.inspected_per_nominal", "ratio", lower},
	{"kernels.pull_iter_frac", "ratio", higher},
	{"kernels.allocs_per_job", "count", lower},
	{"kernels.alloc_kb_per_job", "KiB", lower},

	{"store.encode_s", "s", lower},
	{"store.open_ms", "ms", lower},
	{"store.container_bytes_per_edge", "B", lower},
	{"store.bfs.job_ms", "ms", lower},
	{"store.cc.job_ms", "ms", lower},
	{"store.sssp.job_ms", "ms", lower},
	{"store.pagerank.job_ms", "ms", lower},
	{"store.hit_ratio", "ratio", higher},
	{"store.misses_per_job", "count", lower},
	{"store.evictions_per_job", "count", lower},
	{"store.peak_resident_mb", "MiB", lower},
	{"store.decode_mb_per_s", "MiB/s", higher},
	{"store.pin_hit_ns", "ns", lower},
	{"store.decode_share", "ratio", lower},
	{"store.materialize_s", "s", lower},
	{"store.digest_s", "s", lower},

	{"partition.hash.partition_ms", "ms", lower},
	{"partition.ldg.partition_ms", "ms", lower},
	{"partition.multilevel.partition_s", "s", lower},
	{"partition.hash.cut_frac", "ratio", lower},
	{"partition.ldg.cut_frac", "ratio", lower},
	{"partition.multilevel.cut_frac", "ratio", lower},

	{"sim.distributed.job_ms", "ms", lower},
	{"sim.distributed-ndp.job_ms", "ms", lower},
	{"sim.disaggregated.job_ms", "ms", lower},
	{"sim.disaggregated-ndp.job_ms", "ms", lower},
	{"sim.distributed.moved_bytes_per_edge", "B", lower},
	{"sim.distributed-ndp.moved_bytes_per_edge", "B", lower},
	{"sim.disaggregated.moved_bytes_per_edge", "B", lower},
	{"sim.disaggregated-ndp.moved_bytes_per_edge", "B", lower},
	{"sim.host_ns_per_edge", "ns", lower},
	{"sim.allocs_per_job", "count", lower},
	{"sim.parallel_speedup", "ratio", higher},
	{"runtime.heuristic_vs_always_moved", "ratio", lower},

	{"cluster.job_ms", "ms", lower},
	{"cluster.faulted.job_ms", "ms", lower},
	{"cluster.traffic_bytes_per_edge", "B", lower},
	{"cluster.retries", "count", lower},
	{"cluster.vs_sim_traffic_ratio", "ratio", lower},

	{"core.compare_ms", "ms", lower},

	{"serve.put_snapshot_s", "s", lower},
	{"serve.put_container_s", "s", lower},
	{"serve.hit.job_p50_ms", "ms", lower},
	{"serve.miss.job_p50_ms", "ms", lower},
	{"serve.miss.job_p95_ms", "ms", lower},
	{"serve.job_p99_ms", "ms", lower},
	{"serve.http.submit_ms", "ms", lower},
	{"serve.http.wait_ms", "ms", lower},
	{"serve.http.result_ms", "ms", lower},
	{"serve.inproc.submit_hit_us", "us", lower},
	{"serve.exec.plan_ms", "ms", lower},
	{"serve.exec.run_ms", "ms", lower},
	{"serve.exec.encode_ms", "ms", lower},
	{"serve.queue_wait_ms", "ms", lower},
	{"serve.result_kb", "KiB", lower},
	{"serve.result_cache_hit_ratio", "ratio", higher},
	{"serve.plan_cache_hit_ratio", "ratio", higher},
	{"serve.rejected", "count", lower},
	{"serve.retained_kb_per_job", "KiB", lower},
}

// exactMetrics repeat exactly from run to run of one commit on one
// seed, so -compare holds them to equality, not to a bound.
var exactMetrics = map[string]bool{
	"moved_bytes_per_edge":                       true,
	"fail_frac":                                  true,
	"graph.csr_bytes_per_edge":                   true,
	"kernels.inspected_per_nominal":              true,
	"kernels.pull_iter_frac":                     true,
	"store.container_bytes_per_edge":             true,
	"partition.hash.cut_frac":                    true,
	"partition.ldg.cut_frac":                     true,
	"partition.multilevel.cut_frac":              true,
	"sim.distributed.moved_bytes_per_edge":       true,
	"sim.distributed-ndp.moved_bytes_per_edge":   true,
	"sim.disaggregated.moved_bytes_per_edge":     true,
	"sim.disaggregated-ndp.moved_bytes_per_edge": true,
	"runtime.heuristic_vs_always_moved":          true,
	"cluster.traffic_bytes_per_edge":             true,
	"cluster.retries":                            true,
	"cluster.vs_sim_traffic_ratio":               true,
	"serve.rejected":                             true,
}
