package main

// The names below are the benchmark's vocabulary: BENCHMARK.json lists
// exactly these, every run prints them, and later performance claims are
// made against them. The package's tests hold the three in step.

// clock says what a metric measures. Virtual numbers are the modelled Cray
// XT and repeat exactly for a seed; counts are exact tallies of work done
// and repeat too, but an optimisation may move them; host numbers are what
// the simulator costs to run, and carry noise.
type clock string

const (
	host    clock = "host"
	virtual clock = "virtual"
	count   clock = "count"
)

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	clock  clock
	bound  float64 // end-to-end only: how far the median may worsen
}

var endToEnd = []metricDef{
	{"wall_ms_per_op", "ms", "lower", host, 0.10},
	{"allocs_per_op", "count", "lower", host, 0.01},
	{"alloc_MB_per_op", "MB", "lower", host, 0.02},
	{"virt_bw_MBps", "MB/s", "higher", virtual, 0.001},
	{"setup_s", "s", "lower", host, 0.15},
}

var perLayer = []metricDef{
	{"harness.wall_ms_q1", "ms", "lower", host, 0},
	{"harness.wall_ms_q3", "ms", "lower", host, 0},
	{"harness.wall_ms_tail", "ms", "lower", host, 0},
	{"harness.peak_rss_MB", "MB", "lower", host, 0},
	{"harness.trace_overhead_ratio", "ratio", "lower", host, 0},

	{"runtime.gc_cycles_per_op", "count", "lower", host, 0},
	{"runtime.gc_pause_ms_per_op", "ms", "lower", host, 0},
	{"cpu.runtime_sched_share", "share", "lower", host, 0},
	{"cpu.runtime_gc_share", "share", "lower", host, 0},
	{"cpu.sim_share", "share", "lower", host, 0},
	{"cpu.mpi_share", "share", "lower", host, 0},
	{"cpu.mpiio_share", "share", "lower", host, 0},
	{"cpu.core_share", "share", "lower", host, 0},
	{"cpu.datatype_share", "share", "lower", host, 0},
	{"cpu.storage_share", "share", "lower", host, 0},
	{"cpu.workload_share", "share", "lower", host, 0},
	{"cpu.other_share", "share", "lower", host, 0},

	{"sim.events_per_op", "count", "lower", count, 0},
	{"sim.resumes_per_op", "count", "lower", count, 0},
	{"sim.sends_per_op", "count", "lower", count, 0},
	{"sim.max_ready_depth", "count", "lower", count, 0},
	{"sim.wildcard_scanned_per_op", "count", "lower", count, 0},
	{"sim.events_per_s", "1/s", "higher", host, 0},
	{"sim.spawn_us_per_proc", "us", "lower", host, 0},
	{"sim.handoff_ns", "ns", "lower", host, 0},
	{"sim.handoff_scale_exp", "exp", "lower", host, 0},
	{"sim.msg_ns", "ns", "lower", host, 0},
	{"sim.resource_acquire_ns", "ns", "lower", host, 0},
	{"sim.par2_wall_ratio", "ratio", "lower", host, 0},

	{"mpi.run_us_per_rank", "us", "lower", host, 0},
	{"mpi.barrier_ns", "ns", "lower", host, 0},
	{"mpi.allreduce_ns", "ns", "lower", host, 0},
	{"mpi.allgather_ns", "ns", "lower", host, 0},
	{"mpi.allgather_scale_exp", "exp", "lower", host, 0},
	{"mpi.alltoall_ints_ns", "ns", "lower", host, 0},
	{"mpi.alltoall_ints_scale_exp", "exp", "lower", host, 0},
	{"mpi.alltoallv_ns", "ns", "lower", host, 0},
	{"mpi.alltoallv_scale_exp", "exp", "lower", host, 0},
	{"mpi.p2p_ns", "ns", "lower", host, 0},
	{"mpi.split_ns", "ns", "lower", host, 0},
	{"mpi.split_scale_exp", "exp", "lower", host, 0},
	{"mpi.coll_calls_per_op", "count", "lower", count, 0},
	{"mpi.p2p_msgs_per_op", "count", "lower", count, 0},
	{"mpi.p2p_MB_per_op", "MB", "lower", count, 0},

	{"datatype.map_ns_per_seg", "ns", "lower", host, 0},

	{"mpiio.write_all_us_per_rank", "us", "lower", host, 0},
	{"mpiio.write_all_scale_exp", "exp", "lower", host, 0},
	{"mpiio.read_all_us_per_rank", "us", "lower", host, 0},
	{"mpiio.split_sweep_ms", "ms", "lower", host, 0},
	{"mpiio.hier_write_ms", "ms", "lower", host, 0},
	{"mpiio.resilient_write_ms", "ms", "lower", host, 0},
	{"mpiio.virt_sync_share", "share", "lower", virtual, 0},
	{"mpiio.virt_exchange_s", "virt_s", "lower", virtual, 0},
	{"mpiio.virt_io_s", "virt_s", "lower", virtual, 0},
	{"mpiio.virt_write_bw_MBps", "MB/s", "higher", virtual, 0},
	{"mpiio.virt_read_bw_MBps", "MB/s", "higher", virtual, 0},

	{"core.open_us_per_rank", "us", "lower", host, 0},
	{"core.open_scale_exp", "exp", "lower", host, 0},
	{"core.distribute_aggs_us", "us", "lower", host, 0},

	{"lustre.req_ns", "ns", "lower", host, 0},
	{"pvfs.req_ns", "ns", "lower", host, 0},
	{"bb.req_ns", "ns", "lower", host, 0},
	{"storage.extent_algebra_ns", "ns", "lower", host, 0},
	{"qos.admit_ns", "ns", "lower", host, 0},
	{"lustre.smallreq_ms", "ms", "lower", host, 0},
	{"pvfs.smallreq_ms", "ms", "lower", host, 0},
	{"bb.smallreq_ms", "ms", "lower", host, 0},
	{"storage.burst_ms", "ms", "lower", host, 0},
	{"lustre.requests_per_op", "count", "lower", count, 0},
	{"pvfs.requests_per_op", "count", "lower", count, 0},

	{"obs.on_wall_ratio", "ratio", "lower", host, 0},
	{"obs.perfetto_ns_per_event", "ns", "lower", host, 0},

	{"tenancy.virt_makespan_s", "virt_s", "lower", virtual, 0},
	{"tenancy.virt_hog_p99_ms", "virt_ms", "lower", virtual, 0},
	{"tenancy.qos_delay_s", "virt_s", "lower", virtual, 0},
}

// metricValue is one reported number. NA marks a per-layer metric that does
// not exist on this workload (the value is then 0): virtual and count
// metrics only, a host time is measured on every workload.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	NA    bool    `json:"na,omitempty"`
}
