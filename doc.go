// Package repro is a from-scratch Go reproduction of "ParColl: Partitioned
// Collective I/O on the Cray XT" (Yu & Vetter, ICPP 2008).
//
// The repository contains the full stack the paper depends on, simulated
// under a deterministic virtual clock:
//
//   - internal/sim      — cooperative virtual-time engine (procs, mailboxes,
//     resource ledgers)
//   - internal/cluster  — Cray-XT-like machine model (nodes, NICs, rank
//     mappings, LogP-style costs)
//   - internal/mpi      — message-passing runtime with collectives built
//     from point-to-point messages
//   - internal/datatype — MPI-like derived datatypes and file views
//   - internal/lustre   — striped object-storage file system (OSTs,
//     request overhead, contention)
//   - internal/mpiio    — MPI-IO with the ROMIO-style extended two-phase
//     collective protocol (the paper's baseline) plus data sieving
//   - internal/core     — ParColl itself: file area partitioning, I/O
//     aggregator distribution, intermediate file views, adaptive groups
//   - internal/hdf5lite — minimal HDF5-like container (Flash I/O path)
//   - internal/workload — IOR, MPI-Tile-IO, NAS BT-IO, Flash I/O
//   - internal/obs      — metrics, per-rank span timelines (cmd/collwall
//     gantt), Perfetto export and critical paths
//   - internal/viz      — terminal charts for the figure tools
//   - internal/experiments — one runner per paper figure
//
// The benchmarks in bench_test.go regenerate every figure of the paper's
// evaluation; cmd/paperrepro prints the full comparison tables. See
// DESIGN.md for the architecture and EXPERIMENTS.md for paper-vs-measured
// results.
package repro
