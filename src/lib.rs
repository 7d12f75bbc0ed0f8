//! # ahl — a sharded permissioned blockchain with TEE-assisted BFT
//!
//! Facade crate for the reproduction of *Towards Scaling Blockchain
//! Systems via Sharding* (Dang et al., SIGMOD 2019). Re-exports every
//! subsystem crate:
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`simkit`] | deterministic discrete-event simulation kernel + adversarial message-bus interposition (scripted partitions, drops, delays, duplication); observability: labeled metrics ([`simkit::Scope`]) and the transaction flight recorder ([`simkit::FlightRecorder`]) |
//! | [`telemetry`] | run-time oracles over the trace stream: the liveness oracle ([`telemetry::LivenessChecker`]: commit stalls, mempool starvation, view-change storms, sync livelock) and the wall-clock span profiler ([`telemetry::Profiler`]) |
//! | [`crypto`] | SHA-256, HMAC, signatures, Merkle trees |
//! | [`tee`] | SGX simulation: attested log, randomness beacon, sealing |
//! | [`net`] | cluster / GCP network models (Table 3 latencies); the real node runtime: [`net::Transport`] trait with in-process ([`net::MemHub`]) and threaded TCP ([`net::TcpTransport`]) backends, length-framed CRC wire codec, version/identity handshake, reconnect with backoff, and the [`net::NodeRuntime`] actor host |
//! | [`store`] | authenticated state: sparse Merkle tree, signed checkpoints, chunked state sync |
//! | [`wal`] | durable write-ahead log with segment retention caps, content-addressed page store with checkpoint-gated GC/compaction and sidecar segment indexes, byte-bounded lazy page cache ([`wal::PageCache`]), manifests, crash-kill recovery |
//! | [`ledger`] | blocks, KV state with 2PL + SMT state roots, KVStore & SmallBank chaincode; conflict-aware parallel execution ([`ledger::access`], [`ledger::execute_ops`]) |
//! | [`mempool`] | per-shard transaction pool: dedup, bounded FIFO admission (reject when full), batch pipeline |
//! | [`consensus`] | PBFT (HL/AHL/AHL+/AHLR); IBFT and Tendermint as two rule sets of one lockstep round engine ([`consensus::lockstep`]); Raft, PoET; the committed-block shell every BFT engine executes through ([`consensus::common::BlockExecutor`]); the scripted Byzantine attack catalogue ([`consensus::Attack`]) and the global [`consensus::SafetyChecker`] |
//! | [`shard`] | committee sizing (Eq 1), beacon protocol, reconfiguration |
//! | [`txn`] | the reference committee's Figure 6 chaincode — the one 2PC state machine, run by the simulated system and the in-process model alike — cross-shard protocol, baselines, malicious 2PC participants |
//! | [`workload`] | BLOCKBENCH KVStore / SmallBank generators |
//! | [`system`] | the assembled sharded blockchain ([`system::run_system`]) |
//!
//! Quickstart: see `examples/quickstart.rs` —
//!
//! ```
//! use ahl::system::{run_system, SystemConfig, SystemWorkload};
//! use ahl::simkit::SimDuration;
//!
//! let mut cfg = SystemConfig::new(2, 3); // 2 shards × 3 replicas
//! cfg.clients = 2;
//! cfg.outstanding = 8;
//! cfg.workload = SystemWorkload::SmallBank { accounts: 500, theta: 0.0 };
//! cfg.duration = SimDuration::from_secs(3);
//! cfg.warmup = SimDuration::from_secs(1);
//! let metrics = run_system(cfg);
//! assert!(metrics.committed > 0);
//! ```
//!
//! ## Observability
//!
//! Every simulation feeds a structured observability stack in
//! [`simkit::Stats`]:
//!
//! - **Labeled metrics** — counters and latency histograms carry an
//!   optional [`simkit::Scope`] (committee, or committee + replica), and
//!   every scoped write also rolls up into the unlabeled global, so
//!   per-shard breakdowns coexist with the aggregate numbers
//!   (`stats.scoped_counter(name, Scope::committee(2))`).
//! - **Transaction flight recorder** — replicas and clients stamp each
//!   transaction's lifecycle ([`simkit::Phase`]: submit → ingest → admit
//!   → propose → commit → exec, plus the cross-shard 2PC hops, view
//!   changes, state sync and WAL commits) into bounded per-node ring
//!   buffers ([`simkit::FlightRecorder`]); traces are deterministic in
//!   the run seed, and phase-to-phase transitions derive `phase.*`
//!   latency histograms with p50/p99/p999.
//! - **Liveness oracle** — [`telemetry::LivenessChecker`] is an online
//!   [`simkit::TraceSink`] tee over the same stamp stream: per-committee
//!   commit-stall, mempool-starvation, view-change-storm and
//!   sync-livelock detectors with deterministic verdicts. Attach it via
//!   `SystemConfig::liveness`; violations land in
//!   `SystemMetrics::liveness_violations` and the JSON report.
//! - **Wall-clock profiler** — [`telemetry::Profiler`] spans
//!   (`pbft.exec`, `pbft.checkpoint`, `smt.update`, `wal.group_commit`,
//!   `sync.verify_chunk`, …) time the *host* cost of the hot paths, with
//!   self/total attribution; `SystemConfig::profile` returns the sorted
//!   table in `SystemReport::profile`.
//! - **Dump-on-anomaly** — a [`consensus::SafetyChecker`] or liveness
//!   violation in a [`system::run_system`] run prints each violation's
//!   one-line summary plus a bounded causal trace of the implicated
//!   committee.
//! - **Machine-readable reports** — [`system::run_system_report`] returns
//!   the raw [`simkit::Stats`] next to the metrics; `experiments -- fig8
//!   --quick --json out.json` emits the stable JSON report (run config,
//!   per-shard committed counts, phase-latency percentiles) that CI
//!   validates and archives on every push.
//! - **Bench trajectory** — the `fig8` / `overload` / `statesync` /
//!   `recovery` / `byzantine` scenarios embed per-metric regression
//!   budgets in their JSON reports; `bench_compare
//!   BENCH_<scenario>.json fresh.json` diffs a fresh run against the
//!   committed baseline and exits non-zero on a breach (see
//!   BENCHMARKS.md).
//!
//! ```
//! use ahl::system::{run_system_report, SystemConfig, SystemWorkload};
//! use ahl::simkit::{Phase, Scope, SimDuration};
//!
//! let mut cfg = SystemConfig::new(2, 3);
//! cfg.clients = 2;
//! cfg.outstanding = 8;
//! cfg.workload = SystemWorkload::SmallBank { accounts: 500, theta: 0.0 };
//! cfg.duration = SimDuration::from_secs(3);
//! cfg.warmup = SimDuration::from_secs(1);
//! let report = run_system_report(cfg);
//! // Per-shard committed counts, and a consensus-phase latency histogram.
//! let shard0 = report.stats.scoped_counter("txn.committed", Scope::committee(0));
//! assert!(shard0 > 0);
//! assert!(report.stats.histogram(Phase::TRANSITIONS[4]).is_some()); // commit→exec
//! ```
//!
//! ## Parallel in-shard execution
//!
//! Each replica can execute a committed block's batch across a fixed
//! worker pool — `SystemConfig::exec_workers` (default 1, or the
//! `AHL_EXEC_WORKERS` env var) threads through both BFT engines (PBFT,
//! and the lockstep engine behind IBFT and Tendermint) into the one call
//! of [`ledger::execute_ops`] they share, in
//! [`consensus::common::BlockExecutor`]. The scheduler ([`ledger::access`])
//! infers a conservative read/write set per operation — state keys, 2PL
//! lock markers (`"L_" + key`), and one bookkeeping slot per transaction
//! id — and partitions the batch into conflict-free *waves*: an op lands
//! one wave past the last earlier op that writes what it touches (or
//! reads what it writes). Each wave is planned on scoped worker threads
//! (`StateStore::plan` is read-only) and its effects are applied in
//! canonical batch order. There is one implementation of the §6.3
//! semantics: `exec_workers = 1` runs the same `plan` and `apply_plan`
//! one operation at a time (`StateStore::execute` is exactly that), so
//! the option selects a thread count, never a second code path.
//!
//! **Determinism guarantee**: the receipt stream, state root, lock
//! table, 2PC sidecar and flight-recorder event stream are byte-identical
//! at every worker count — parallelism changes host wall-clock only,
//! never simulated outcomes. `tests/parexec.rs` pins this with a
//! proptest battery over random mixed batches (`exec_workers ∈ {2,4,8}`)
//! and a full-system fingerprint comparison; `experiments -- parexec`
//! sweeps worker counts and asserts every cell identical. At checkpoint
//! time a parallel run additionally re-hashes the SMT bottom-up
//! ([`store::SparseMerkleTree::rehash_audit`]) and counts any mismatch in
//! `consensus.ckpt_audit_failures`.
//!
//! ```
//! use ahl::system::{run_system, SystemConfig, SystemWorkload};
//! use ahl::simkit::SimDuration;
//!
//! let mut cfg = SystemConfig::new(2, 3);
//! cfg.clients = 2;
//! cfg.outstanding = 8;
//! cfg.workload = SystemWorkload::SmallBank { accounts: 500, theta: 0.0 };
//! cfg.duration = SimDuration::from_secs(2);
//! cfg.warmup = SimDuration::from_secs(1);
//! cfg.exec_workers = 4; // same results as 1, faster wall-clock
//! let metrics = run_system(cfg);
//! assert!(metrics.committed > 0);
//! ```
//!
//! ## Real node runtime (TCP)
//!
//! The same replica code the deterministic simulator exercises also runs
//! as N actual OS processes over real sockets. The seam is two traits:
//!
//! - [`simkit::Host`] — replicas are simkit [`simkit::Actor`]s and only
//!   ever talk to a [`simkit::Ctx`]; a `Ctx` is backed either by the
//!   simulation kernel or by any `Host` (clock, timers, per-node RNG,
//!   stats). The sim path is byte-identical — hosting is an additive
//!   backend, so every Byzantine/recovery/liveness battery stays
//!   deterministic.
//! - [`net::Transport`] — the message bus: `send(from, to, packet)` and
//!   its batched form `send_all`, `recv_timeout` / `recv_all`, peer table, connect/disconnect [`net::NetEvent`]s,
//!   and backpressure counters in [`net::TransportStats`] (bounded
//!   outbound queues drop-and-count, mirroring `trace.dropped`). Two
//!   backends: [`net::MemHub`] (in-process, for tests) and
//!   [`net::TcpTransport`] — thread-per-peer `std::net`, length-framed
//!   CRC'd codec reusing the WAL framing discipline, a [`net::Hello`]
//!   version/identity/cluster handshake, and per-peer reconnect with
//!   exponential backoff. Consensus messages cross the wire via the
//!   hand-rolled [`net::Wire`] codec (`consensus::pbft` implements it
//!   for the full `PbftMsg` enum; decoding recomputes block digests and
//!   rejects torn, truncated, trailing-byte and corrupt frames).
//!
//! [`net::NodeRuntime`] glues them together: it pumps a `Transport`,
//! delivers packets to hosted actors through `Ctx::for_host`, fires
//! timers, hands the sends of each drained batch to the transport at
//! once, and answers [`net::Control::Status`] probes with
//! height/state-digest reports. The `node` binary
//! (`cargo run -p ahl-bench --bin node -- cluster.cfg <index>`) runs one
//! replica this way from a cluster config file — a canonical `key value`
//! text format (`seed` / `variant` / `batch-size` /
//! `checkpoint-interval` / `exec-workers` / `data-dir` /
//! `replica <id> <addr>` / `client <id> <addr>`) whose digest doubles as
//! the handshake cluster id, so misconfigured processes refuse to peer.
//! Replica settings derive through [`system::committee_config`] — the
//! same code path `system::run_system` uses — and a non-empty `data-dir`
//! triggers the WAL restart-from-disk path on boot.
//!
//! `experiments -- cluster` spawns a 4-process localhost committee,
//! drives closed-loop load over TCP, kills and restarts one replica
//! (reconnect + catch-up), cross-checks state digests at matching
//! heights, and reports measured throughput next to the simkit
//! prediction for the same configuration (the real path is faster — it
//! does not pay the simulator's modeled CPU costs — so the comparison is
//! a sanity band, not an identity). `tests/cluster.rs` in `ahl-bench`
//! pins the whole loop as a tier-1 CI step.
//!
//! ## Adversary model
//!
//! The paper's security section is executable: [`consensus::Attack`]
//! selects what a committee's Byzantine members do (same-slot
//! equivocation with colluding double-voters, vote withholding,
//! stale-vote replay, bogus checkpoint votes — interpreted by PBFT and by
//! the lockstep engine, hence by IBFT and Tendermint alike),
//! [`txn::RelayAttack`] covers malicious 2PC
//! participants (lying votes, decision equivocation, selective delivery,
//! replay storms), and [`simkit::adversary::ScriptedFaults`] scripts
//! network-level schedules (partition/heal windows, predicate drops,
//! delays, duplication). A run-global [`consensus::SafetyChecker`]
//! observes every honest commit and asserts the invariants — agreement
//! per height, cross-shard atomicity, exactly-once execution.
//! `tests/byzantine.rs` runs the full (protocol × attack × f) matrix and
//! an f-over-bound canary proving the checker fires on a real fork;
//! `experiments -- byzantine` is the fixed-seed CI smoke. See
//! [`consensus::adversary`] for the catalogue and how to script a new
//! attack in a few lines.

#![forbid(unsafe_code)]

pub use ahl_consensus as consensus;
pub use ahl_core as system;
pub use ahl_crypto as crypto;
pub use ahl_ledger as ledger;
pub use ahl_mempool as mempool;
pub use ahl_net as net;
pub use ahl_shard as shard;
pub use ahl_simkit as simkit;
pub use ahl_store as store;
pub use ahl_telemetry as telemetry;
pub use ahl_tee as tee;
pub use ahl_txn as txn;
pub use ahl_wal as wal;
pub use ahl_workload as workload;
