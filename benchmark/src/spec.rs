//! The names this benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` declares the
//! same names; a unit test holds the two lists equal.

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tcp_kv_sat",
        "four shipped node processes over localhost TCP with a data dir, closed loop at saturation: the whole real path, net and wal do most of their work here",
    ),
    (
        "tcp_kv_rate",
        "same cluster, open loop at a fixed 4000 tx/s timed from the due instant: batches close on the timeout, so the latency cost of batching harder shows here",
    ),
    (
        "inproc_kv_sat",
        "same committee in one runtime on one thread with real MACs, no sockets, no disk: bypasses net and wal, so their changes must show nothing here",
    ),
    (
        "sim_xshard",
        "4 shards + reference committee on the simulator under Smallbank: the only workload running 2PC, 2PL locks, the cross-shard client and the simkit engine",
    ),
];

/// `(name, unit)` of every end-to-end metric, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("committed_tps", "tx/s"),
    ("cpu_us_per_txn", "us"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// `(name, unit)` of every per-layer metric, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.wire.encode_ns_per_msg", "ns"),
    ("net.wire.decode_ns_per_msg", "ns"),
    ("net.wire.bytes_per_txn", "B"),
    ("net.transport.frames_per_txn", "count"),
    ("net.transport.send_ns_per_frame", "ns"),
    ("net.transport.rtt_us", "us"),
    ("net.transport.tx_dropped", "count"),
    ("net.transport.rx_rejected", "count"),
    ("net.syscalls_per_txn", "count"),
    ("net.sys_cpu_frac", "ratio"),
    ("consensus.msgs_per_txn", "count"),
    ("consensus.txs_per_block", "count"),
    ("consensus.replica_self_us_per_txn", "us"),
    ("consensus.view_changes", "count"),
    ("consensus.ckpt_certs", "count"),
    ("mempool.admit_ns_per_tx", "ns"),
    ("mempool.batch_ns_per_tx", "ns"),
    ("mempool.queue_wait_p50_ms", "ms"),
    ("mempool.timeout_flush_frac", "ratio"),
    ("mempool.rejected", "count"),
    ("ledger.exec_self_us_per_txn", "us"),
    ("ledger.exec_ns_per_op", "ns"),
    ("ledger.lock_conflict_frac", "ratio"),
    ("store.smt_update_ns_per_op", "ns"),
    ("store.smt_updates_per_txn", "count"),
    ("store.smt_batch_apply_ns_per_op", "ns"),
    ("store.smt_busy_frac", "ratio"),
    ("crypto.sha256_ns_per_kib", "ns"),
    ("crypto.sign_ns_per_op", "ns"),
    ("crypto.verify_batch_ns_per_sig", "ns"),
    ("crypto.sigs_per_txn", "count"),
    ("wal.append_ns_per_rec", "ns"),
    ("wal.fsync_us_per_commit", "us"),
    ("wal.fsyncs_per_block", "count"),
    ("wal.disk_bytes_per_txn", "B"),
    ("wal.ckpt_persist_ms_per_ckpt", "ms"),
    ("wal.pages_written_per_ckpt", "count"),
    ("wal.gc_runs", "count"),
    ("sync.restart_catchup_s", "s"),
    ("sync.bytes_synced", "B"),
    ("sync.replayed_batches", "count"),
    ("txn.coordinator_ns_per_step", "ns"),
    ("txn.steps_per_xtxn", "count"),
    ("txn.abort_frac", "ratio"),
    ("txn.cross_shard_frac", "ratio"),
    ("core.xclient_stalled", "count"),
    ("simkit.events_per_txn", "count"),
    ("simkit.dispatch_ns_per_event", "ns"),
    ("clients.latency_p50_ms", "ms"),
    ("clients.latency_p99_ms", "ms"),
    ("clients.generator_lag_p99_ms", "ms"),
    ("clients.retries", "count"),
    ("layers.attributed_frac", "ratio"),
    ("layers.unattributed_us_per_txn", "us"),
    ("trace.overhead_frac", "ratio"),
    ("trace.cpu_us_per_txn", "us"),
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// `BENCHMARK.json` from the repository root, as built into this binary.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn declaration() -> Result<ahl_bench::json::JsonValue, String> {
    ahl_bench::json::JsonValue::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
}

/// `run_seconds` of `BENCHMARK.json`: the window when none is given.
pub fn declared_run_seconds() -> Result<f64, String> {
    declaration()?
        .get("run_seconds")
        .and_then(|v| v.as_f64())
        .ok_or_else(|| "BENCHMARK.json: no run_seconds".to_string())
}

/// `(name, higher is better, bound)` of every end-to-end metric declared
/// in `BENCHMARK.json`.
pub fn declared_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    use ahl_bench::json::JsonValue;
    let doc = declaration()?;
    let Some(JsonValue::Array(list)) = doc.get("end_to_end") else {
        return Err("BENCHMARK.json: no end_to_end list".into());
    };
    list.iter()
        .map(|m| {
            let text = |key: &str| match m.get(key) {
                Some(JsonValue::Str(s)) => Ok(s.clone()),
                _ => Err(format!("BENCHMARK.json: end_to_end entry without {key}")),
            };
            let bound = m
                .get("bound")
                .and_then(JsonValue::as_f64)
                .ok_or("BENCHMARK.json: no bound")?;
            Ok((text("name")?, text("better")? == "higher", bound))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ahl_bench::json::JsonValue;

    fn names_and_units(doc: &JsonValue, key: &str) -> Vec<(String, String)> {
        let Some(JsonValue::Array(list)) = doc.get(key) else {
            panic!("{key} is not a list")
        };
        let text = |m: &JsonValue, k: &str| match m.get(k) {
            Some(JsonValue::Str(s)) => s.clone(),
            other => panic!("{key}: {k} = {other:?}"),
        };
        list.iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect()
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        !name.is_empty()
            && name.len() <= 64
            && name.chars().all(ok)
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    /// What `BENCHMARK.json` declares is exactly what the reporter emits,
    /// name for name and unit for unit, in the same order.
    #[test]
    fn benchmark_json_matches_the_reporter() {
        let doc = declaration().expect("BENCHMARK.json parses");
        for (key, ours) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let theirs = names_and_units(&doc, key);
            let ours: Vec<(String, String)> = ours
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(theirs, ours, "{key}");
        }
        let Some(JsonValue::Array(w)) = doc.get("workloads") else {
            panic!("workloads")
        };
        let theirs: Vec<(String, String)> = w
            .iter()
            .map(|m| match (m.get("name"), m.get("why")) {
                (Some(JsonValue::Str(n)), Some(JsonValue::Str(y))) => (n.clone(), y.clone()),
                other => panic!("workload entry {other:?}"),
            })
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, y)| (n.to_string(), y.to_string()))
            .collect();
        assert_eq!(theirs, ours, "workloads");
    }

    #[test]
    fn declared_names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(*name), "{name} declared twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit:?}"
            );
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((2..=8).contains(&WORKLOADS.len()));
        for (name, why) in WORKLOADS {
            assert!(well_formed(name) && seen.insert(*name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: why is {} chars",
                why.len()
            );
        }
        let bounds = declared_bounds().expect("bounds parse");
        assert_eq!(bounds.len(), END_TO_END.len());
        assert!(bounds.iter().all(|(_, _, b)| *b > 0.0 && *b <= 0.25));
        assert!(bounds
            .iter()
            .any(|(n, higher, _)| n == "setup_s" && !higher));
        let secs = declared_run_seconds().expect("run_seconds");
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    }

    #[test]
    fn units_resolve_by_name() {
        assert_eq!(unit_of("setup_s"), Some("s"));
        assert_eq!(unit_of("store.smt_busy_frac"), Some("ratio"));
        assert_eq!(unit_of("nope"), None);
    }
}
