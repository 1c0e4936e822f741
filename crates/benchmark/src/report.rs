//! Metric names and units (the same list `BENCHMARK.json` carries),
//! the order statistics behind them, and the printed and JSON forms of
//! a run's result.

/// `(name, unit)` of every end-to-end metric, measured with tracing
/// off. `failed / attempted` travels beside them in the result line.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("p95_us", "us"),
    ("rows_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric, from the traced run, the
/// counter deltas and the probes. A layer a workload bypasses reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("parser.parse_us", "us"),
    ("compiler.compile_us", "us"),
    ("compiler.compiles_per_op", "count"),
    ("compiler.sql_regions_per_plan", "count"),
    ("compiler.physical_calls_per_plan", "count"),
    ("core.execute_us", "us"),
    ("core.self_us", "us"),
    ("core.plan_cache_hit_ratio", "ratio"),
    ("runtime.execute_us", "us"),
    ("runtime.vm_ops_per_op", "count"),
    ("runtime.vm_fallback_subtrees_per_op", "count"),
    ("runtime.sql_statements_per_op", "count"),
    ("runtime.ppk_blocks_per_op", "count"),
    ("runtime.ppk_prefetch_wait_us_per_op", "us"),
    ("runtime.source_calls_per_op", "count"),
    ("runtime.join_build_rows_per_op", "count"),
    ("runtime.peak_grouped_tuples", "count"),
    ("runtime.morsels_per_op", "count"),
    ("relational.roundtrips_per_op", "count"),
    ("relational.rows_per_op", "count"),
    ("relational.sim_latency_us_per_op", "us"),
    ("relational.peak_inflight", "count"),
    ("relational.statements_retained", "count"),
    ("relational.point_select_us", "us"),
    ("relational.ppk_block_us", "us"),
    ("relational.scan_us_per_krow", "us"),
    ("relational.prepare_us", "us"),
    ("relational.commit_us", "us"),
    ("security.filter_us", "us"),
    ("xdm.serialize_us", "us"),
    ("xdm.serialize_bytes_per_op", "bytes"),
    ("workload.admit_us", "us"),
    ("workload.admission_wait_us_per_op", "us"),
    ("matview.hit_ratio", "ratio"),
    ("matview.hit_read_us", "us"),
    ("matview.patches_per_write", "count"),
    ("matview.invalidations_per_write", "count"),
    ("matview.recomputes", "count"),
    ("updates.read_object_us", "us"),
    ("updates.submit_us", "us"),
    ("updates.lineage_us", "us"),
    ("updates.statements_per_submit", "count"),
    ("protocol.encode_us", "us"),
    ("protocol.decode_us", "us"),
    ("protocol.bytes_per_op", "bytes"),
    ("protocol.frames_per_op", "count"),
    ("client.roundtrip_us", "us"),
    ("server.wire_overhead_us", "us"),
    ("server.prepare_us", "us"),
    ("server.connect_us", "us"),
    ("server.handles_live", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

/// A percentile is reported only with this many samples beyond it.
pub const SAMPLES_BEYOND: usize = 10;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Collects a run's metrics against one of the name tables, so a
/// misspelt or unlisted name fails loudly instead of drifting from
/// `BENCHMARK.json`.
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<Option<f64>>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: vec![None; table.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        assert!(
            self.values[slot].replace(value).is_none(),
            "metric {name} set twice"
        );
    }

    /// The metrics in the table's order. One never set reads 0 with
    /// `zero_unset`, and is left out without.
    pub fn finish(self, zero_unset: bool) -> Vec<Metric> {
        self.table
            .iter()
            .zip(self.values)
            .filter_map(|(&(name, unit), value)| {
                value
                    .or(zero_unset.then_some(0.0))
                    .map(|value| Metric { name, unit, value })
            })
            .collect()
    }
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub fn median_ns(values: &[i64]) -> f64 {
    median_f64(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Nearest-rank percentile of ascending `sorted`, or `None` with fewer
/// than [`SAMPLES_BEYOND`] samples above it.
pub fn percentile(sorted: &[u64], p: f64) -> Option<u64> {
    let rank = (p * sorted.len() as f64).ceil() as usize;
    let idx = rank.checked_sub(1)?;
    (idx < sorted.len() && sorted.len() - 1 - idx >= SAMPLES_BEYOND).then(|| sorted[idx])
}

/// What one run of one workload found.
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    pub fn print(&self) {
        for m in &self.metrics {
            println!("  {:<40} {:>16.3} {}", m.name, m.value, m.unit);
        }
    }
}

/// Every digit the measurement has; JSON has no NaN or infinity.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
