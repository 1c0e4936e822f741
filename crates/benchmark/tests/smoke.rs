//! Keeps the instrument compiling and honest: every workload at one
//! hundredth of a ten-second run, goldens still checked.

use aldsp_benchmark::harness::{run, RunConfig};
use aldsp_benchmark::report::Report;
use aldsp_benchmark::workloads::{Kind, ALL};

fn smoke(kind: Kind, seed: u64, trace: bool) -> Report {
    run(&RunConfig {
        kind,
        seed,
        seconds: 10,
        trace,
        smoke: true,
        out: None,
    })
    .unwrap_or_else(|e| panic!("{} failed to run: {e}", kind.name()))
}

/// `(name, <second>)` of every object under `section` of
/// `BENCHMARK.json`. No section nests an array and no string holds a
/// bracket, so a section ends at its first `]`.
fn declared(section: &str, second: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |object: &str, key: &str| -> String {
        let at = object.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        object[at..]
            .split('"')
            .nth(1)
            .expect("string value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|object| (field(object, "name"), field(object, second)))
        .collect()
}

fn assert_reports(report: &Report, section: &str, may_omit: &[&str]) {
    let declared = declared(section, "unit");
    for (name, unit) in &declared {
        let found: Vec<_> = report.metrics.iter().filter(|m| m.name == name).collect();
        if found.is_empty() && may_omit.contains(&name.as_str()) {
            continue;
        }
        assert_eq!(
            found.len(),
            1,
            "{}: {name} appears {} times",
            report.workload,
            found.len()
        );
        assert_eq!(found[0].unit, unit, "{}: unit of {name}", report.workload);
    }
    for m in &report.metrics {
        assert!(
            declared.iter().any(|(name, _)| name == m.name),
            "{}: BENCHMARK.json does not declare {}",
            report.workload,
            m.name
        );
    }
}

/// Count-valued metrics: same seed, same number, to the last digit.
fn is_exact(name: &str) -> bool {
    (name.ends_with("_per_op") && !name.ends_with("_us_per_op"))
        || name.ends_with("_per_plan")
        || name.ends_with("_per_write")
        || name.ends_with("_per_submit")
        || name.ends_with("_ratio")
        || name == "protocol.bytes_per_op"
        || name == "runtime.peak_grouped_tuples"
        || name == "matview.recomputes"
        || name == "server.handles_live"
}

#[test]
fn every_workload_answers_correctly_and_reports_every_declared_metric() {
    assert_eq!(
        declared("workloads", "why"),
        ALL.map(|k| (k.name().to_string(), k.why().to_string())),
        "BENCHMARK.json and the harness describe the same workloads"
    );
    for kind in ALL {
        let end_to_end = smoke(kind, 1, false);
        assert_eq!(end_to_end.failed, 0, "{}: failed ops", kind.name());
        assert!(end_to_end.attempted > 0);
        // a smoke run is too short to carry a 95th percentile, and the
        // harness must omit it rather than guess
        assert_reports(&end_to_end, "end_to_end", &["p95_us"]);
        assert!(
            end_to_end.value("p95_us").is_none() || end_to_end.attempted >= 220,
            "{}: p95 reported from {} samples",
            kind.name(),
            end_to_end.attempted
        );

        let layers = smoke(kind, 1, true);
        assert_eq!(layers.failed, 0, "{}: failed ops when traced", kind.name());
        assert_reports(&layers, "per_layer", &[]);
        let again = smoke(kind, 1, true);
        for m in layers.metrics.iter().filter(|m| is_exact(m.name)) {
            assert_eq!(
                Some(m.value),
                again.value(m.name),
                "{}: {} differs between two runs of one seed",
                kind.name(),
                m.name
            );
        }
    }
}

/// Requests come from one finite universe whatever the seed, so a seed
/// nobody tuned against still finds a golden answer for every reply.
#[test]
fn an_unseen_seed_passes_every_golden() {
    for kind in ALL {
        let report = smoke(kind, 0xC0FFEE, false);
        assert_eq!(
            report.failed,
            0,
            "{}: failed ops on seed 0xC0FFEE",
            kind.name()
        );
    }
}
