//! What one benchmark run reports: the metric registry (names and units,
//! mirrored by `BENCHMARK.json`), the collected outcome, and the host
//! facts recorded beside every result.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one of them (see `README.md` for what an "operation" is on each).
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("msgs_per_s", "1/s"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload never
/// enters reads 0 there. The median operation latency leads the list: it is
/// end-to-end, but the host's slow and fast phases move it by up to 40%
/// between runs, so it is reported here rather than bounded.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("latency_p50_us", "us"),
    ("core.build_s", "s"),
    ("core.register_us", "us"),
    ("core.msg_self_us", "us"),
    ("core.unattributed_pct", "%"),
    ("core.accuracy", "ratio"),
    ("text.compose_us", "us"),
    ("select.correct_ratio", "ratio"),
    ("cache.user_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.fleet_hit_ratio", "ratio"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("codec.train_round_ms", "ms"),
    ("codec.train_rounds", "count"),
    ("codec.train_samples_per_round", "count"),
    ("codec.train_round_growth", "ratio"),
    ("codec.user_model_ratio", "ratio"),
    ("channel.transmit_us", "us"),
    ("fl.sync_round_us", "us"),
    ("fl.sync_bytes_per_msg", "B"),
    ("fl.sync_bytes_per_round", "B"),
    ("fl.sync_rejected", "count"),
    ("par.msgs_per_encode_batch", "count"),
    ("par.queue_peak", "count"),
    ("edge.events", "count"),
    ("edge.events_per_s", "1/s"),
    ("edge.shard_imbalance", "ratio"),
    ("edge.queue_depth_peak", "count"),
    ("edge.offloaded", "count"),
    ("edge.plan_us", "us"),
    ("edge.sim_p99_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("obs.spans_dropped", "count"),
    ("host.probe_ms", "ms"),
];

/// Unit of a registered metric.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unregistered metric {name}"))
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (messages or fleet requests) attempted.
    pub attempted: u64,
    /// Operations in a repeat that panicked or failed an output check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Metric values by name; unset registered metrics read 0.
    pub values: BTreeMap<&'static str, f64>,
    /// Context printed beside the metrics (counts, percentile sample sizes).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Sets a registered metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit_of(name);
        self.values.insert(name, value);
    }

    /// Records a failed check covering `ops` operations.
    pub fn fail(&mut self, ops: u64, why: String) {
        self.failed += ops;
        self.failures.push(why);
    }

    /// Fails every repeat that failed a check or whose exact metrics
    /// differ, bit for bit, from the first repeat on the same sub-seed, then
    /// publishes each exact metric as its median over the sub-seeds.
    pub fn settle<'a>(&mut self, reps: impl IntoIterator<Item = (u64, &'a Checked)>) {
        let bits = |c: &Checked| c.exact.iter().map(|(_, v)| v.to_bits()).collect::<Vec<_>>();
        let mut firsts: Vec<(u64, &Checked)> = Vec::new();
        for (seed, r) in reps {
            for f in &r.failures {
                self.fail(r.ops, format!("seed {seed}: {f}"));
            }
            match firsts.iter().find(|(s, _)| *s == seed) {
                None => firsts.push((seed, r)),
                Some((_, base)) if bits(r) != bits(base) => self.fail(
                    r.ops,
                    format!(
                        "seed {seed}: exact metrics differ between repeats: {:?} vs {:?}",
                        r.exact, base.exact
                    ),
                ),
                Some(_) => {}
            }
        }
        let Some(&(_, first)) = firsts.first() else {
            return;
        };
        for (j, &(name, _)) in first.exact.iter().enumerate() {
            self.set(name, stats::median_by(&firsts, |(_, c)| c.exact[j].1));
        }
    }

    /// Sets `latency_p50_us` and `latency_p99_us` from per-operation wall
    /// times grouped by repeat, noting the sample counts behind them.
    pub fn set_latency(&mut self, what: &str, ops_us: &[Vec<f64>]) {
        for (name, q) in [("latency_p50_us", 0.5), ("latency_p99_us", 0.99)] {
            let (v, note) = stats::tail_over_repeats(ops_us, q);
            self.notes.push(format!("{name}: {what}, {note}"));
            match v {
                Some(v) => self.set(name, v),
                None => self.fail(0, format!("{name}: too few samples ({note})")),
            }
        }
    }

    /// The value of `name` (0 when the workload does not reach its layer).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// What a repeat hands back for checking.
#[derive(Debug, Default)]
pub struct Checked {
    /// Operations the repeat attempted.
    pub ops: u64,
    /// Its failed output checks.
    pub failures: Vec<String>,
    /// Metrics that must repeat bit for bit at a fixed seed.
    pub exact: Vec<(&'static str, f64)>,
}

/// Formats one metric table as the JSON object of the result line.
pub fn metrics_json(out: &Outcome, table: &[(&str, &str)]) -> String {
    let body: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(out.get(name))
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// A finite JSON number with every digit `f64` carries.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v:?}")
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed, allocation-free kernel owned by the benchmark: a vectorizable
/// f32 multiply-add sweep like the program's dense layers. Its wall time
/// moves only with the host (frequency, contention on the shared cores),
/// never with the program, so a drift between two sets of runs can be
/// traced to the host.
pub fn host_probe_ms() -> f64 {
    const ROW: usize = 64;
    let a: Vec<f32> = (0..ROW * 256).map(|i| (i % 97) as f32 * 0.01).collect();
    let b: Vec<f32> = (0..ROW).map(|i| 1.0 - i as f32 * 0.001).collect();
    let mut acc = [0.0f32; ROW];
    let t0 = Instant::now();
    for _ in 0..7200 {
        for row in a.chunks_exact(ROW) {
            for ((s, x), y) in acc.iter_mut().zip(row).zip(&b) {
                *s = *s * 0.999 + x * y;
            }
        }
        std::hint::black_box(&mut acc);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// The checkout's git revision, read from `.git` without spawning git;
/// `unknown` outside a git work tree.
pub fn git_revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn registry_matches_benchmark_json() {
        let spec = semcom_obs::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(String, String)> = spec
                .get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }

    fn checked(exact: f64) -> Checked {
        Checked {
            ops: 10,
            failures: Vec::new(),
            exact: vec![("core.accuracy", exact)],
        }
    }

    #[test]
    fn settle_checks_each_sub_seed_against_its_own_rerun() {
        let (a, b, c) = (checked(0.5), checked(0.7), checked(0.9));
        let mut out = Outcome::default();
        out.settle([(1, &a), (2, &b), (3, &c), (1, &a), (2, &b), (3, &c)]);
        assert_eq!(out.failed, 0);
        // Published as the median over the sub-seeds.
        assert_eq!(out.get("core.accuracy"), 0.7);

        let drifted = checked(0.5000001);
        let mut out = Outcome::default();
        out.settle([(1, &a), (2, &b), (1, &drifted), (2, &b)]);
        assert_eq!(out.failed, 10);
        assert!(out.failures[0].contains("seed 1"), "{:?}", out.failures);
    }

    #[test]
    fn settle_counts_failed_checks() {
        let mut bad = checked(0.5);
        bad.failures.push("decoded 3 of 4 concepts".into());
        let mut out = Outcome::default();
        out.settle([(1, &bad), (1, &bad)]);
        assert_eq!(out.failed, 20);
        assert_eq!(out.failures.len(), 2);
    }

    #[test]
    fn metrics_json_keeps_every_digit() {
        let mut out = Outcome::default();
        out.set("setup_s", 0.123456789012);
        let json = metrics_json(&out, &END_TO_END);
        assert!(json.contains("\"setup_s\": {\"value\": 0.123456789012, \"unit\": \"s\"}"));
        assert!(semcom_obs::parse_json(&json).is_ok());
    }
}
