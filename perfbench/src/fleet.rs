//! The `fleet-replay` workload: the sharded fleet simulator at the F13
//! scale shape, with adaptive links and edge-to-cloud offload switched on.

use crate::report::{Checked, Outcome};
use crate::stats::median_by;
use crate::{repeat, Budget, Params};
use semcom_channel::adapt::AdaptSpec;
use semcom_edge::placement::MessageCost;
use semcom_edge::{
    Assignment, FleetAdapt, FleetConfig, OffloadConfig, SessionPlacement, ShardedFleetConfig,
    ShardedFleetSim, Topology,
};
use std::time::Instant;

struct Rep {
    setup_s: f64,
    plan_us: f64,
    run_s: f64,
    /// Wall time of each shard's replay, in microseconds.
    shard_us: Vec<f64>,
    imbalance: f64,
    events: u64,
    checked: Checked,
}

/// Runs `fleet-replay`.
pub fn replay(p: &Params, budget: &Budget, _trace: bool, seed: u64, out: &mut Outcome) {
    let full_dim = p.usize("adapt_full_dim");
    let requests = p.usize("requests");
    let config = ShardedFleetConfig {
        fleet: FleetConfig {
            n_edges: p.usize("edges"),
            n_requests: requests,
            arrival_rate_hz: p.f64("arrival_rate_hz"),
            capacity_bytes: p.usize("capacity_bytes"),
            n_domains: p.usize("domains"),
            n_users: p.usize("users"),
            max_batch: p.usize("max_batch"),
            message: MessageCost {
                encode_ops: p.f64("stage_ops"),
                decode_ops: p.f64("stage_ops"),
                ..MessageCost::default()
            },
            adapt: Some(FleetAdapt {
                spec: AdaptSpec::standard(full_dim),
                payload_bits: p.f64("adapt_payload_bits"),
                full_feature_dim: full_dim,
                symbol_rate_hz: p.f64("adapt_symbol_rate_hz"),
            }),
            offload: Some(OffloadConfig::default()),
            ..FleetConfig::default()
        },
        n_shards: p.usize("shards"),
        placement: SessionPlacement::Assigned(Assignment::Sticky),
        node_weights: None,
    };
    // The fleet does no tracing of its own in wall time (its trace is in
    // virtual time), so a traced run replays exactly like an untraced one
    // and its per-layer numbers come from `ShardStats` and bench timers.
    let reps = repeat(
        budget,
        false,
        seed,
        requests as u64,
        out,
        |sub, _| once(&config, sub),
        |r: &Rep| r.run_s,
    );
    out.settle(reps.iter().map(|r| (r.seed, &r.result.checked)));
    let reps: Vec<&Rep> = reps.iter().map(|r| &r.result).collect();
    if reps.is_empty() {
        return;
    }
    out.set("setup_s", median_by(&reps, |r| r.setup_s));
    out.set("edge.plan_us", median_by(&reps, |r| r.plan_us));
    out.set(
        "msgs_per_s",
        median_by(&reps, |r| requests as f64 / r.run_s),
    );
    out.set(
        "edge.events_per_s",
        median_by(&reps, |r| r.events as f64 / r.run_s),
    );
    out.set("edge.shard_imbalance", median_by(&reps, |r| r.imbalance));
    let shards: Vec<Vec<f64>> = reps.iter().map(|r| r.shard_us.clone()).collect();
    out.set_latency("shard replays", &shards);
    out.notes.push(format!(
        "{requests} requests per repeat over {} shards",
        config.n_shards
    ));
}

fn once(config: &ShardedFleetConfig, seed: u64) -> Rep {
    let mut failures = Vec::new();
    let t0 = Instant::now();
    let sim = ShardedFleetSim::try_new(config.clone(), Topology::default())
        .unwrap_or_else(|e| panic!("fleet config rejected: {e}"));
    let t1 = Instant::now();
    let plans = sim.plan(seed);
    let plan_us = t1.elapsed().as_secs_f64() * 1e6;
    let setup_s = t0.elapsed().as_secs_f64();
    let planned: usize = plans.iter().map(|p| p.config.n_requests).sum();
    if plans.len() != config.n_shards || planned != config.fleet.n_requests {
        failures.push(format!(
            "plan has {} shards and {planned} requests, expected {} and {}",
            plans.len(),
            config.n_shards,
            config.fleet.n_requests
        ));
    }

    let t2 = Instant::now();
    let report = sim.run(seed);
    let run_s = t2.elapsed().as_secs_f64();

    let merged = &report.merged;
    if merged.latency.count != config.fleet.n_requests {
        failures.push(format!(
            "merged latency count {} != {} requests",
            merged.latency.count, config.fleet.n_requests
        ));
    }
    let shard_us: Vec<f64> = report
        .stats
        .iter()
        .map(|s| s.wall_ns as f64 / 1e3)
        .collect();
    let mean = shard_us.iter().sum::<f64>() / shard_us.len() as f64;
    let imbalance = shard_us.iter().copied().fold(0.0, f64::max) / mean;
    let events: u64 = report.stats.iter().map(|s| s.events_total).sum();
    let hits: u64 = report.stats.iter().map(|s| s.hits).sum();
    let lookups: u64 = report.stats.iter().map(|s| s.lookups).sum();
    let queue_peak = report
        .stats
        .iter()
        .map(|s| s.queue_depth_peak)
        .max()
        .unwrap_or(0);
    let exact = vec![
        ("cache.fleet_hit_ratio", hits as f64 / lookups.max(1) as f64),
        ("edge.events", events as f64),
        ("edge.queue_depth_peak", queue_peak as f64),
        ("edge.offloaded", merged.offloaded as f64),
        ("edge.sim_p99_ms", merged.latency.p99 * 1e3),
    ];
    Rep {
        setup_s,
        plan_us,
        run_s,
        shard_us,
        imbalance,
        events,
        checked: Checked {
            ops: config.fleet.n_requests as u64,
            failures,
            exact,
        },
    }
}
