//! The two serving workloads: `serve-train` (a closed loop over a few
//! users, training and decoder sync included) and `serve-crowd` (many
//! users in `send_stream` rounds, never enough traffic per user to train).

use crate::report::{Checked, Outcome};
use crate::stats::{self, median, median_by};
use crate::{repeat, Budget, Params};
use semcom::{MessageOutcome, SemanticEdgeSystem, SystemConfig, UserId};
use semcom_obs::{Event, MonotonicClock, Recorder, TraceSpan};
use semcom_text::Domain;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// serve-train harvests the trace buffer every this many messages
/// (serve-crowd after every round).
const TRACE_WINDOW: usize = 64;

/// Spans the trace buffer holds between harvests: at most six spans per
/// message, so a window fits many times over and no span is ever dropped.
const TRACE_CAPACITY: usize = 1 << 14;

/// How a serving workload drives the system.
enum Drive {
    /// One closed-loop client: `compose_message` then `send_sentence`,
    /// round-robin over the users.
    Train { messages: usize },
    /// One client serving `k` distinct users per `send_stream` round, each
    /// user `per_user` times.
    Crowd { per_user: usize, k: usize },
}

struct Shape {
    users: usize,
    strength: f64,
    drive: Drive,
    growth_window: u64,
}

impl Shape {
    fn messages(&self) -> usize {
        match self.drive {
            Drive::Train { messages, .. } => messages,
            Drive::Crowd { per_user, .. } => self.users * per_user,
        }
    }

    /// What one timed operation is.
    fn operation(&self) -> &'static str {
        match self.drive {
            Drive::Train { .. } => "messages (compose + send)",
            Drive::Crowd { .. } => "send_stream rounds",
        }
    }
}

/// One fixed-work repeat: a fresh system, its set-up, and the messages.
struct Rep {
    setup_s: f64,
    build_s: f64,
    register_us: f64,
    /// Wall time of each client-visible operation (message or round).
    op_us: Vec<f64>,
    /// Sum of `op_us`, in seconds.
    measured_s: f64,
    /// Per-layer values of a traced repeat.
    layers: Option<BTreeMap<&'static str, f64>>,
    checked: Checked,
}

/// Runs `serve-train`.
pub fn train(p: &Params, budget: &Budget, trace: bool, seed: u64, out: &mut Outcome) {
    let shape = Shape {
        users: p.usize("users"),
        strength: p.f64("idiolect_strength"),
        drive: Drive::Train {
            messages: p.usize("messages"),
        },
        growth_window: p.u64("growth_window"),
    };
    run(&shape, budget, trace, seed, out);
}

/// Runs `serve-crowd`.
pub fn crowd(p: &Params, budget: &Budget, trace: bool, seed: u64, out: &mut Outcome) {
    let shape = Shape {
        users: p.usize("users"),
        strength: p.f64("idiolect_strength"),
        drive: Drive::Crowd {
            per_user: p.usize("messages_per_user"),
            k: p.usize("k"),
        },
        growth_window: 0,
    };
    run(&shape, budget, trace, seed, out);
}

fn run(shape: &Shape, budget: &Budget, trace: bool, seed: u64, out: &mut Outcome) {
    let reps = repeat(
        budget,
        trace,
        seed,
        shape.messages() as u64,
        out,
        |sub, traced| once(shape, sub, traced),
        |r: &Rep| r.measured_s,
    );
    out.settle(reps.iter().map(|r| (r.seed, &r.result.checked)));
    let all: Vec<&Rep> = reps.iter().map(|r| &r.result).collect();
    if all.is_empty() {
        return;
    }
    out.set("setup_s", median_by(&all, |r| r.setup_s));
    out.set("core.build_s", median_by(&all, |r| r.build_s));
    out.set("core.register_us", median_by(&all, |r| r.register_us));
    let kind = |traced: bool| -> Vec<&Rep> {
        reps.iter()
            .filter(|r| r.traced == traced)
            .map(|r| &r.result)
            .collect()
    };
    let (plain, traced) = (kind(false), kind(true));
    out.set(
        "setup_s",
        median(&all.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    out.set(
        "core.build_s",
        median(&all.iter().map(|r| r.build_s).collect::<Vec<_>>()),
    );
    out.set(
        "core.register_us",
        median(&all.iter().map(|r| r.register_us).collect::<Vec<_>>()),
    );
    let rate = |reps: &[&Rep]| median_by(reps, |r| r.checked.ops as f64 / r.measured_s);
    if !plain.is_empty() {
        out.set("msgs_per_s", rate(&plain));
        let ops: Vec<Vec<f64>> = plain.iter().map(|r| r.op_us.clone()).collect();
        out.set_latency(shape.operation(), &ops);
    }
    if !traced.is_empty() {
        let maps: Vec<&BTreeMap<&'static str, f64>> =
            traced.iter().filter_map(|r| r.layers.as_ref()).collect();
        for &name in maps[0].keys() {
            let vals: Vec<f64> = maps.iter().map(|m| m[name]).collect();
            let v = if name == "obs.spans_dropped" || name == "par.queue_peak" {
                vals.iter().copied().fold(0.0, f64::max)
            } else {
                median(&vals)
            };
            out.set(name, v);
        }
        if !plain.is_empty() {
            out.set(
                "obs.trace_overhead_pct",
                (rate(&plain) / rate(&traced) - 1.0) * 100.0,
            );
        }
    }
    out.notes.push(format!(
        "{} traced repeats; {} messages and {} users per repeat",
        traced.len(),
        shape.messages(),
        shape.users
    ));
}

/// Time source for one repeat: the attached recorder's clock when tracing,
/// so bench spans and program spans share one time base.
struct Clock {
    rec: Option<Recorder>,
    origin: Instant,
}

impl Clock {
    fn now(&self) -> u64 {
        match &self.rec {
            Some(r) => r.now_ns(),
            None => self.origin.elapsed().as_nanos() as u64,
        }
    }
}

fn once(shape: &Shape, seed: u64, traced: bool) -> Rep {
    let t0 = Instant::now();
    let mut sys = SemanticEdgeSystem::build(SystemConfig::default(), seed);
    let build_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let users: Vec<UserId> = (0..shape.users)
        .map(|i| sys.register_user(Domain::ALL[i % Domain::ALL.len()], shape.strength))
        .collect();
    let register_us = t1.elapsed().as_secs_f64() * 1e6 / shape.users as f64;
    let setup_s = t0.elapsed().as_secs_f64();

    let messages = shape.messages();
    let clock = Clock {
        rec: traced.then(|| {
            Recorder::new_traced(
                Box::new(MonotonicClock::new()),
                2 * messages + 1024,
                TRACE_CAPACITY,
            )
        }),
        origin: Instant::now(),
    };
    if let Some(rec) = &clock.rec {
        sys.attach_recorder(rec.clone());
    }
    let mut acc = LayerAcc::default();
    let mut failures = Vec::new();
    let mut op_us = Vec::new();
    match shape.drive {
        Drive::Train { messages } => {
            for i in 0..messages {
                let user = users[i % users.len()];
                let a = clock.now();
                let sentence = sys.compose_message(user);
                let b = clock.now();
                let outcome = sys.send_sentence(user, &sentence);
                let c = clock.now();
                op_us.push((c - a) as f64 / 1e3);
                check(std::slice::from_ref(&outcome), &mut failures);
                if let Some(rec) = &clock.rec {
                    acc.compose.add(b - a);
                    acc.ops.push((b, c));
                    if (i + 1) % TRACE_WINDOW == 0 || i + 1 == messages {
                        acc.harvest(rec, shape.growth_window, messages as u64);
                    }
                }
            }
        }
        Drive::Crowd { per_user, k } => {
            for _ in 0..per_user {
                for round in users.chunks(k) {
                    let a = clock.now();
                    let outs = sys.send_stream(round);
                    let b = clock.now();
                    op_us.push((b - a) as f64 / 1e3);
                    if outs.len() != round.len() {
                        failures.push(format!(
                            "round of {} returned {} outcomes",
                            round.len(),
                            outs.len()
                        ));
                    }
                    check(&outs, &mut failures);
                    if let Some(rec) = &clock.rec {
                        acc.ops.push((a, b));
                        let peak = rec.gauge("sched_stream_encode_queue_peak").unwrap_or(0.0);
                        acc.queue_peak = acc.queue_peak.max(peak);
                        acc.harvest(rec, shape.growth_window, messages as u64);
                    }
                }
            }
        }
    }

    let m = sys.metrics();
    if m.messages != messages as u64 {
        failures.push(format!("completed {} of {messages} messages", m.messages));
    }
    if matches!(shape.drive, Drive::Crowd { .. }) && m.trainings != 0 {
        failures.push(format!(
            "{} training rounds fired in a workload that must not train",
            m.trainings
        ));
    }
    let (mut hits, mut lookups, mut evictions, mut wire, mut rounds) = (0, 0, 0, 0, 0);
    for i in 0..sys.edge_count() {
        let c = sys.edge(i).user_cache_stats();
        hits += c.hits;
        lookups += c.hits + c.misses;
        evictions += c.evictions;
        let t = sys.edge(i).transport_stats();
        wire += t.wire_bytes;
        rounds += t.rounds;
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let exact = vec![
        ("core.accuracy", ratio(m.correct_tokens, m.tokens)),
        (
            "select.correct_ratio",
            ratio(m.selection_correct, m.messages),
        ),
        ("cache.user_hit_ratio", ratio(hits, lookups)),
        ("cache.evictions", evictions as f64),
        ("codec.train_rounds", m.trainings as f64),
        (
            "codec.user_model_ratio",
            ratio(m.user_model_messages, m.messages),
        ),
        ("fl.sync_bytes_per_msg", ratio(m.sync_bytes, m.messages)),
        ("fl.sync_bytes_per_round", ratio(wire, rounds)),
        ("fl.sync_rejected", m.sync_rejected as f64),
    ];
    if clock.rec.is_some() && acc.roots != messages as u64 {
        failures.push(format!(
            "{} message spans for {messages} messages",
            acc.roots
        ));
    }
    let layers = clock.rec.as_ref().map(|rec| acc.finish(rec));
    Rep {
        setup_s,
        build_s,
        register_us,
        measured_s: op_us.iter().sum::<f64>() / 1e6,
        op_us,
        layers,
        checked: Checked {
            ops: messages as u64,
            failures,
            exact,
        },
    }
}

/// Every outcome must decode as many concepts as it sent.
fn check(outs: &[MessageOutcome], failures: &mut Vec<String>) {
    for o in outs {
        if o.decoded.len() != o.sent.len() {
            failures.push(format!(
                "user {} decoded {} of {} concepts",
                o.user,
                o.decoded.len(),
                o.sent.len()
            ));
        }
    }
}

#[derive(Default, Clone, Copy)]
struct Sum {
    ns: u64,
    n: u64,
}

impl Sum {
    fn add(&mut self, ns: u64) {
        self.ns += ns;
        self.n += 1;
    }

    /// Mean in microseconds over `per` items (0 when none).
    fn mean_us(self, per: u64) -> f64 {
        if per == 0 {
            0.0
        } else {
            self.ns as f64 / per as f64 / 1e3
        }
    }
}

/// Per-layer time accumulated from harvested trace spans and the
/// benchmark's own spans around its calls into the system.
#[derive(Default)]
struct LayerAcc {
    /// Bench-timed send operations not yet matched against message spans.
    ops: Vec<(u64, u64)>,
    /// Bench-timed `compose_message` calls.
    compose: Sum,
    /// Total bench-timed send time, and the part of it message spans cover.
    send_ns: u64,
    covered_ns: u64,
    roots: u64,
    root_self: Sum,
    encode: Sum,
    channel: Sum,
    decode: Sum,
    sync: Sum,
    train: Sum,
    /// `train_round` time in the first and last `growth_window` messages.
    train_first: Sum,
    train_last: Sum,
    dropped: u64,
    queue_peak: f64,
}

impl LayerAcc {
    /// Moves the buffered spans out of the recorder and folds them in.
    fn harvest(&mut self, rec: &Recorder, window: u64, messages: u64) {
        let buf = rec.trace_buffer().expect("traced recorder");
        self.dropped += buf.dropped();
        let spans = buf.spans();
        buf.clear();
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        let mut roots: Vec<&TraceSpan> = Vec::new();
        for s in &spans {
            let interval = (s.start_ns, s.start_ns + s.dur_ns);
            match (s.parent, s.name) {
                (None, "message") => roots.push(s),
                (Some(parent), name) => {
                    children.entry(parent).or_default().push(interval);
                    match name {
                        "semantic_encode" => self.encode.add(s.dur_ns),
                        "channel" => self.channel.add(s.dur_ns),
                        "semantic_decode" => self.decode.add(s.dur_ns),
                        "sync_round" => self.sync.add(s.dur_ns),
                        "train_round" => {
                            self.train.add(s.dur_ns);
                            if window > 0 && s.trace < window {
                                self.train_first.add(s.dur_ns);
                            }
                            if window > 0 && s.trace >= messages.saturating_sub(window) {
                                self.train_last.add(s.dur_ns);
                            }
                        }
                        _ => {}
                    }
                }
                _ => {}
            }
        }
        let root_intervals: Vec<(u64, u64)> = roots
            .iter()
            .map(|r| (r.start_ns, r.start_ns + r.dur_ns))
            .collect();
        for r in &roots {
            let kids = children.get(&r.span).map_or(&[][..], |v| v.as_slice());
            self.root_self
                .add(stats::self_time(r.start_ns, r.start_ns + r.dur_ns, kids));
        }
        self.roots += roots.len() as u64;
        for (a, b) in self.ops.drain(..) {
            self.send_ns += b - a;
            self.covered_ns += stats::covered(a, b, &root_intervals);
        }
    }

    fn finish(self, rec: &Recorder) -> BTreeMap<&'static str, f64> {
        let snap = rec.snapshot();
        let (samples, triggers) = snap
            .events
            .iter()
            .filter_map(|e| match e.event {
                Event::TrainingTriggered { samples, .. } => Some(samples),
                _ => None,
            })
            .fold((0u64, 0u64), |(s, n), x| (s + x, n + 1));
        let counter = |name: &str| rec.counter(name).unwrap_or(0);
        let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let growth = if self.train_first.n == 0 || self.train_last.n == 0 {
            0.0
        } else {
            per(self.train_last.ns, self.train_last.n)
                / per(self.train_first.ns, self.train_first.n)
        };
        let mut m = BTreeMap::new();
        m.insert("core.msg_self_us", self.root_self.mean_us(self.roots));
        m.insert(
            "core.unattributed_pct",
            100.0 * (self.send_ns - self.covered_ns) as f64 / self.send_ns.max(1) as f64,
        );
        m.insert("text.compose_us", self.compose.mean_us(self.compose.n));
        m.insert("codec.encode_us", self.encode.mean_us(self.encode.n));
        m.insert("codec.decode_us", self.decode.mean_us(self.decode.n));
        m.insert(
            "codec.train_round_ms",
            self.train.mean_us(self.train.n) / 1e3,
        );
        m.insert("codec.train_samples_per_round", per(samples, triggers));
        m.insert("codec.train_round_growth", growth);
        m.insert("channel.transmit_us", self.channel.mean_us(self.channel.n));
        m.insert("fl.sync_round_us", self.sync.mean_us(self.sync.n));
        m.insert(
            "par.msgs_per_encode_batch",
            per(
                counter("pipeline_stage_encode"),
                counter("sched_stream_encode_batches"),
            ),
        );
        m.insert("par.queue_peak", self.queue_peak);
        m.insert("obs.spans_dropped", self.dropped as f64);
        m
    }
}
