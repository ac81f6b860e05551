//! Fixed-work benchmark of the semcom workspace.
//!
//! ```text
//! perfbench --workload <serve-train|serve-crowd|fleet-replay> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --steadiness <runs> [--workload <name>]... [--seconds <s>]
//! ```
//!
//! One run repeats its workload's fixed unit of work (a fresh system, its
//! set-up, then a fixed message or request count from `workloads.json`)
//! over a fixed set of sub-seeds derived from `--seed`, in whole cycles,
//! until `--seconds` of measured time is spent; a unit is never cut short.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, and the last line of standard output is the JSON result. Any
//! failed output check makes the exit code non-zero. See `README.md` for
//! the workload → metric → layer map.

mod fleet;
mod report;
mod serve;
mod stats;

use report::{host_probe_ms, metrics_json, Outcome, END_TO_END, PER_LAYER};
use semcom_nn::rng::derive_seed;
use semcom_obs::{parse_json, Json};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode};

/// Workload parameters, compiled in so that a run cannot pick up a stale
/// copy and a change to them rebuilds the benchmark.
const WORKLOADS: &str = include_str!("../workloads.json");

/// The benchmark contract: the default measuring time and, for steadiness
/// mode, the metric bounds.
const CONTRACT: &str = include_str!("../../BENCHMARK.json");

type Runner = fn(&Params, &Budget, bool, u64, &mut Outcome);

const RUNNERS: [(&str, Runner); 3] = [
    ("serve-train", serve::train),
    ("serve-crowd", serve::crowd),
    ("fleet-replay", fleet::replay),
];

/// One workload's entry in `workloads.json`.
pub struct Params<'a>(&'a Json);

impl Params<'_> {
    fn get(&self, key: &str) -> &Json {
        self.0
            .get(key)
            .unwrap_or_else(|| panic!("workloads.json: missing `{key}`"))
    }

    pub fn f64(&self, key: &str) -> f64 {
        self.get(key)
            .as_f64()
            .unwrap_or_else(|| panic!("workloads.json: `{key}` is not a number"))
    }

    pub fn u64(&self, key: &str) -> u64 {
        self.get(key)
            .as_u64()
            .unwrap_or_else(|| panic!("workloads.json: `{key}` is not a whole number"))
    }

    pub fn usize(&self, key: &str) -> usize {
        self.u64(key) as usize
    }
}

/// How long a run measures. A *cycle* runs one repeat on each of `seeds`
/// sub-seeds derived from the run's seed; cycles continue while fewer than
/// `min_cycles` (at least two) ran or less than `seconds` of measured time
/// is spent, up to `max_cycles`. Every sub-seed runs equally often and at least twice, so
/// a run's medians average over inputs as well as over time, and each
/// sub-seed's exact metrics can be checked against its own rerun.
pub struct Budget {
    seconds: f64,
    seeds: usize,
    min_cycles: usize,
    max_cycles: usize,
}

/// One finished repeat.
pub struct Repeat<R> {
    /// Whether a traced recorder was attached.
    pub traced: bool,
    /// The sub-seed it ran on.
    pub seed: u64,
    pub result: R,
}

/// Repeats `once(sub_seed, traced)` in cycles under `budget`. With
/// `trace`, whole cycles alternate between untraced and traced in an ABBA
/// order, so drift on the host affects both kinds alike and both cover
/// the same inputs. A repeat that panics fails all its operations and ends
/// the run. The host probe runs before and after every repeat.
pub fn repeat<R>(
    budget: &Budget,
    trace: bool,
    seed: u64,
    ops: u64,
    out: &mut Outcome,
    mut once: impl FnMut(u64, bool) -> R,
    measured_s: impl Fn(&R) -> f64,
) -> Vec<Repeat<R>> {
    let mut reps = Vec::new();
    let mut probes = Vec::new();
    let mut spent = 0.0;
    let mut cycle = 0;
    'run: while cycle < budget.max_cycles
        && (cycle < budget.min_cycles.max(2) || spent < budget.seconds)
    {
        let traced = trace && matches!(cycle % 4, 1 | 2);
        for k in 0..budget.seeds {
            let sub = derive_seed(seed, k as u64);
            probes.push(host_probe_ms());
            out.attempted += ops;
            match catch_unwind(AssertUnwindSafe(|| once(sub, traced))) {
                Ok(result) => {
                    spent += measured_s(&result);
                    reps.push(Repeat {
                        traced,
                        seed: sub,
                        result,
                    });
                }
                Err(e) => {
                    let why = e
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "panic".into());
                    out.fail(ops, format!("repeat on seed {sub} panicked: {why}"));
                    break 'run;
                }
            }
            probes.push(host_probe_ms());
        }
        cycle += 1;
    }
    out.set("host.probe_ms", stats::median(&probes));
    out.notes.push(format!(
        "host probe: first {:.3} ms, last {:.3} ms, median {:.3} ms",
        probes[0],
        probes[probes.len() - 1],
        stats::median(&probes)
    ));
    out.notes.push(format!(
        "repeats: {} in {cycle} cycles over {} sub-seeds",
        reps.len(),
        budget.seeds
    ));
    reps
}

struct Args {
    workloads: Vec<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    steadiness: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Vec::new(),
        seed: None,
        seconds: None,
        trace: false,
        steadiness: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workloads.push(value()?),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = Some(v.parse().map_err(|_| bad(&v))?);
            }
            "--trace" => {
                let v = value()?;
                args.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&v)),
                };
            }
            "--steadiness" => {
                let v = value()?;
                args.steadiness = Some(v.parse().map_err(|_| bad(&v))?);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let config = parse_json(WORKLOADS).expect("workloads.json parses");
    if let Some(runs) = args.steadiness {
        return steadiness(&args, runs);
    }
    let [name] = args.workloads.as_slice() else {
        eprintln!("perfbench: give exactly one --workload");
        return ExitCode::from(2);
    };
    let Some(&(_, runner)) = RUNNERS.iter().find(|(n, _)| n == name) else {
        eprintln!("perfbench: unknown workload {name}");
        return ExitCode::from(2);
    };
    let p = Params(
        config
            .get("workloads")
            .and_then(|w| w.get(name))
            .expect("workload listed"),
    );
    let seed = args.seed.unwrap_or_else(|| p.u64("seed"));
    // Fixed explicitly, so results compare across hosts with other core
    // counts; read once by the program's worker pool on first use.
    let threads = p.u64("threads");
    std::env::set_var("SEMCOM_THREADS", threads.to_string());
    let budget = Budget {
        seconds: args.seconds.unwrap_or_else(run_seconds),
        seeds: p.usize("sub_seeds"),
        min_cycles: p.usize("min_cycles"),
        max_cycles: p.usize("max_cycles"),
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# workload {name} seed {seed} seconds {} trace {} nproc {nproc} SEMCOM_THREADS {threads} rev {}",
        budget.seconds,
        u8::from(args.trace),
        report::git_revision()
    );

    let mut out = Outcome::default();
    runner(&p, &budget, args.trace, seed, &mut out);
    out.set("peak_rss_mb", report::peak_rss_mb());

    for note in &out.notes {
        println!("# {note}");
    }
    for (title, table) in [
        ("end-to-end", &END_TO_END[..]),
        ("per-layer", &PER_LAYER[..]),
    ] {
        println!("# {title}");
        for (metric, unit) in table {
            println!("{metric:<32} {:>16.6} {unit}", out.get(metric));
        }
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{:<32} {failed_ratio:>16.6} ratio", "failed_ratio");
    for f in &out.failures {
        println!("# FAILED: {f}");
    }
    let correct = out.failed == 0 && out.failures.is_empty();
    let table = if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics_json(&out, table)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The contract's `run_seconds`, the measuring time when none is given.
fn run_seconds() -> f64 {
    parse_json(CONTRACT)
        .ok()
        .and_then(|c| c.get("run_seconds").and_then(Json::as_f64))
        .expect("BENCHMARK.json has run_seconds")
}

/// Runs two interleaved sets of `runs` runs per workload, each run in its
/// own process on seeds `0..runs`, and prints each set's median and
/// quartiles per end-to-end metric beside the metric's bound.
fn steadiness(args: &Args, runs: usize) -> ExitCode {
    let contract = parse_json(CONTRACT).expect("BENCHMARK.json parses");
    let bounds: Vec<(String, f64)> = contract
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end list")
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string();
            (name, m.get("bound").and_then(Json::as_f64).expect("bound"))
        })
        .collect();
    let seconds = args.seconds.unwrap_or_else(run_seconds);
    let names: Vec<String> = if args.workloads.is_empty() {
        RUNNERS.iter().map(|(n, _)| n.to_string()).collect()
    } else {
        args.workloads.clone()
    };
    let exe = std::env::current_exe().expect("own executable");
    let mut ok = true;
    for name in &names {
        // sets[s][metric] = values over runs
        let mut sets = vec![vec![Vec::new(); bounds.len()]; 2];
        for i in 0..runs {
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            for set in order {
                let result = Command::new(&exe)
                    .args(["--workload", name, "--seed", &i.to_string()])
                    .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                    .output()
                    .expect("spawn benchmark run");
                let stdout = String::from_utf8_lossy(&result.stdout);
                let last = stdout.lines().last().unwrap_or("");
                let parsed = parse_json(last).ok().filter(|_| result.status.success());
                let Some(parsed) = parsed else {
                    eprintln!("{name} seed {i}: run failed\n{stdout}");
                    return ExitCode::FAILURE;
                };
                for (m, (metric, _)) in bounds.iter().enumerate() {
                    let v = parsed
                        .get("metrics")
                        .and_then(|ms| ms.get(metric))
                        .and_then(|x| x.get("value"))
                        .and_then(Json::as_f64)
                        .expect("metric in result");
                    sets[set][m].push(v);
                }
            }
        }
        println!("== {name}: {runs} runs per set, seeds 0..{runs}, {seconds} s each");
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>8} {:>6}",
            "metric", "A median", "A q1", "A q3", "A iqr%", "B median", "B iqr%", "diff%", "bound%"
        );
        for (m, (metric, bound)) in bounds.iter().enumerate() {
            let (a, b) = (&sets[0][m], &sets[1][m]);
            let (ma, mb) = (stats::median(a), stats::median(b));
            let (q1, q3) = stats::quartiles(a);
            let (sa, sb) = (stats::relative_spread(a), stats::relative_spread(b));
            let diff = (mb - ma).abs() / ma;
            let steady = diff <= *bound && (metric == "setup_s" || sa.max(sb) <= *bound);
            ok &= steady;
            println!(
                "{metric:<16} {ma:>12.4} {q1:>12.4} {q3:>12.4} {:>8.2} {mb:>12.4} {:>8.2} {:>8.2} {:>6.1}{}",
                sa * 100.0,
                sb * 100.0,
                diff * 100.0,
                bound * 100.0,
                if steady { "" } else { "  OUT OF BOUND" }
            );
        }
        for (m, (metric, _)) in bounds.iter().enumerate() {
            for (set, label) in ["A", "B"].iter().enumerate() {
                let vals: Vec<String> = sets[set][m].iter().map(|v| format!("{v:.4}")).collect();
                println!("  {metric} {label}: {}", vals.join(" "));
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_json_has_every_parameter() {
        let config = parse_json(WORKLOADS).unwrap();
        for (name, _) in RUNNERS {
            let p = Params(config.get("workloads").and_then(|w| w.get(name)).unwrap());
            for key in ["threads", "seed", "sub_seeds", "min_cycles", "max_cycles"] {
                p.u64(key);
            }
        }
    }
}
