//! Two-clock benchmark of the RAIZN reproduction: four closed-loop
//! workloads through qos → volume → parity → metadata → device, reported
//! end to end (tracing off) and layer by layer (traced). See README.md.

mod isolated;
mod probe;
mod run;
mod stats;
mod verify;
mod workload;

use run::{Metric, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Kind, Size};

/// Which clock an end-to-end metric reads: a virtual-clock or count
/// metric repeats bit for bit for a seed, a host-clock one within its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Clock {
    Virtual,
    Host,
}

/// The end-to-end metrics a timed run prints, in print order, with the
/// regression bounds `BENCHMARK.json` declares (a unit test keeps the file
/// and these tables in step): name, unit, whether higher is better, bound,
/// clock.
const END_TO_END: [(&str, &str, bool, f64, Clock); 10] = [
    ("setup_s", "s", false, 0.25, Clock::Host),
    ("virt_mib_s", "MiB/s", true, 0.08, Clock::Virtual),
    ("virt_write_p50_us", "us", false, 0.08, Clock::Virtual),
    ("virt_write_p99_us", "us", false, 0.1, Clock::Virtual),
    ("virt_read_p50_us", "us", false, 0.12, Clock::Virtual),
    ("virt_read_p99_us", "us", false, 0.15, Clock::Virtual),
    ("virt_flat_ratio", "ratio", true, 0.2, Clock::Virtual),
    ("waf", "ratio", false, 0.04, Clock::Virtual),
    ("host_kops_s", "kops/s", true, 0.25, Clock::Host),
    ("peak_rss_mib", "MiB", false, 0.08, Clock::Host),
];

/// The per-layer metrics a traced run prints, in print order: name, unit,
/// whether higher is better.
const PER_LAYER: [(&str, &str, bool); 83] = [
    ("zns.writes", "count", false),
    ("zns.reads", "count", false),
    ("zns.sectors_written", "count", false),
    ("zns.sectors_read", "count", false),
    ("zns.flushes", "count", false),
    ("zns.fua_writes", "count", false),
    ("zns.zone_resets", "count", false),
    ("zns.zone_finishes", "count", false),
    ("zns.finish_fill_sectors", "count", false),
    ("zns.implicit_closes", "count", false),
    ("zns.device_wait_ns", "count", false),
    ("core.pp_log_entries", "count", false),
    ("core.pp_log_bytes", "count", false),
    ("core.full_parity_writes", "count", true),
    ("core.q_parity_writes", "count", true),
    ("core.md_appends", "count", false),
    ("core.md_gc_runs", "count", false),
    ("core.zone_resets", "count", false),
    ("core.degraded_reads", "count", false),
    ("core.double_degraded_reads", "count", false),
    ("core.gather_writes", "count", true),
    ("core.stripe_buffers_reused", "count", true),
    ("core.transient_retries", "count", false),
    ("lsraid.user_sectors", "count", true),
    ("lsraid.migrated_sectors", "count", false),
    ("lsraid.pad_sectors", "count", false),
    ("lsraid.parity_sectors", "count", false),
    ("lsraid.group_reclaims", "count", false),
    ("lsraid.emergency_reclaims", "count", false),
    ("lsraid.groups_opened", "count", false),
    ("lsraid.meta_records", "count", false),
    ("lsraid.meta_rotations", "count", false),
    ("qos.admitted", "count", true),
    ("qos.shed", "count", false),
    ("qos.deferred", "count", false),
    ("qos.batches", "count", false),
    ("qos.merged", "count", true),
    ("obs.events_dropped", "count", false),
    ("qos.coalesce_ratio", "ratio", true),
    ("core.full_parity_share", "ratio", true),
    ("lsraid.garbage_ratio", "ratio", false),
    ("workloads.engine_self_ns_per_op", "ns", false),
    ("qos.self_ns_per_op", "ns", false),
    ("core.volume_ns_per_write", "ns", false),
    ("core.volume_ns_per_read", "ns", false),
    ("lsraid.volume_ns_per_write", "ns", false),
    ("lsraid.volume_ns_per_read", "ns", false),
    ("lsraid.gc_pump_ns_per_call", "ns", false),
    ("lsraid.gc_host_share", "ratio", false),
    ("qos.null_target_ns_per_op", "ns", false),
    ("core.stripe_fill_ns_per_stripe", "ns", false),
    ("core.md_encode_ns_per_record", "ns", false),
    ("core.layout_locate_ns", "ns", false),
    ("sim.xor_into_gib_s", "GiB/s", true),
    ("sim.gf_mul_into_gib_s", "GiB/s", true),
    ("sim.rs_solve_two_gib_s", "GiB/s", true),
    ("sim.occupy_ns_per_call", "ns", false),
    ("sim.histogram_record_ns", "ns", false),
    ("zns.write_ns_per_op_4k", "ns", false),
    ("zns.write_ns_per_op_64k", "ns", false),
    ("zns.read_ns_per_op_4k", "ns", false),
    ("zns.reset_ns_per_op", "ns", false),
    ("zns.store_write_gib_s", "GiB/s", true),
    ("zns.store_read_gib_s", "GiB/s", true),
    ("sim.xor_est_share", "ratio", false),
    ("sim.gf_est_share", "ratio", false),
    ("zns.est_share", "ratio", false),
    ("core.mount_host_ms", "ms", false),
    ("core.mount_virt_ms", "ms", false),
    ("core.rebuild_host_s", "s", false),
    ("core.rebuild_virt_mib_s", "MiB/s", true),
    ("virt.blame.queue", "ratio", false),
    ("virt.blame.lock", "ratio", false),
    ("virt.blame.device_wait", "ratio", false),
    ("virt.blame.device_service", "ratio", true),
    ("virt.blame.xor_gf", "ratio", false),
    ("virt.blame.meta", "ratio", false),
    ("virt.blame.flush", "ratio", false),
    ("virt.blame.interference_lifecycle", "ratio", false),
    ("virt.blame.interference_rebuild", "ratio", false),
    ("virt.blame.interference_gc", "ratio", false),
    ("virt.blame.other", "ratio", false),
    ("obs.trace_overhead_pct", "%", false),
];

const DEFAULT_SEED: u64 = 42;
const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: raizn-benchmark (--workload NAME | --all | --check-repeat) \
[--seed N] [--seconds S] [--trace 0|1]
  workloads: seq_full small_mixed raizn2_degraded lsraid_gc_qos
  --trace 0       end-to-end metrics, tracing off (default)
  --trace 1       per-layer metrics; writes <package dir>/out/<workload>_spans.json
  --all           every workload, both ways
  --check-repeat  every workload twice with one seed; fails unless virtual and
                  count metrics are identical and host metrics within bounds";

#[derive(Debug)]
enum Mode {
    One(Kind),
    All,
    CheckRepeat,
}

struct Args {
    mode: Mode,
    seed: u64,
    seconds: f64,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut mode = None;
    let (mut seed, mut seconds, mut traced) = (DEFAULT_SEED, DEFAULT_SECONDS, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind = Kind::from_name(name).ok_or(format!("unknown workload {name:?}"))?;
                mode = Some(Mode::One(kind));
            }
            "--all" => mode = Some(Mode::All),
            "--check-repeat" => mode = Some(Mode::CheckRepeat),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        mode: mode.ok_or("one of --workload, --all, --check-repeat is required")?,
        seed,
        seconds,
        traced,
    })
}

fn run_one(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let outcome = if traced {
        run::run_traced(kind, seed, seconds, Size::Full)
    } else {
        run::run_timed(kind, seed, seconds, Size::Full)
    }
    .map_err(|e| format!("{}: simulated stack failed: {e}", kind.name()))?;
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!(
            "{}: metric {} is not a number",
            kind.name(),
            bad.name
        ));
    }
    if let Some(json) = &outcome.spans_json {
        let dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
            .join("out");
        let path = dir.join(format!("{}_spans.json", kind.name()));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("host-clock spans -> {}", path.display());
    }
    Ok(outcome)
}

/// Whether a higher value of the named metric is better, per the tables.
fn higher_is_better(name: &str) -> Option<bool> {
    let end_to_end = END_TO_END.iter().map(|e| (e.0, e.2));
    let per_layer = PER_LAYER.iter().map(|e| (e.0, e.2));
    end_to_end
        .chain(per_layer)
        .find(|e| e.0 == name)
        .map(|e| e.1)
}

fn print_table(o: &Outcome) {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "\n## {} seed {} ({}; one driver thread, available_parallelism {threads})",
        o.kind.name(),
        o.seed,
        if o.traced {
            "traced: per-layer metrics"
        } else {
            "tracing off: end-to-end metrics"
        },
    );
    println!("why: {}", o.kind.why());
    let width = o.metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    for Metric {
        name,
        unit,
        value,
        note,
    } in &o.metrics
    {
        let better = match higher_is_better(name) {
            Some(true) => "higher is better",
            Some(false) => "lower is better",
            None => "undeclared",
        };
        println!("{name:width$}  {value:>16.4} {unit:<7} {better:<16}  {note}");
    }
    let fail_share = o.failed as f64 / o.attempted.max(1) as f64;
    println!(
        "{:width$}  {fail_share:>16.4} {:<7} {:<16}  {} failed of {} attempted (timed, traced and verify ops)",
        "fail_share", "ratio", "must be 0", o.failed, o.attempted
    );
}

/// The result line the driver reads: one JSON object, every digit kept.
fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// One run in a process of its own, so that `peak_rss_mib` is that run's
/// and not the high-water mark of whatever ran before it. Echoes the child's
/// output and returns its result line.
fn run_child(kind: Kind, seed: u64, seconds: f64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating this program: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {} run: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    match stdout.lines().last() {
        Some(line) if output.status.success() => Ok(line.to_string()),
        _ => Err(format!(
            "the {} run failed ({})",
            kind.name(),
            output.status
        )),
    }
}

/// The value of metric `name` in a result line written by [`result_json`].
fn metric_value(result_line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &result_line[result_line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// Runs every workload twice with one seed and compares the two runs.
fn check_repeat(seed: u64, seconds: f64) -> Result<bool, String> {
    let mut ok = true;
    for kind in Kind::ALL {
        let a = run_child(kind, seed, seconds, false)?;
        let b = run_child(kind, seed, seconds, false)?;
        println!("\n## {} repeat check", kind.name());
        for (name, _, higher_better, bound, clock) in END_TO_END {
            let (Some(x), Some(y)) = (metric_value(&a, name), metric_value(&b, name)) else {
                return Err(format!("metric {name} missing from a result"));
            };
            let gap = (x - y).abs() / x.abs().max(f64::MIN_POSITIVE);
            let pass = match clock {
                Clock::Virtual => x == y,
                Clock::Host => gap <= bound,
            };
            ok &= pass;
            println!(
                "{name:20} {x:>14.4} {y:>14.4}  gap {:>7.3}%  bound {:>5.1}% ({}, {} is better)  {}",
                gap * 100.0,
                bound * 100.0,
                if clock == Clock::Virtual { "must be identical" } else { "host clock" },
                if higher_better { "higher" } else { "lower" },
                if pass { "ok" } else { "FAIL" },
            );
        }
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.mode {
        Mode::One(kind) => run_one(kind, args.seed, args.seconds, args.traced).map(|o| {
            print_table(&o);
            println!("{}", result_json(&o));
            o.failed == 0
        }),
        Mode::All => Kind::ALL
            .into_iter()
            .try_for_each(|kind| {
                run_child(kind, args.seed, args.seconds, false)?;
                run_child(kind, args.seed, args.seconds, true).map(drop)
            })
            .map(|()| true),
        Mode::CheckRepeat => check_repeat(args.seed, args.seconds),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark failed: incorrect outputs or metrics outside their bounds");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn better(higher: bool) -> &'static str {
        if higher {
            "higher"
        } else {
            "lower"
        }
    }

    /// `BENCHMARK.json` as the tables above define it.
    fn benchmark_json() -> String {
        let workloads: Vec<String> = Kind::ALL
            .iter()
            .map(|k| {
                format!(
                    "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                    k.name(),
                    k.why()
                )
            })
            .collect();
        let end_to_end: Vec<String> = END_TO_END
            .iter()
            .map(|(name, unit, higher, bound, _)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\", \"bound\": {bound}}}",
                    better(*higher)
                )
            })
            .collect();
        let per_layer: Vec<String> = PER_LAYER
            .iter()
            .map(|(name, unit, higher)| {
                format!(
                    "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"}}",
                    better(*higher)
                )
            })
            .collect();
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--manifest-path\", \
             \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \
             \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
            DEFAULT_SECONDS as u64,
            workloads.join(",\n"),
            end_to_end.join(",\n"),
            per_layer.join(",\n"),
        )
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "BENCHMARK.json and the tables in main.rs disagree; the tables render as:\n{}",
            benchmark_json()
        );
        for k in Kind::ALL {
            assert!(k.why().len() <= 200 && !k.why().contains(['\n', '"']));
        }
        assert!(END_TO_END.iter().all(|e| e.3 > 0.0 && e.3 <= 0.25));
    }

    /// Every workload, both ways, at the verify pass's scale: each run is
    /// correct and prints exactly the metrics the tables declare.
    #[test]
    fn every_workload_runs_small_and_prints_the_declared_metrics() {
        for kind in Kind::ALL {
            let timed = run::run_timed(kind, 7, 0.0, Size::Small).expect("timed run");
            assert_eq!(timed.failed, 0, "{}", kind.name());
            assert!(timed.attempted > 0);
            let printed: Vec<(&str, &str)> = timed
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|e| (e.0, e.1)).collect();
            assert_eq!(printed, declared, "{}", kind.name());

            let traced = run::run_traced(kind, 7, 0.0, Size::Small).expect("traced run");
            assert_eq!(traced.failed, 0, "{}", kind.name());
            let printed: Vec<(&str, &str)> = traced
                .metrics
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|e| (e.0, e.1)).collect();
            assert_eq!(printed, declared, "{}", kind.name());
            assert!(traced.metrics.iter().all(|m| m.value.is_finite()));
            assert!(traced.spans_json.is_some_and(|j| j.contains("\"layers\"")));
        }
    }

    /// A second seed draws different random offsets and still verifies.
    #[test]
    fn the_seed_reaches_the_generators() {
        let a = run::run_timed(Kind::SeqFull, 1, 0.0, Size::Small).expect("seed 1");
        let b = run::run_timed(Kind::SeqFull, 2, 0.0, Size::Small).expect("seed 2");
        let again = run::run_timed(Kind::SeqFull, 1, 0.0, Size::Small).expect("seed 1 again");
        assert_eq!((a.failed, b.failed), (0, 0));
        // Every virtual-clock and count metric, in table order.
        let virt = |o: &Outcome| -> Vec<f64> {
            let of_clock = END_TO_END.iter().filter(|e| e.4 == Clock::Virtual);
            of_clock
                .map(|e| {
                    o.metrics
                        .iter()
                        .find(|m| m.name == e.0)
                        .expect("metric printed")
                        .value
                })
                .collect()
        };
        assert_eq!(virt(&a), virt(&again), "same seed, same virtual results");
        assert_ne!(virt(&a), virt(&b), "another seed, another op sequence");
    }

    #[test]
    fn result_line_round_trips() {
        let o = run::run_timed(Kind::SmallMixed, 3, 0.0, Size::Small).expect("timed run");
        let line = result_json(&o);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
        for m in &o.metrics {
            assert_eq!(metric_value(&line, &m.name), Some(m.value), "{}", m.name);
        }
        assert_eq!(metric_value(&line, "no_such_metric"), None);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |v: &[&str]| parse_args(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        let a = parse(&[
            "--workload",
            "seq_full",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("the driver's argument list");
        assert!(matches!(a.mode, Mode::One(Kind::SeqFull)));
        assert_eq!((a.seed, a.seconds, a.traced), (9, 3.0, true));
        assert_eq!(parse(&["--all"]).expect("defaults").seed, DEFAULT_SEED);
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "seq_full", "--trace", "2"]).is_err());
        assert!(parse(&["--all", "--seconds", "0"]).is_err());
        assert!(parse(&["--all", "--bogus"]).is_err());
    }
}
