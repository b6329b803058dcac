//! Timeline report and SLO gate.
//!
//! Loads `BENCH_*_timeline.json` artifacts, renders each run's per-window
//! throughput as an aligned ASCII timeline, renders a cross-run
//! comparison when more than one file is given (the mdraid GC collapse
//! vs RAIZN's flat band of fig 10 is visible directly in the terminal),
//! and evaluates machine-readable SLOs suitable as a regression gate in
//! `scripts/check.sh`.
//!
//! ```text
//! report [OPTIONS] [FILE...]
//!   FILE                  timeline artifact to render
//!   --expect-flat FILE    render + gate: the run holds a steady throughput
//!                         band (min/max over active windows >= --flat-min)
//!   --expect-decline FILE render + gate: throughput declines after an early
//!                         peak (post-peak trough / early peak <= --decline-max)
//!   --flat-min R          flat-band threshold (default 0.7)
//!   --decline-max R       decline threshold (default 0.6)
//!   --qos FILE            render a BENCH_qos.json artifact (per-tenant
//!                         sections) and gate its fairness/isolation SLOs
//!                         (victim p99 ratio, Jain index, weight-share
//!                         deviation, coalescer uplift)
//!   --lifecycle FILE      render a BENCH_ziggurat.json artifact (zone
//!                         lifecycle) and gate its cliff/flat/budget SLOs
//!   --lsgc FILE           render a BENCH_lsgc.json artifact (log-structured
//!                         RAID under sustained overwrite GC pressure) and
//!                         gate its WAF / pp-log / band-vs-cliff SLOs and
//!                         the absolute floor on its median MiB/s
//!   --explain FILE        render a BENCH_*_spans.json artifact (causal
//!                         blame trees): per-tenant critical-path blame
//!                         table plus ASCII waterfalls of the captured
//!                         slowest ops
//!   --interference-max P  gate every --explain file: lifecycle, rebuild
//!                         and GC interference share of attributed time
//!                         must be <= P percent (0 = off)
//!   --queue-share-max P   gate every --explain file: queue-wait share of
//!                         attributed time must be <= P percent (0 = off)
//!   --diff A B            compare two artifacts: per-stage p99 deltas
//!                         from a breakdown `stages` or timeline
//!                         `whole_run.stages` map (plus the throughput
//!                         delta for timelines), or per-tenant blame-row
//!                         deltas (mean ns/op per category) when both
//!                         sides are spans artifacts
//!   --regress-max P       gate every --diff pair: worst per-stage p99
//!                         growth and throughput drop must be <= P
//!                         percent (0 = off)
//! ```
//!
//! The thresholds of the `--qos`, `--lifecycle` and `--lsgc` gates are the
//! constants below [`LSGC_MIB_MIN`]; nothing sets them per run.
//!
//! Every SLO prints one machine-readable line
//! `SLO <check> file=<path> value=<v> threshold=<t> <PASS|FAIL>`; any FAIL
//! exits nonzero after all lines are printed.
//!
//! Analysis windows: leading and trailing zero-throughput windows are
//! trimmed (a capture may start mid-run on the virtual clock) and the
//! final active window is dropped when possible — the run usually ends
//! inside it, so its throughput over a full window underestimates.

use bench::json::Json;
use bench::BenchError;
use obs::BLAME_CATEGORIES;

const BAR_WIDTH: usize = 40;
const MAX_ROWS: usize = 50;

struct Run {
    label: String,
    path: String,
    window_secs: f64,
    total_windows: usize,
    errors: u64,
    /// `(start_s, throughput_mib_s, whole_op_p99_ns)` of every window.
    windows: Vec<(f64, f64, u64)>,
    /// Index range of the analysis windows within `windows`.
    active: std::ops::Range<usize>,
    whole_run_p99_ns: u64,
}

impl Run {
    fn active_tputs(&self) -> Vec<f64> {
        self.windows[self.active.clone()]
            .iter()
            .map(|w| w.1)
            .collect()
    }
}

fn req<'a>(v: &'a Json, key: &str, path: &str) -> bench::BenchResult<&'a Json> {
    v.get(key)
        .ok_or_else(|| BenchError::Gate(format!("{path}: missing key {key:?}")))
}

fn load(path: &str) -> bench::BenchResult<Run> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))?;
    let label = req(&doc, "name", path)?
        .as_str()
        .unwrap_or(path)
        .to_string();
    let window_ns = req(&doc, "window_ns", path)?
        .as_u64()
        .ok_or_else(|| BenchError::Gate(format!("{path}: window_ns is not an integer")))?;
    let whole_run_p99_ns = req(&doc, "whole_run", path)?
        .get("stages")
        .and_then(|s| s.get("whole_op"))
        .and_then(|s| s.get("p99_ns"))
        .and_then(Json::as_u64)
        .unwrap_or(0);

    let mut windows = Vec::new();
    let mut errors = 0u64;
    for w in req(&doc, "windows", path)?.as_arr().unwrap_or(&[]) {
        let start_s = req(w, "start_ns", path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: window start_ns is not an integer")))?
            as f64
            / 1e9;
        let tput = req(w, "throughput_mib_s", path)?
            .as_f64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: throughput_mib_s is not a number")))?;
        let p99 = w
            .get("stages")
            .and_then(|s| s.get("whole_op"))
            .and_then(|s| s.get("p99_ns"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        errors += w.get("errors").and_then(Json::as_u64).unwrap_or(0);
        windows.push((start_s, tput, p99));
    }

    let tputs: Vec<f64> = windows.iter().map(|w| w.1).collect();
    let first = tputs.iter().position(|&t| t > 0.0).unwrap_or(0);
    let active = first..first + bench::lifecycle::active_windows(&tputs).len();

    Ok(Run {
        label,
        path: path.to_string(),
        window_secs: window_ns as f64 / 1e9,
        total_windows: windows.len(),
        errors,
        windows,
        active,
        whole_run_p99_ns,
    })
}

/// One tenant row of a qos artifact's `tenants` array.
struct QosTenant {
    name: String,
    completed: u64,
    merged: u64,
}

/// A parsed `BENCH_qos.json` artifact (emitted by the `qos` binary).
struct QosRun {
    path: String,
    solo_p99_ns: u64,
    contended_p99_ns: u64,
    p99_ratio: f64,
    noisy_load: f64,
    iso_tenants: Vec<QosTenant>,
    weights: Vec<u64>,
    ops: Vec<u64>,
    jain: f64,
    max_weight_dev: f64,
    fair_tenants: Vec<QosTenant>,
    off_full_per_pp: f64,
    on_full_per_pp: f64,
    uplift: f64,
    merged: u64,
    batches: u64,
}

fn qos_tenants(section: &Json, path: &str) -> bench::BenchResult<Vec<QosTenant>> {
    let mut out = Vec::new();
    for t in req(section, "tenants", path)?.as_arr().unwrap_or(&[]) {
        let field = |k: &str| t.get(k).and_then(Json::as_u64).unwrap_or(0);
        out.push(QosTenant {
            name: t
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            completed: field("completed"),
            merged: field("merged"),
        });
    }
    Ok(out)
}

fn load_qos(path: &str) -> bench::BenchResult<QosRun> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))?;
    if req(&doc, "kind", path)?.as_str() != Some("qos") {
        return Err(BenchError::Gate(format!("{path}: not a qos artifact")));
    }
    let iso = req(&doc, "isolation", path)?;
    let fair = req(&doc, "fairness", path)?;
    let coal = req(&doc, "coalesce", path)?;
    let f64_of = |v: &Json, key: &str| -> bench::BenchResult<f64> {
        req(v, key, path)?
            .as_f64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not a number")))
    };
    let u64_of = |v: &Json, key: &str| -> bench::BenchResult<u64> {
        req(v, key, path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not an integer")))
    };
    let u64_list = |v: &Json, key: &str| -> bench::BenchResult<Vec<u64>> {
        Ok(req(v, key, path)?
            .as_arr()
            .unwrap_or(&[])
            .iter()
            .filter_map(Json::as_u64)
            .collect())
    };
    Ok(QosRun {
        path: path.to_string(),
        solo_p99_ns: u64_of(iso, "victim_solo_p99_ns")?,
        contended_p99_ns: u64_of(iso, "victim_contended_p99_ns")?,
        p99_ratio: f64_of(iso, "p99_ratio")?,
        noisy_load: f64_of(iso, "noisy_load_factor")?,
        iso_tenants: qos_tenants(iso, path)?,
        weights: u64_list(fair, "weights")?,
        ops: u64_list(fair, "ops")?,
        jain: f64_of(fair, "jain")?,
        max_weight_dev: f64_of(fair, "max_weight_dev")?,
        fair_tenants: qos_tenants(fair, path)?,
        off_full_per_pp: f64_of(req(coal, "off", path)?, "full_per_pp")?,
        on_full_per_pp: f64_of(req(coal, "on", path)?, "full_per_pp")?,
        uplift: f64_of(coal, "uplift")?,
        merged: req(coal, "on", path)?
            .get("merged")
            .and_then(Json::as_u64)
            .unwrap_or(0),
        batches: req(coal, "on", path)?
            .get("batches")
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// Floor on the log-structured run's median window throughput. A band
/// ratio alone passes at any speed; this is the speed.
const LSGC_MIB_MIN: f64 = 600.0;
/// Ceiling on the log-structured run's measured-phase write amplification.
const LSGC_WAF_MAX: f64 = 1.5;
/// Ceiling on the victim's contended p99 over its solo p99.
const QOS_P99_RATIO_MAX: f64 = 1.25;
/// Floor on the Jain fairness index of the weighted tenants.
const QOS_JAIN_MIN: f64 = 0.95;
/// Ceiling on any tenant's deviation of ops/weight from the mean share.
const QOS_SHARE_DEV_MAX: f64 = 0.10;
/// Floor on the coalescer's full-parity per pp-log uplift.
const QOS_UPLIFT_MIN: f64 = 2.0;
/// Ceiling on the unmanaged spray's post-peak trough over its early peak:
/// it must actually fall off the cliff.
const LIFECYCLE_CLIFF_MAX: f64 = 0.70;
/// Floor on the managed spray's min/max band over its active windows.
const LIFECYCLE_FLAT_MIN: f64 = 0.90;

/// The per-window throughput series of one run section.
fn windows_of(v: &Json, path: &str) -> bench::BenchResult<Vec<f64>> {
    Ok(req(v, "windows_mib_s", path)?
        .as_arr()
        .unwrap_or(&[])
        .iter()
        .filter_map(Json::as_f64)
        .collect())
}

struct LsgcRun {
    path: String,
    median_mib_s: f64,
    flat_ratio: f64,
    cliff_ratio: f64,
    waf: f64,
    pp_log_writes: u64,
    group_reclaims: u64,
    emergency_reclaims: u64,
    migrated_sectors: u64,
}

/// Parses a `kind: "lsgc"` summary document (see the `lsgc` binary).
fn lsgc_from_doc(doc: &Json, path: &str) -> bench::BenchResult<LsgcRun> {
    if req(doc, "kind", path)?.as_str() != Some("lsgc") {
        return Err(BenchError::Gate(format!("{path}: not an lsgc artifact")));
    }
    let ls = req(doc, "lsraid", path)?;
    let md = req(doc, "mdraid", path)?;
    let f64_of = |v: &Json, key: &str| -> bench::BenchResult<f64> {
        req(v, key, path)?
            .as_f64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not a number")))
    };
    let u64_of = |v: &Json, key: &str| -> bench::BenchResult<u64> {
        req(v, key, path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not an integer")))
    };
    Ok(LsgcRun {
        path: path.to_string(),
        median_mib_s: bench::lifecycle::median_active(&windows_of(ls, path)?),
        flat_ratio: f64_of(ls, "flat_ratio")?,
        cliff_ratio: f64_of(md, "cliff_ratio")?,
        waf: f64_of(ls, "waf")?,
        pp_log_writes: u64_of(ls, "pp_log_writes")?,
        group_reclaims: u64_of(ls, "group_reclaims")?,
        emergency_reclaims: u64_of(ls, "emergency_reclaims")?,
        migrated_sectors: u64_of(ls, "migrated_sectors")?,
    })
}

fn load_lsgc(path: &str) -> bench::BenchResult<LsgcRun> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))?;
    lsgc_from_doc(&doc, path)
}

fn render_lsgc(g: &LsgcRun) {
    println!("\n## lsgc ({})", g.path);
    println!(
        "   lsraid: median {:.0} MiB/s, band {:.3}, WAF {:.3}, {} reclaims ({} emergency), \
         {} sectors migrated, {} pp-log writes",
        g.median_mib_s,
        g.flat_ratio,
        g.waf,
        g.group_reclaims,
        g.emergency_reclaims,
        g.migrated_sectors,
        g.pp_log_writes,
    );
    println!("   mdraid: cliff {:.3}", g.cliff_ratio);
}

struct LifecycleRun {
    path: String,
    cliff_ratio: f64,
    flat_ratio: f64,
    mgr_fg_reclaims: u64,
    active_limit: u64,
    max_active_mgr: u64,
    max_active_nomgr: u64,
    mgmt_finishes: u64,
    mgmt_resets: u64,
    sched_mgmt_ops: u64,
    mgmt_io_share: f64,
    nomgr_windows: Vec<f64>,
    mgr_windows: Vec<f64>,
}

fn load_lifecycle(path: &str) -> bench::BenchResult<LifecycleRun> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))?;
    if req(&doc, "kind", path)?.as_str() != Some("lifecycle") {
        return Err(BenchError::Gate(format!(
            "{path}: not a lifecycle artifact"
        )));
    }
    let nomgr = req(&doc, "nomgr", path)?;
    let mgr = req(&doc, "mgr", path)?;
    let f64_of = |v: &Json, key: &str| -> bench::BenchResult<f64> {
        req(v, key, path)?
            .as_f64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not a number")))
    };
    let u64_of = |v: &Json, key: &str| -> bench::BenchResult<u64> {
        req(v, key, path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not an integer")))
    };
    Ok(LifecycleRun {
        path: path.to_string(),
        cliff_ratio: f64_of(nomgr, "cliff_ratio")?,
        flat_ratio: f64_of(mgr, "flat_ratio")?,
        mgr_fg_reclaims: u64_of(mgr, "foreground_reclaims")?,
        active_limit: u64_of(&doc, "active_limit")?,
        max_active_mgr: u64_of(mgr, "max_active_seen")?,
        max_active_nomgr: u64_of(nomgr, "max_active_seen")?,
        mgmt_finishes: u64_of(mgr, "mgmt_finishes")?,
        mgmt_resets: u64_of(mgr, "mgmt_resets")?,
        sched_mgmt_ops: u64_of(mgr, "sched_mgmt_ops")?,
        mgmt_io_share: f64_of(mgr, "mgmt_io_share")?,
        nomgr_windows: windows_of(nomgr, path)?,
        mgr_windows: windows_of(mgr, path)?,
    })
}

fn render_lifecycle(l: &LifecycleRun) {
    println!("\n## lifecycle ({})", l.path);
    let max = l
        .nomgr_windows
        .iter()
        .chain(l.mgr_windows.iter())
        .cloned()
        .fold(0.0f64, f64::max);
    for (name, windows, ratio, label) in [
        ("nomgr", &l.nomgr_windows, l.cliff_ratio, "cliff"),
        ("mgr", &l.mgr_windows, l.flat_ratio, "flat"),
    ] {
        println!("   {name} ({label} {ratio:.3}):");
        for w in resample(windows, 12) {
            println!("     {:>8.0} MiB/s |{}", w, bar(w, max, 40));
        }
    }
    println!(
        "   manager: {} finishes, {} resets, {} scheduler-dispatched mgmt ops, \
         {:.1}% of device writes; active zones mgr {}/{} nomgr {}/{}; \
         mgr foreground reclaims {}",
        l.mgmt_finishes,
        l.mgmt_resets,
        l.sched_mgmt_ops,
        l.mgmt_io_share * 100.0,
        l.max_active_mgr,
        l.active_limit,
        l.max_active_nomgr,
        l.active_limit,
        l.mgr_fg_reclaims,
    );
}

/// The lifecycle SLO set: `(name, value, threshold, pass)` per gate.
///
/// - `lifecycle_cliff`: the unmanaged run must actually show the cliff
///   (post-peak trough <= [`LIFECYCLE_CLIFF_MAX`] of the early peak) —
///   it is the regression oracle proving the cost model bites.
/// - `lifecycle_flat`: the managed run holds >= [`LIFECYCLE_FLAT_MIN`] of
///   its best window across the whole band.
/// - `lifecycle_fg_reclaims`: the manager keeps the foreground reclaim
///   path completely idle.
/// - `lifecycle_budget`: no run ever exceeds the device active-zone
///   budget.
/// - `lifecycle_mgmt_ops`: management IO went through the scheduler
///   (attribution is part of the contract, not a side effect).
fn lifecycle_slos(l: &LifecycleRun) -> Vec<(&'static str, f64, f64, bool)> {
    let max_active = l.max_active_mgr.max(l.max_active_nomgr) as f64;
    vec![
        (
            "lifecycle_cliff",
            l.cliff_ratio,
            LIFECYCLE_CLIFF_MAX,
            l.cliff_ratio <= LIFECYCLE_CLIFF_MAX,
        ),
        (
            "lifecycle_flat",
            l.flat_ratio,
            LIFECYCLE_FLAT_MIN,
            l.flat_ratio >= LIFECYCLE_FLAT_MIN,
        ),
        (
            "lifecycle_fg_reclaims",
            l.mgr_fg_reclaims as f64,
            0.0,
            l.mgr_fg_reclaims == 0,
        ),
        (
            "lifecycle_budget",
            max_active,
            l.active_limit as f64,
            max_active <= l.active_limit as f64,
        ),
        (
            "lifecycle_mgmt_ops",
            l.sched_mgmt_ops as f64,
            1.0,
            l.sched_mgmt_ops >= 1,
        ),
    ]
}

const WATERFALL_WIDTH: usize = 44;
const WATERFALL_MAX_LINES: usize = 24;

/// One per-tenant row of a spans artifact's `blame` table.
struct BlameRow {
    tenant: String,
    count: u64,
    total_ns: u64,
    segments: [u64; BLAME_CATEGORIES.len()],
}

/// One event of a captured slow op's blame tree.
struct SpanEvent {
    stage: String,
    /// Interference attribution (empty when the op only waited on itself).
    blame: String,
    start_ns: u64,
    end_ns: u64,
}

/// One tail-sampled slow op with its exclusive segments and event tree.
struct SlowOp {
    latency_ns: u64,
    op: String,
    tenant: String,
    start_ns: u64,
    end_ns: u64,
    truncated: u64,
    events: Vec<SpanEvent>,
}

/// A parsed `BENCH_*_spans.json` artifact (causal span blame trees).
struct SpanRun {
    path: String,
    name: String,
    threshold_ns: u64,
    roots: u64,
    orphans: u64,
    truncated: u64,
    blame: Vec<BlameRow>,
    slow: Vec<SlowOp>,
}

impl SpanRun {
    /// Percent of all attributed op time spent in `cats`, summed across
    /// tenants; NaN when the artifact attributed no time at all (so a
    /// gate on it fails loudly rather than vacuously passing).
    fn share_pct(&self, cats: &[&str]) -> f64 {
        let mut total = 0u64;
        let mut part = 0u64;
        for row in &self.blame {
            total += row.total_ns;
            for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
                if cats.contains(name) {
                    part += row.segments[k];
                }
            }
        }
        if total == 0 {
            f64::NAN
        } else {
            part as f64 / total as f64 * 100.0
        }
    }
}

fn segments_of(v: &Json, path: &str) -> bench::BenchResult<[u64; BLAME_CATEGORIES.len()]> {
    let seg = req(v, "segments", path)?;
    let mut out = [0u64; BLAME_CATEGORIES.len()];
    for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
        out[k] = seg
            .get(&format!("{name}_ns"))
            .and_then(Json::as_u64)
            .ok_or_else(|| BenchError::Gate(format!("{path}: segments missing {name}_ns")))?;
    }
    Ok(out)
}

fn load_spans(path: &str) -> bench::BenchResult<SpanRun> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))?;
    if req(&doc, "kind", path)?.as_str() != Some("spans") {
        return Err(BenchError::Gate(format!("{path}: not a spans artifact")));
    }
    let u64_of = |v: &Json, key: &str| -> bench::BenchResult<u64> {
        req(v, key, path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not an integer")))
    };
    let str_of = |v: &Json, key: &str| -> bench::BenchResult<String> {
        Ok(req(v, key, path)?
            .as_str()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {key} is not a string")))?
            .to_string())
    };
    let mut blame = Vec::new();
    for row in req(&doc, "blame", path)?.as_arr().unwrap_or(&[]) {
        blame.push(BlameRow {
            tenant: str_of(row, "tenant")?,
            count: u64_of(row, "count")?,
            total_ns: u64_of(row, "total_ns")?,
            segments: segments_of(row, path)?,
        });
    }
    let mut slow = Vec::new();
    for op in req(&doc, "slow_ops", path)?.as_arr().unwrap_or(&[]) {
        let mut events = Vec::new();
        for ev in req(op, "events", path)?.as_arr().unwrap_or(&[]) {
            events.push(SpanEvent {
                stage: str_of(ev, "stage")?,
                blame: ev
                    .get("blame")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                start_ns: u64_of(ev, "start_ns")?,
                end_ns: u64_of(ev, "end_ns")?,
            });
        }
        slow.push(SlowOp {
            latency_ns: u64_of(op, "latency_ns")?,
            op: str_of(op, "op")?,
            tenant: str_of(op, "tenant")?,
            start_ns: u64_of(op, "start_ns")?,
            end_ns: u64_of(op, "end_ns")?,
            truncated: u64_of(op, "truncated_events")?,
            events,
        });
    }
    Ok(SpanRun {
        path: path.to_string(),
        name: str_of(&doc, "name")?,
        threshold_ns: u64_of(&doc, "threshold_ns")?,
        roots: u64_of(&doc, "roots")?,
        orphans: u64_of(&doc, "orphan_events")?,
        truncated: u64_of(&doc, "truncated_events")?,
        blame,
        slow,
    })
}

fn render_spans(s: &SpanRun) {
    println!("\n## spans ({} from {})", s.name, s.path);
    println!(
        "   {} roots, {} orphan events, {} truncated events, slow-op threshold {}",
        s.roots,
        s.orphans,
        s.truncated,
        fmt_dur(s.threshold_ns),
    );
    let total: u64 = s.blame.iter().map(|r| r.total_ns).sum();
    println!(
        "   blame (exclusive critical-path attribution, {} total):",
        fmt_dur(total)
    );
    for row in &s.blame {
        println!(
            "   tenant {:<6} {:>7} ops  {:>12}",
            row.tenant,
            row.count,
            fmt_dur(row.total_ns)
        );
        for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
            if row.segments[k] == 0 {
                continue;
            }
            println!(
                "     {:<24} {:>6.2}%  {:>12}",
                name,
                row.segments[k] as f64 / row.total_ns.max(1) as f64 * 100.0,
                fmt_dur(row.segments[k])
            );
        }
    }
    // Waterfalls, slowest first. Zero-width events (lock-acquisition
    // markers) render as a single `|` tick at their instant.
    let mut slow: Vec<&SlowOp> = s.slow.iter().collect();
    slow.sort_by_key(|op| std::cmp::Reverse(op.latency_ns));
    for op in slow {
        println!(
            "   slow {} {} (tenant {}, {} events{})",
            op.op,
            fmt_dur(op.latency_ns),
            op.tenant,
            op.events.len(),
            if op.truncated > 0 {
                format!(", {} truncated", op.truncated)
            } else {
                String::new()
            },
        );
        let dur = (op.end_ns.saturating_sub(op.start_ns)).max(1) as u128;
        let mut events: Vec<&SpanEvent> = op.events.iter().collect();
        events.sort_by_key(|e| (e.start_ns, e.end_ns));
        for (i, ev) in events.iter().enumerate() {
            if i == WATERFALL_MAX_LINES {
                println!("     ... (+{} more events)", events.len() - i);
                break;
            }
            let off = (ev.start_ns.saturating_sub(op.start_ns) as u128 * WATERFALL_WIDTH as u128
                / dur) as usize;
            let off = off.min(WATERFALL_WIDTH - 1);
            let ev_dur = ev.end_ns.saturating_sub(ev.start_ns);
            let (mark, len) = if ev_dur == 0 {
                ("|", 1)
            } else {
                let len = (ev_dur as u128 * WATERFALL_WIDTH as u128 / dur) as usize;
                ("#", len.clamp(1, WATERFALL_WIDTH - off))
            };
            let label = if ev.blame.is_empty() {
                ev.stage.clone()
            } else {
                format!("{} [{}]", ev.stage, ev.blame)
            };
            println!(
                "     {:<28} |{:<width$}| {:>10}",
                label,
                format!("{}{}", " ".repeat(off), mark.repeat(len)),
                fmt_dur(ev_dur),
                width = WATERFALL_WIDTH
            );
        }
    }
}

/// One side of a `--diff` comparison: any artifact carrying a per-stage
/// latency map (`stages` in a breakdown, `whole_run.stages` in a
/// timeline).
struct DiffSide {
    path: String,
    /// `(stage, p99_ns)` in the artifact's (sorted) key order — or, for
    /// a spans artifact, `(tenant:category, mean ns/op)` blame rows.
    stages: Vec<(String, u64)>,
    /// Mean active-window throughput when the artifact is a timeline.
    tput_mib_s: Option<f64>,
}

fn load_diff(path: &str) -> bench::BenchResult<DiffSide> {
    let text = std::fs::read_to_string(path)?;
    let doc =
        Json::parse(&text).map_err(|e| BenchError::Gate(format!("{path}: invalid JSON: {e}")))?;
    if doc.get("kind").and_then(Json::as_str) == Some("spans") {
        return spans_diff_side(&doc, path);
    }
    let stage_map = doc
        .get("stages")
        .or_else(|| doc.get("whole_run").and_then(|w| w.get("stages")))
        .and_then(Json::as_obj)
        .ok_or_else(|| {
            BenchError::Gate(format!(
                "{path}: no per-stage map (expected a breakdown or timeline artifact)"
            ))
        })?;
    let mut stages = Vec::new();
    for (name, st) in stage_map {
        let p99 = req(st, "p99_ns", path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: {name}.p99_ns is not an integer")))?;
        stages.push((name.clone(), p99));
    }
    let mut tput_mib_s = None;
    if let Some(ws) = doc.get("windows").and_then(Json::as_arr) {
        let active: Vec<f64> = ws
            .iter()
            .filter_map(|w| w.get("throughput_mib_s").and_then(Json::as_f64))
            .filter(|t| *t > 0.0)
            .collect();
        if !active.is_empty() {
            tput_mib_s = Some(active.iter().sum::<f64>() / active.len() as f64);
        }
    }
    Ok(DiffSide {
        path: path.to_string(),
        stages,
        tput_mib_s,
    })
}

/// Diffs a spans artifact by its blame table: every (tenant, category)
/// pair with attributed time becomes a comparable entry valued at its
/// mean per-op nanoseconds (per-op so runs of different length compare),
/// which puts GC-interference regressions under the same worst-growth
/// gate as stage p99s.
fn spans_diff_side(doc: &Json, path: &str) -> bench::BenchResult<DiffSide> {
    let mut stages = Vec::new();
    for row in req(doc, "blame", path)?.as_arr().unwrap_or(&[]) {
        let tenant = req(row, "tenant", path)?
            .as_str()
            .ok_or_else(|| BenchError::Gate(format!("{path}: blame tenant is not a string")))?
            .to_string();
        let count = req(row, "count", path)?
            .as_u64()
            .ok_or_else(|| BenchError::Gate(format!("{path}: blame count is not an integer")))?;
        if count == 0 {
            continue;
        }
        let segments = segments_of(row, path)?;
        for (k, name) in BLAME_CATEGORIES.iter().enumerate() {
            if segments[k] > 0 {
                stages.push((format!("{tenant}:{name}"), segments[k] / count));
            }
        }
    }
    Ok(DiffSide {
        path: path.to_string(),
        stages,
        tput_mib_s: None,
    })
}

/// Worst per-stage p99 growth from `a` to `b` in percent (negative =
/// improvement everywhere). Stages missing on either side or with a zero
/// baseline are skipped; `None` when nothing is comparable.
fn worst_p99_growth(a: &DiffSide, b: &DiffSide) -> Option<f64> {
    let mut worst: Option<f64> = None;
    for (name, ap) in &a.stages {
        let Some((_, bp)) = b.stages.iter().find(|(n, _)| n == name) else {
            continue;
        };
        if *ap == 0 {
            continue;
        }
        let growth = (*bp as f64 - *ap as f64) / *ap as f64 * 100.0;
        worst = Some(worst.map_or(growth, |w| w.max(growth)));
    }
    worst
}

fn render_diff(a: &DiffSide, b: &DiffSide) {
    println!("\n## diff ({} -> {})", a.path, b.path);
    println!(
        "   {:<24} {:>12} {:>12} {:>8}",
        "stage p99", "baseline", "candidate", "delta"
    );
    for (name, ap) in &a.stages {
        match b.stages.iter().find(|(n, _)| n == name) {
            Some((_, bp)) => {
                let delta = if *ap > 0 {
                    format!("{:+.1}%", (*bp as f64 - *ap as f64) / *ap as f64 * 100.0)
                } else {
                    "-".to_string()
                };
                println!(
                    "   {:<24} {:>12} {:>12} {:>8}",
                    name,
                    fmt_dur(*ap),
                    fmt_dur(*bp),
                    delta
                );
            }
            None => println!(
                "   {:<24} {:>12} {:>12} {:>8}",
                name,
                fmt_dur(*ap),
                "-",
                "-"
            ),
        }
    }
    for (name, bp) in &b.stages {
        if !a.stages.iter().any(|(n, _)| n == name) {
            println!(
                "   {:<24} {:>12} {:>12} {:>8}",
                name,
                "-",
                fmt_dur(*bp),
                "-"
            );
        }
    }
    if let (Some(ta), Some(tb)) = (a.tput_mib_s, b.tput_mib_s) {
        println!(
            "   throughput {:.0} -> {:.0} MiB/s ({:+.1}%)",
            ta,
            tb,
            (tb - ta) / ta * 100.0
        );
    }
}

fn render_qos(q: &QosRun) {
    println!("\n## qos ({})", q.path);
    println!(
        "   isolation: victim p99 {} solo -> {} beside a {:.1}x noisy neighbor (ratio {:.3})",
        fmt_ms(q.solo_p99_ns),
        fmt_ms(q.contended_p99_ns),
        q.noisy_load,
        q.p99_ratio,
    );
    let tenant_rows = |tenants: &[QosTenant]| {
        for t in tenants {
            println!(
                "     {:<10} completed {:>7}  merged {:>5}",
                t.name, t.completed, t.merged
            );
        }
    };
    tenant_rows(&q.iso_tenants);
    println!(
        "   fairness: weights {:?}, ops {:?}, jain {:.4}, max weight deviation {:.3}",
        q.weights, q.ops, q.jain, q.max_weight_dev
    );
    tenant_rows(&q.fair_tenants);
    println!(
        "   coalesce: full-parity/pp-log {:.3} off -> {:.3} on ({:.1}x, {} ops merged into {} batches)",
        q.off_full_per_pp, q.on_full_per_pp, q.uplift, q.merged, q.batches
    );
}

/// Averages `values` down to at most `buckets` entries, preserving order.
fn resample(values: &[f64], buckets: usize) -> Vec<f64> {
    if values.len() <= buckets {
        return values.to_vec();
    }
    (0..buckets)
        .map(|b| {
            let lo = b * values.len() / buckets;
            let hi = ((b + 1) * values.len() / buckets).max(lo + 1);
            values[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max > 0.0 {
        ((value / max) * width as f64).round() as usize
    } else {
        0
    };
    "#".repeat(n.min(width))
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1} ms", ns as f64 / 1e6)
}

/// Duration with an auto-picked unit: span events range from sub-µs lock
/// marks to multi-ms whole ops, so a fixed ms scale would flatten most of
/// them to 0.0.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.1} us", ns as f64 / 1e3)
    }
}

fn render(run: &Run) {
    println!(
        "\n## {} ({})\n   window {:.0} ms, {} windows ({} active), errors {}, whole-run p99 {}",
        run.label,
        run.path,
        run.window_secs * 1e3,
        run.total_windows,
        run.active.len(),
        run.errors,
        fmt_ms(run.whole_run_p99_ns),
    );
    let tputs = run.active_tputs();
    if tputs.is_empty() {
        println!("   (no active windows)");
        return;
    }
    let rows = resample(&tputs, MAX_ROWS);
    let max = rows.iter().cloned().fold(0.0f64, f64::max);
    let t0 = run.windows[run.active.start].0;
    let step = tputs.len() as f64 * run.window_secs / rows.len() as f64;
    println!("   t(s)    MiB/s");
    for (i, v) in rows.iter().enumerate() {
        println!(
            "   {:>6.2} {:>7.0} |{}",
            t0 + i as f64 * step,
            v,
            bar(*v, max, BAR_WIDTH)
        );
    }
}

/// Side-by-side timelines aligned at each run's first active window, on a
/// shared scale — a collapsing run visibly empties next to a flat one.
fn render_comparison(runs: &[&Run]) {
    let series: Vec<(&str, Vec<f64>)> = runs
        .iter()
        .map(|r| (r.label.as_str(), r.active_tputs()))
        .collect();
    let rows = series.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    if rows == 0 || runs.len() < 2 {
        return;
    }
    let buckets = rows.min(MAX_ROWS);
    let resampled: Vec<Vec<f64>> = series.iter().map(|(_, v)| resample(v, buckets)).collect();
    let max = resampled.iter().flatten().cloned().fold(0.0f64, f64::max);
    let col = BAR_WIDTH / 2 + 9;
    println!("\n## comparison (aligned at first active window, shared scale)");
    print!("   rel(s) ");
    for (label, _) in &series {
        print!("| {label:<col$} ");
    }
    println!();
    let step = rows as f64 * runs[0].window_secs / buckets as f64;
    for i in 0..buckets {
        print!("   {:>6.2} ", i as f64 * step);
        for r in &resampled {
            match r.get(i) {
                Some(v) => {
                    let cell = format!("{:>6.0} {}", v, bar(*v, max, BAR_WIDTH / 2));
                    print!("| {cell:<col$} ");
                }
                None => print!("| {:<col$} ", ""),
            }
        }
        println!();
    }
}

enum Check {
    /// min/max over active windows must be >= threshold.
    Flat,
    /// post-peak trough over early peak must be <= threshold.
    Decline,
}

impl Check {
    fn name(&self) -> &'static str {
        match self {
            Check::Flat => "flat",
            Check::Decline => "decline",
        }
    }

    /// Returns `(value, pass)`; `None` when the run has too few windows.
    fn evaluate(&self, run: &Run, threshold: f64) -> Option<(f64, bool)> {
        let tputs: Vec<f64> = run.windows.iter().map(|w| w.1).collect();
        match self {
            Check::Flat => bench::lifecycle::flat_ratio(&tputs).map(|r| (r, r >= threshold)),
            Check::Decline => bench::lifecycle::cliff_ratio(&tputs).map(|r| (r, r <= threshold)),
        }
    }
}

fn usage() -> BenchError {
    BenchError::Gate(
        "usage: report [--expect-flat FILE] [--expect-decline FILE] \
         [--flat-min R] [--decline-max R] [--qos FILE] [--lifecycle FILE] \
         [--lsgc FILE] [--explain FILE] [--interference-max P] \
         [--queue-share-max P] [--diff A B] [--regress-max P] [FILE...]"
            .to_string(),
    )
}

fn main() -> bench::BenchResult {
    let mut files: Vec<(String, Option<Check>)> = Vec::new();
    let mut qos_files: Vec<String> = Vec::new();
    let mut flat_min = 0.7f64;
    let mut decline_max = 0.6f64;
    let mut lifecycle_files: Vec<String> = Vec::new();
    let mut lsgc_files: Vec<String> = Vec::new();
    let mut explain_files: Vec<String> = Vec::new();
    let mut interference_max = 0.0f64;
    let mut queue_share_max = 0.0f64;
    let mut diff_pairs: Vec<(String, String)> = Vec::new();
    let mut regress_max = 0.0f64;
    let mut args = bench::cli_args().into_iter();
    while let Some(a) = args.next() {
        let numeric = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(usage)
        };
        match a.as_str() {
            "--expect-flat" => files.push((args.next().ok_or_else(usage)?, Some(Check::Flat))),
            "--expect-decline" => {
                files.push((args.next().ok_or_else(usage)?, Some(Check::Decline)));
            }
            "--flat-min" => flat_min = numeric(&mut args)?,
            "--decline-max" => decline_max = numeric(&mut args)?,
            "--qos" => qos_files.push(args.next().ok_or_else(usage)?),
            "--lifecycle" => lifecycle_files.push(args.next().ok_or_else(usage)?),
            "--lsgc" => lsgc_files.push(args.next().ok_or_else(usage)?),
            "--explain" => explain_files.push(args.next().ok_or_else(usage)?),
            "--interference-max" => interference_max = numeric(&mut args)?,
            "--queue-share-max" => queue_share_max = numeric(&mut args)?,
            "--diff" => {
                let a = args.next().ok_or_else(usage)?;
                let b = args.next().ok_or_else(usage)?;
                diff_pairs.push((a, b));
            }
            "--regress-max" => regress_max = numeric(&mut args)?,
            f if !f.starts_with("--") => files.push((f.to_string(), None)),
            _ => return Err(usage()),
        }
    }
    if files.is_empty()
        && qos_files.is_empty()
        && lifecycle_files.is_empty()
        && lsgc_files.is_empty()
        && explain_files.is_empty()
        && diff_pairs.is_empty()
    {
        return Err(usage());
    }

    let runs: Vec<(Run, Option<Check>)> = files
        .into_iter()
        .map(|(path, check)| load(&path).map(|r| (r, check)))
        .collect::<bench::BenchResult<_>>()?;
    let qos_runs: Vec<QosRun> = qos_files
        .iter()
        .map(|path| load_qos(path))
        .collect::<bench::BenchResult<_>>()?;
    let lifecycle_runs: Vec<LifecycleRun> = lifecycle_files
        .iter()
        .map(|path| load_lifecycle(path))
        .collect::<bench::BenchResult<_>>()?;
    let lsgc_runs: Vec<LsgcRun> = lsgc_files
        .iter()
        .map(|path| load_lsgc(path))
        .collect::<bench::BenchResult<_>>()?;
    let span_runs: Vec<SpanRun> = explain_files
        .iter()
        .map(|path| load_spans(path))
        .collect::<bench::BenchResult<_>>()?;
    let diffs: Vec<(DiffSide, DiffSide)> = diff_pairs
        .iter()
        .map(|(a, b)| Ok((load_diff(a)?, load_diff(b)?)))
        .collect::<bench::BenchResult<_>>()?;

    for (run, _) in &runs {
        render(run);
    }
    if runs.len() >= 2 {
        render_comparison(&runs.iter().map(|(r, _)| r).collect::<Vec<_>>());
    }
    for q in &qos_runs {
        render_qos(q);
    }
    for g in &lsgc_runs {
        render_lsgc(g);
    }
    for l in &lifecycle_runs {
        render_lifecycle(l);
    }
    for s in &span_runs {
        render_spans(s);
    }
    for (a, b) in &diffs {
        render_diff(a, b);
    }

    println!();
    let mut failures = Vec::new();
    let mut slo = |name: &str, path: &str, value: f64, threshold: f64, pass: bool| {
        let verdict = if pass { "PASS" } else { "FAIL" };
        if !pass {
            failures.push(format!(
                "{name} on {path}: value {value:.3} vs threshold {threshold}"
            ));
        }
        println!("SLO {name} file={path} value={value:.3} threshold={threshold} {verdict}");
    };
    for (run, check) in &runs {
        let (check, threshold) = match check {
            Some(c @ Check::Flat) => (c, flat_min),
            Some(c @ Check::Decline) => (c, decline_max),
            None => continue,
        };
        // Too few active windows to evaluate reads as NaN and fails.
        let (value, pass) = check.evaluate(run, threshold).unwrap_or((f64::NAN, false));
        slo(check.name(), &run.path, value, threshold, pass);
    }
    for q in &qos_runs {
        slo(
            "qos_isolation_p99_ratio",
            &q.path,
            q.p99_ratio,
            QOS_P99_RATIO_MAX,
            q.p99_ratio <= QOS_P99_RATIO_MAX,
        );
        slo(
            "qos_fairness_jain",
            &q.path,
            q.jain,
            QOS_JAIN_MIN,
            q.jain >= QOS_JAIN_MIN,
        );
        slo(
            "qos_weight_share_dev",
            &q.path,
            q.max_weight_dev,
            QOS_SHARE_DEV_MAX,
            q.max_weight_dev <= QOS_SHARE_DEV_MAX,
        );
        slo(
            "qos_coalesce_uplift",
            &q.path,
            q.uplift,
            QOS_UPLIFT_MIN,
            q.uplift >= QOS_UPLIFT_MIN,
        );
    }

    for l in &lifecycle_runs {
        for (name, value, threshold, pass) in lifecycle_slos(l) {
            slo(name, &l.path, value, threshold, pass);
        }
    }

    // Log-structured GC gates: WAF ceiling, the structural zero-pp-log
    // claim (full-stripe appends never take the partial-parity path),
    // the scenario's reason to exist — the log-structured band must
    // beat the mdraid cliff it is contrasted against — and an absolute
    // throughput floor, because a flat band says nothing about its level.
    for g in &lsgc_runs {
        slo(
            "lsgc_median_mib_s",
            &g.path,
            g.median_mib_s,
            LSGC_MIB_MIN,
            g.median_mib_s >= LSGC_MIB_MIN,
        );
        slo(
            "lsgc_waf",
            &g.path,
            g.waf,
            LSGC_WAF_MAX,
            g.waf <= LSGC_WAF_MAX,
        );
        #[allow(clippy::cast_precision_loss)]
        slo(
            "lsgc_pp_log_writes",
            &g.path,
            g.pp_log_writes as f64,
            0.0,
            g.pp_log_writes == 0,
        );
        slo(
            "lsgc_band_vs_cliff",
            &g.path,
            g.flat_ratio,
            g.cliff_ratio,
            g.flat_ratio > g.cliff_ratio,
        );
    }

    // Span-blame gates: shares are NaN when the artifact attributed no
    // time, which fails the comparison — a dead tracer cannot pass.
    for s in &span_runs {
        if interference_max > 0.0 {
            let v = s.share_pct(&[
                "interference_lifecycle",
                "interference_rebuild",
                "interference_gc",
            ]);
            slo(
                "spans_interference_share",
                &s.path,
                v,
                interference_max,
                v <= interference_max,
            );
        }
        if queue_share_max > 0.0 {
            let v = s.share_pct(&["queue"]);
            slo(
                "spans_queue_share",
                &s.path,
                v,
                queue_share_max,
                v <= queue_share_max,
            );
        }
    }

    for (a, b) in &diffs {
        if regress_max > 0.0 {
            let worst = worst_p99_growth(a, b);
            slo(
                "diff_p99_regress",
                &b.path,
                worst.unwrap_or(f64::NAN),
                regress_max,
                worst.is_some_and(|v| v <= regress_max),
            );
            if let (Some(ta), Some(tb)) = (a.tput_mib_s, b.tput_mib_s) {
                let drop_pct = (ta - tb) / ta * 100.0;
                slo(
                    "diff_tput_regress",
                    &b.path,
                    drop_pct,
                    regress_max,
                    drop_pct <= regress_max,
                );
            }
        }
    }

    if failures.is_empty() {
        Ok(())
    } else {
        Err(BenchError::Gate(failures.join("; ")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn healthy() -> LifecycleRun {
        LifecycleRun {
            path: "BENCH_ziggurat.json".into(),
            cliff_ratio: 0.59,
            flat_ratio: 0.97,
            mgr_fg_reclaims: 0,
            active_limit: 9,
            max_active_mgr: 4,
            max_active_nomgr: 9,
            mgmt_finishes: 39,
            mgmt_resets: 8,
            sched_mgmt_ops: 82,
            mgmt_io_share: 0.14,
            nomgr_windows: vec![1865.0, 1865.0, 1100.0, 1100.0],
            mgr_windows: vec![1865.0, 1860.0, 1865.0, 1862.0],
        }
    }

    fn verdict(slos: &[(&'static str, f64, f64, bool)], name: &str) -> bool {
        slos.iter().find(|s| s.0 == name).expect("missing slo").3
    }

    #[test]
    fn healthy_artifact_passes_every_gate() {
        let slos = lifecycle_slos(&healthy());
        assert_eq!(slos.len(), 5);
        assert!(slos.iter().all(|s| s.3), "{slos:?}");
    }

    #[test]
    fn missing_cliff_fails_the_oracle() {
        // A flat unmanaged run means the cost model stopped biting.
        let l = LifecycleRun {
            cliff_ratio: 0.95,
            ..healthy()
        };
        let slos = lifecycle_slos(&l);
        assert!(!verdict(&slos, "lifecycle_cliff"));
        assert!(verdict(&slos, "lifecycle_flat"));
    }

    #[test]
    fn managed_cliff_fails_the_flat_gate() {
        let l = LifecycleRun {
            flat_ratio: 0.58,
            ..healthy()
        };
        assert!(!verdict(&lifecycle_slos(&l), "lifecycle_flat"));
    }

    #[test]
    fn reclaims_budget_and_attribution_gates() {
        let l = LifecycleRun {
            mgr_fg_reclaims: 3,
            max_active_mgr: 11,
            sched_mgmt_ops: 0,
            ..healthy()
        };
        let slos = lifecycle_slos(&l);
        assert!(!verdict(&slos, "lifecycle_fg_reclaims"));
        assert!(!verdict(&slos, "lifecycle_budget"));
        assert!(!verdict(&slos, "lifecycle_mgmt_ops"));
    }

    #[test]
    fn budget_gate_covers_the_unmanaged_run_too() {
        let l = LifecycleRun {
            max_active_nomgr: 10,
            ..healthy()
        };
        assert!(!verdict(&lifecycle_slos(&l), "lifecycle_budget"));
    }

    fn span_run(rows: Vec<BlameRow>) -> SpanRun {
        SpanRun {
            path: "BENCH_x_spans.json".into(),
            name: "x".into(),
            threshold_ns: 0,
            roots: rows.iter().map(|r| r.count).sum(),
            orphans: 0,
            truncated: 0,
            blame: rows,
            slow: Vec::new(),
        }
    }

    fn row(tenant: &str, queue: u64, lifecycle: u64, other: u64) -> BlameRow {
        let mut segments = [0u64; BLAME_CATEGORIES.len()];
        segments[0] = queue; // "queue"
        segments[7] = lifecycle; // "interference_lifecycle"
        segments[10] = other; // "other"
        BlameRow {
            tenant: tenant.into(),
            count: 1,
            total_ns: segments.iter().sum(),
            segments,
        }
    }

    #[test]
    fn spans_share_splits_queue_from_interference() {
        // 2000ns queue + 500ns lifecycle + 1500ns other across two tenants.
        let s = span_run(vec![row("0", 1500, 500, 0), row("1", 500, 0, 1500)]);
        assert!((s.share_pct(&["queue"]) - 50.0).abs() < 1e-9);
        assert!(
            (s.share_pct(&["interference_lifecycle", "interference_rebuild"]) - 12.5).abs() < 1e-9
        );
    }

    #[test]
    fn spans_share_is_nan_when_nothing_was_attributed() {
        // A gate comparison against NaN is false: a dead tracer fails.
        let s = span_run(Vec::new());
        let v = s.share_pct(&["queue"]);
        assert!(v.is_nan());
        let passes_gate = v <= 60.0;
        assert!(!passes_gate);
    }

    fn side(stages: &[(&str, u64)], tput: Option<f64>) -> DiffSide {
        DiffSide {
            path: "x.json".into(),
            stages: stages.iter().map(|(n, p)| (n.to_string(), *p)).collect(),
            tput_mib_s: tput,
        }
    }

    #[test]
    fn spans_artifacts_diff_by_blame_rows() {
        let seg = |q: u64, gc: u64| {
            BLAME_CATEGORIES
                .iter()
                .map(|name| {
                    let v = match *name {
                        "queue" => q,
                        "interference_gc" => gc,
                        _ => 0,
                    };
                    format!("\"{name}_ns\": {v}")
                })
                .collect::<Vec<_>>()
                .join(", ")
        };
        let doc = |q: u64, gc: u64| {
            Json::parse(&format!(
                "{{\"kind\": \"spans\", \"blame\": [{{\"tenant\": \"app\",                  \"count\": 2, \"total_ns\": {}, \"segments\": {{{}}}}}]}}",
                q + gc,
                seg(q, gc)
            ))
            .unwrap()
        };
        let a = spans_diff_side(&doc(200, 100), "a.json").unwrap();
        assert_eq!(
            a.stages,
            vec![
                ("app:queue".into(), 100),
                ("app:interference_gc".into(), 50)
            ]
        );
        // GC blame per op doubled while queue stayed put: the worst-growth
        // gate sees the +100% interference regression.
        let b = spans_diff_side(&doc(200, 200), "b.json").unwrap();
        let worst = worst_p99_growth(&a, &b).unwrap();
        assert!((worst - 100.0).abs() < 1e-9);
    }

    #[test]
    fn diff_growth_picks_the_worst_stage() {
        let a = side(&[("whole_op", 1000), ("device_io", 400), ("gone", 7)], None);
        let b = side(&[("whole_op", 1100), ("device_io", 600), ("new", 9)], None);
        // device_io +50% beats whole_op +10%; unmatched stages are skipped.
        let worst = worst_p99_growth(&a, &b).unwrap();
        assert!((worst - 50.0).abs() < 1e-9);
    }

    #[test]
    fn diff_growth_is_none_when_nothing_is_comparable() {
        let a = side(&[("whole_op", 0)], None);
        let b = side(&[("whole_op", 500)], None);
        assert!(worst_p99_growth(&a, &b).is_none());
    }

    #[test]
    fn lsgc_artifact_parses_and_rejects_wrong_kind() {
        let text = r#"{
            "kind": "lsgc",
            "lsraid": {
                "windows_mib_s": [1400.0, 1410.0, 1390.0, 700.0],
                "flat_ratio": 0.903, "waf": 1.392, "group_reclaims": 176,
                "emergency_reclaims": 0, "migrated_sectors": 408604,
                "pp_log_writes": 0
            },
            "mdraid": { "cliff_ratio": 0.621 }
        }"#;
        let doc = Json::parse(text).expect("valid JSON");
        let g = lsgc_from_doc(&doc, "BENCH_lsgc.json").expect("parses");
        // The trailing partial window does not count.
        assert!((g.median_mib_s - 1400.0).abs() < 1e-9);
        assert!((g.flat_ratio - 0.903).abs() < 1e-9);
        assert!((g.cliff_ratio - 0.621).abs() < 1e-9);
        assert!((g.waf - 1.392).abs() < 1e-9);
        assert_eq!(g.pp_log_writes, 0);
        assert_eq!(g.group_reclaims, 176);
        assert_eq!(g.emergency_reclaims, 0);
        assert_eq!(g.migrated_sectors, 408_604);
        assert!(g.waf <= 1.5 && g.flat_ratio > g.cliff_ratio);

        let wrong = Json::parse(r#"{"kind": "qos"}"#).expect("valid JSON");
        assert!(lsgc_from_doc(&wrong, "x.json").is_err());
    }
}
