//! Artifact schema validation.
//!
//! Runs a small timeline-enabled smoke benchmark for each array flavour,
//! writes the artifacts it emits into a scratch directory, then parses
//! every `BENCH_*_breakdown.json` / `BENCH_*_timeline.json` /
//! `BENCH_*_spans.json` found there and asserts the documented schema
//! (DESIGN.md "Observability"): required keys, per-stage digest fields,
//! strictly monotone window indices and start timestamps, monotone gauge
//! sample times, and span blame tables that partition exactly.

use bench::json::Json;
use bench::lifecycle::{lifecycle_json, SprayOutcome};
use bench::lsgc::{lsgc_json, LsOutcome, MdOutcome};
use bench::TimelineRun;
use lsraid::{LsConfig, LsStats};
use qos::TenantSnapshot;
use raizn::{LifecycleStats, RaiznStats};
use sim::SimTime;
use std::path::{Path, PathBuf};
use workloads::{BlockTarget, JobSpec, OpKind, Pattern, ZonedTarget};

const STAGES: [&str; 9] = [
    "device_io",
    "xor",
    "meta_append",
    "flush",
    "queue_wait",
    "service",
    "whole_op",
    "device_wait",
    "lock_wait",
];

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raizn_schema_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Emits one RAIZN, one lsraid and one mdraid timeline (covering the
/// zns/raizn, lsraid and ftl/mdraid gauge sources) plus a breakdown
/// into `dir`.
fn emit_artifacts(dir: &Path) {
    let rz = TimelineRun::new("schema_rz");
    let vol = rz.raizn_volume(8, 4096, 16).expect("raizn volume");
    let target = ZonedTarget::new(vol);
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
        .ops(512)
        .queue_depth(8);
    let rep = rz
        .engine(7)
        .run(&target, std::slice::from_ref(&job))
        .expect("run");
    rz.write_to(dir, rep.end).expect("write raizn timeline");

    let lsr = TimelineRun::new("schema_ls");
    let vol = lsr
        .lsraid_volume(8, 4096, LsConfig::default())
        .expect("lsraid volume");
    let target = ZonedTarget::overwriting(vol);
    let rep = lsr
        .engine(9)
        .run(&target, std::slice::from_ref(&job))
        .expect("run");
    lsr.write_to(dir, rep.end).expect("write lsraid timeline");

    let md = TimelineRun::new("schema_md");
    let vol = md.mdraid_volume(65_536, 16).expect("mdraid volume");
    let target = BlockTarget::new(vol);
    let rep = md.engine(8).run(&target, &[job]).expect("run");
    md.write_to(dir, rep.end).expect("write mdraid timeline");

    bench::write_breakdown_to("schema", dir).expect("write breakdown");
    // `write_to` scopes the timeline artifact to `dir` but (unlike
    // `finish`) does not fold the sub-run recorders into the shared one,
    // so absorb them here and the spans artifact covers both smoke runs.
    bench::recorder().absorb(&rz.recorder());
    bench::recorder().absorb(&lsr.recorder());
    bench::recorder().absorb(&md.recorder());
    bench::write_spans_to("schema", &bench::recorder(), dir).expect("write spans");
}

fn parse(path: &Path) -> Json {
    let text = std::fs::read_to_string(path).expect("read artifact");
    Json::parse(&text).unwrap_or_else(|e| panic!("{}: invalid JSON: {e}", path.display()))
}

fn u64_field(v: &Json, key: &str, ctx: &str) -> u64 {
    v.get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{ctx}: missing or non-integer {key:?}"))
}

fn check_stage_digest(stages: &Json, with_sectors: bool, ctx: &str) {
    for stage in STAGES {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("{ctx}: missing stage {stage:?}"));
        let sctx = format!("{ctx} stage {stage}");
        u64_field(s, "count", &sctx);
        u64_field(s, "p50_ns", &sctx);
        u64_field(s, "p99_ns", &sctx);
        u64_field(s, "max_ns", &sctx);
        if with_sectors {
            u64_field(s, "sectors", &sctx);
            u64_field(s, "p95_ns", &sctx);
        }
    }
}

fn check_timeline(path: &Path) {
    let doc = parse(path);
    let ctx = path.display().to_string();
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("timeline"),
        "{ctx}: kind"
    );
    assert!(
        doc.get("name").and_then(Json::as_str).is_some(),
        "{ctx}: name"
    );
    let window_ns = u64_field(&doc, "window_ns", &ctx);
    assert!(window_ns > 0, "{ctx}: window_ns must be positive");
    u64_field(&doc, "events_recorded", &ctx);
    u64_field(&doc, "late_events", &ctx);
    u64_field(&doc, "windows_dropped", &ctx);

    let whole = doc
        .get("whole_run")
        .and_then(|w| w.get("stages"))
        .unwrap_or_else(|| panic!("{ctx}: missing whole_run.stages"));
    check_stage_digest(whole, false, &ctx);

    let windows = doc
        .get("windows")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{ctx}: missing windows array"));
    assert!(!windows.is_empty(), "{ctx}: smoke run produced no windows");
    let mut prev: Option<(u64, u64)> = None;
    for w in windows {
        let index = u64_field(w, "index", &ctx);
        let start = u64_field(w, "start_ns", &ctx);
        assert_eq!(
            start,
            index * window_ns,
            "{ctx}: window {index} start_ns disagrees with index * window_ns"
        );
        w.get("throughput_mib_s")
            .and_then(Json::as_f64)
            .unwrap_or_else(|| panic!("{ctx}: window {index} missing throughput_mib_s"));
        u64_field(w, "errors", &ctx);
        let stages = w
            .get("stages")
            .unwrap_or_else(|| panic!("{ctx}: window {index} missing stages"));
        check_stage_digest(stages, true, &format!("{ctx} window {index}"));
        if let Some((pi, ps)) = prev {
            assert!(index > pi, "{ctx}: window indices not strictly increasing");
            assert!(start > ps, "{ctx}: window start_ns not strictly increasing");
        }
        prev = Some((index, start));
    }

    let gauges = doc
        .get("gauges")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{ctx}: missing gauges array"));
    assert!(
        !gauges.is_empty(),
        "{ctx}: smoke run produced no gauge series"
    );
    for g in gauges {
        let source = g
            .get("source")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{ctx}: gauge missing source"));
        let name = g
            .get("gauge")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{ctx}: gauge missing name"));
        let gctx = format!("{ctx} gauge {source}.{name}");
        let points = g
            .get("points")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{gctx}: missing points"));
        let mut prev_t = None;
        for p in points {
            let pair = p
                .as_arr()
                .unwrap_or_else(|| panic!("{gctx}: point not a pair"));
            assert_eq!(pair.len(), 2, "{gctx}: point not a [t, v] pair");
            let t = pair[0]
                .as_u64()
                .unwrap_or_else(|| panic!("{gctx}: non-integer sample time"));
            pair[1]
                .as_f64()
                .unwrap_or_else(|| panic!("{gctx}: non-numeric sample value"));
            if let Some(pt) = prev_t {
                assert!(t >= pt, "{gctx}: sample times not monotone");
            }
            prev_t = Some(t);
        }
    }
}

fn check_breakdown(path: &Path) {
    let doc = parse(path);
    let ctx = path.display().to_string();
    assert!(
        doc.get("name").and_then(Json::as_str).is_some(),
        "{ctx}: name"
    );
    u64_field(&doc, "events_recorded", &ctx);
    u64_field(&doc, "events_dropped", &ctx);
    let stages = doc
        .get("stages")
        .unwrap_or_else(|| panic!("{ctx}: missing stages"));
    for stage in STAGES {
        let s = stages
            .get(stage)
            .unwrap_or_else(|| panic!("{ctx}: missing stage {stage:?}"));
        let sctx = format!("{ctx} stage {stage}");
        u64_field(s, "count", &sctx);
        u64_field(s, "p50_ns", &sctx);
        u64_field(s, "p99_ns", &sctx);
        u64_field(s, "mean_ns", &sctx);
        u64_field(s, "max_ns", &sctx);
    }
    let counters = doc
        .get("counters")
        .and_then(Json::as_obj)
        .unwrap_or_else(|| panic!("{ctx}: missing counters"));
    for (name, v) in counters {
        assert!(
            v.as_u64().is_some(),
            "{ctx}: counter {name:?} is not a non-negative integer"
        );
    }
}

/// Asserts a `segments` object carries every blame category as
/// `<name>_ns` and returns their sum.
fn check_segments(v: &Json, ctx: &str) -> u64 {
    let seg = v
        .get("segments")
        .unwrap_or_else(|| panic!("{ctx}: missing segments"));
    obs::BLAME_CATEGORIES
        .iter()
        .map(|name| u64_field(seg, &format!("{name}_ns"), ctx))
        .sum()
}

/// Validates the `kind: "spans"` document (`BENCH_*_spans.json`): the
/// tail-sampling counters, a blame table whose exclusive segments
/// partition each row's total exactly, slow-op trees whose events carry
/// intervals inside the root's, and a Perfetto-loadable `traceEvents`
/// array of complete-phase slices.
fn check_spans(path: &Path) {
    let doc = parse(path);
    let ctx = path.display().to_string();
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("spans"),
        "{ctx}: kind"
    );
    assert!(
        doc.get("name").and_then(Json::as_str).is_some(),
        "{ctx}: name"
    );
    u64_field(&doc, "threshold_ns", &ctx);
    assert!(
        u64_field(&doc, "roots", &ctx) > 0,
        "{ctx}: smoke run closed no span roots"
    );
    u64_field(&doc, "orphan_events", &ctx);
    u64_field(&doc, "truncated_events", &ctx);

    let blame = doc
        .get("blame")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{ctx}: missing blame array"));
    assert!(!blame.is_empty(), "{ctx}: empty blame table");
    for row in blame {
        let tenant = row
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{ctx}: blame row missing tenant"));
        let rctx = format!("{ctx} tenant {tenant}");
        assert!(u64_field(row, "count", &rctx) > 0, "{rctx}: empty row");
        let total = u64_field(row, "total_ns", &rctx);
        assert_eq!(
            check_segments(row, &rctx),
            total,
            "{rctx}: segments do not partition total_ns"
        );
    }

    let slow = doc
        .get("slow_ops")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{ctx}: missing slow_ops array"));
    for op in slow {
        let octx = format!("{ctx} slow op");
        let latency = u64_field(op, "latency_ns", &octx);
        let (start, end) = (
            u64_field(op, "start_ns", &octx),
            u64_field(op, "end_ns", &octx),
        );
        assert_eq!(end - start, latency, "{octx}: latency != end - start");
        assert_eq!(
            check_segments(op, &octx),
            latency,
            "{octx}: segments do not partition the latency"
        );
        u64_field(op, "truncated_events", &octx);
        assert!(
            op.get("op").and_then(Json::as_str).is_some(),
            "{octx}: missing op"
        );
        let events = op
            .get("events")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{octx}: missing events"));
        assert!(!events.is_empty(), "{octx}: captured tree is empty");
        for ev in events {
            let (es, ee) = (
                u64_field(ev, "start_ns", &octx),
                u64_field(ev, "end_ns", &octx),
            );
            assert!(
                es >= start && ee <= end && es <= ee,
                "{octx}: event [{es}, {ee}] escapes the root [{start}, {end}]"
            );
            assert!(
                ev.get("stage").and_then(Json::as_str).is_some(),
                "{octx}: event missing stage"
            );
        }
    }

    let trace = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{ctx}: missing traceEvents array"));
    for ev in trace {
        let tctx = format!("{ctx} traceEvent");
        assert_eq!(
            ev.get("ph").and_then(Json::as_str),
            Some("X"),
            "{tctx}: ph must be a complete-phase slice"
        );
        for key in ["name", "cat"] {
            assert!(
                ev.get(key).and_then(Json::as_str).is_some(),
                "{tctx}: missing {key}"
            );
        }
        for key in ["pid", "tid", "ts", "dur"] {
            assert!(
                ev.get(key).and_then(Json::as_f64).is_some(),
                "{tctx}: missing numeric {key}"
            );
        }
    }
}

fn f64_field(v: &Json, key: &str, ctx: &str) -> f64 {
    v.get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{ctx}: missing or non-numeric {key:?}"))
}

fn check_tenants(run: &Json, ctx: &str) {
    let tenants = run
        .get("tenants")
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{ctx}: missing tenants array"));
    assert_eq!(tenants.len(), 2, "{ctx}: expected fg + mgmt tenants");
    for t in tenants {
        let name = t
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{ctx}: tenant missing name"));
        let tctx = format!("{ctx} tenant {name}");
        for key in [
            "admitted",
            "completed",
            "shed",
            "deferred",
            "batches",
            "merged",
            "bytes",
        ] {
            u64_field(t, key, &tctx);
        }
    }
}

/// Validates the `kind: "lifecycle"` document the `ziggurat` binary
/// writes as `BENCH_ziggurat.json` (DESIGN.md "Observability"): run
/// geometry, both runs' window series and band ratios, the unmanaged
/// run's reclaim counters, the managed run's management counters, and
/// per-run scheduler tenant accounting.
fn check_lifecycle(doc: &Json, ctx: &str) {
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("lifecycle"),
        "{ctx}: kind"
    );
    for key in [
        "active_limit",
        "spray_zones",
        "stripes_per_zone",
        "reset_lag",
    ] {
        assert!(
            u64_field(doc, key, ctx) > 0,
            "{ctx}: {key} must be positive"
        );
    }
    for (run_key, ratio_key) in [("nomgr", "cliff_ratio"), ("mgr", "flat_ratio")] {
        let run = doc
            .get(run_key)
            .unwrap_or_else(|| panic!("{ctx}: missing run {run_key:?}"));
        let rctx = format!("{ctx} run {run_key}");
        let windows = run
            .get("windows_mib_s")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{rctx}: missing windows_mib_s"));
        assert!(!windows.is_empty(), "{rctx}: empty window series");
        for w in windows {
            assert!(
                w.as_f64().is_some_and(|v| v >= 0.0),
                "{rctx}: window not a non-negative number"
            );
        }
        let ratio = f64_field(run, ratio_key, &rctx);
        assert!(
            (0.0..=1.0).contains(&ratio),
            "{rctx}: {ratio_key} {ratio} outside [0, 1]"
        );
        u64_field(run, "foreground_reclaims", &rctx);
        u64_field(run, "max_active_seen", &rctx);
        assert!(
            f64_field(run, "duration_ms", &rctx) >= 0.0,
            "{rctx}: negative duration"
        );
        check_tenants(run, &rctx);
    }
    let nomgr = doc.get("nomgr").unwrap();
    u64_field(nomgr, "zone_finishes", &format!("{ctx} run nomgr"));
    let mgr = doc.get("mgr").unwrap();
    let mctx = format!("{ctx} run mgr");
    for key in [
        "mgmt_finishes",
        "mgmt_resets",
        "mgmt_pre_opens",
        "mgmt_pumps",
        "sched_mgmt_ops",
    ] {
        u64_field(mgr, key, &mctx);
    }
    let share = f64_field(mgr, "mgmt_io_share", &mctx);
    assert!(
        (0.0..=1.0).contains(&share),
        "{mctx}: mgmt_io_share {share} outside [0, 1]"
    );
}

fn tenant(name: &str, completed: u64) -> TenantSnapshot {
    TenantSnapshot {
        name: name.into(),
        admitted: completed,
        completed,
        shed: 0,
        deferred: 0,
        batches: completed,
        merged: 0,
        bytes: completed * 4096,
    }
}

/// Validates the `kind: "lsgc"` document the `lsgc` binary writes as
/// `BENCH_lsgc.json`: workload geometry, the log-structured run's
/// window series / band ratio / WAF / GC counters (pp-log writes pinned
/// to zero), the mdraid baseline's series and cliff ratio, and both
/// runs' scheduler tenant accounting.
fn check_lsgc(doc: &Json, ctx: &str) {
    assert_eq!(
        doc.get("kind").and_then(Json::as_str),
        Some("lsgc"),
        "{ctx}: kind"
    );
    for key in [
        "block_sectors",
        "overwrite_ops",
        "hot_region_pct",
        "hot_write_pct",
    ] {
        assert!(
            u64_field(doc, key, ctx) > 0,
            "{ctx}: {key} must be positive"
        );
    }
    let windows = |run: &Json, rctx: &str| {
        let w = run
            .get("windows_mib_s")
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{rctx}: missing windows_mib_s"));
        assert!(!w.is_empty(), "{rctx}: empty window series");
        for v in w {
            assert!(
                v.as_f64().is_some_and(|v| v >= 0.0),
                "{rctx}: window not a non-negative number"
            );
        }
    };
    let ls = doc
        .get("lsraid")
        .unwrap_or_else(|| panic!("{ctx}: missing lsraid run"));
    let lctx = format!("{ctx} run lsraid");
    windows(ls, &lctx);
    let flat = f64_field(ls, "flat_ratio", &lctx);
    assert!(
        (0.0..=1.0).contains(&flat),
        "{lctx}: flat_ratio {flat} outside [0, 1]"
    );
    assert!(
        f64_field(ls, "waf", &lctx) >= 1.0,
        "{lctx}: waf below 1.0 is not physical"
    );
    for key in [
        "group_reclaims",
        "emergency_reclaims",
        "migrated_sectors",
        "pad_sectors",
    ] {
        u64_field(ls, key, &lctx);
    }
    assert_eq!(
        u64_field(ls, "pp_log_writes", &lctx),
        0,
        "{lctx}: the log-structured engine has no partial-parity log"
    );
    assert!(
        f64_field(ls, "duration_ms", &lctx) >= 0.0,
        "{lctx}: negative duration"
    );
    check_tenants(ls, &lctx);
    let md = doc
        .get("mdraid")
        .unwrap_or_else(|| panic!("{ctx}: missing mdraid run"));
    let mctx = format!("{ctx} run mdraid");
    windows(md, &mctx);
    let cliff = f64_field(md, "cliff_ratio", &mctx);
    assert!(
        (0.0..=1.0).contains(&cliff),
        "{mctx}: cliff_ratio {cliff} outside [0, 1]"
    );
    assert!(
        f64_field(md, "duration_ms", &mctx) >= 0.0,
        "{mctx}: negative duration"
    );
    check_tenants(md, &mctx);
}

#[test]
fn lsgc_artifact_conforms_to_schema() {
    // Drive the production emitter (the exact code path behind
    // `BENCH_lsgc.json`) with representative outcomes and validate the
    // document it renders.
    let ls = LsOutcome {
        windows_mib_s: vec![230.0, 240.0, 230.0, 220.0],
        end: SimTime::from_nanos(2_000_000_000),
        waf: 1.39,
        stats: LsStats {
            user_sectors: 1_048_576,
            migrated_sectors: 408_604,
            pad_sectors: 512,
            parity_sectors: 262_144,
            group_reclaims: 176,
            emergency_reclaims: 0,
            groups_opened: 180,
            meta_records: 500,
            meta_rotations: 2,
            ..LsStats::default()
        },
        reclaims: 176,
        emergency: 0,
        migrated: 408_604,
        tenants: vec![tenant("app", 4096), tenant("gc", 1600)],
    };
    let md = MdOutcome {
        windows_mib_s: vec![2300.0, 1900.0, 1400.0, 1400.0],
        end: SimTime::from_nanos(1_000_000_000),
        tenants: vec![tenant("app", 4096), tenant("gc", 0)],
    };
    let json = lsgc_json(&ls, 0.90, &md, 0.62);
    let doc = Json::parse(&json).expect("lsgc artifact is valid JSON");
    check_lsgc(&doc, "lsgc_json");
}

#[test]
fn lifecycle_artifact_conforms_to_schema() {
    // Drive the production emitter (the exact code path behind
    // `BENCH_ziggurat.json`) with representative outcomes and validate
    // the document it renders.
    let nomgr = SprayOutcome {
        windows_mib_s: vec![1800.0, 1810.0, 1100.0, 1090.0],
        end: SimTime::from_nanos(1_500_000_000),
        max_active_seen: 9,
        raizn: RaiznStats {
            foreground_reclaims: 32,
            zone_finishes: 32,
            ..RaiznStats::default()
        },
        tenants: vec![tenant("fg", 8800), tenant("mgmt", 0)],
        mgmt: None,
        mgmt_io_share: 0.0,
        sched_mgmt_ops: 0,
    };
    let mgr = SprayOutcome {
        windows_mib_s: vec![1800.0, 1810.0, 1805.0, 1795.0],
        end: SimTime::from_nanos(1_200_000_000),
        max_active_seen: 4,
        raizn: RaiznStats::default(),
        tenants: vec![tenant("fg", 8800), tenant("mgmt", 80)],
        mgmt: Some(LifecycleStats {
            finishes: 39,
            resets: 8,
            pre_opens: 33,
            pumps: 1100,
        }),
        mgmt_io_share: 0.14,
        sched_mgmt_ops: 80,
    };
    let json = lifecycle_json(&nomgr, 0.6, &mgr, 0.99);
    let doc = Json::parse(&json).expect("lifecycle artifact is valid JSON");
    check_lifecycle(&doc, "lifecycle_json");
}

#[test]
fn emitted_artifacts_conform_to_schema() {
    let dir = scratch_dir();
    emit_artifacts(&dir);

    let mut timelines = 0;
    let mut breakdowns = 0;
    let mut spans = 0;
    for entry in std::fs::read_dir(&dir).expect("read scratch dir") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("BENCH_") && name.ends_with("_timeline.json") {
            check_timeline(&path);
            timelines += 1;
        } else if name.starts_with("BENCH_") && name.ends_with("_breakdown.json") {
            check_breakdown(&path);
            breakdowns += 1;
        } else if name.starts_with("BENCH_") && name.ends_with("_spans.json") {
            check_spans(&path);
            spans += 1;
        }
    }
    assert_eq!(
        timelines, 3,
        "expected raizn + lsraid + mdraid timeline artifacts"
    );
    assert_eq!(breakdowns, 1, "expected one breakdown artifact");
    assert_eq!(spans, 1, "expected one spans artifact");

    let _ = std::fs::remove_dir_all(&dir);
}
