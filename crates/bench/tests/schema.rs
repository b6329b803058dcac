//! Artifact schema validation.
//!
//! Runs a small timeline-enabled smoke benchmark for each array flavour,
//! writes the artifacts it emits into a scratch directory, then parses
//! every `BENCH_*_breakdown.json` / `BENCH_*_timeline.json` /
//! `BENCH_*_spans.json` found there and asserts the documented schema
//! (DESIGN.md "Observability"): required keys, per-stage digest fields,
//! strictly monotone window indices and start timestamps, and span blame
//! tables that partition exactly. A second emission with the same seeds
//! must write byte-identical timeline artifacts.

use bench::json::{self, Field, Json};
use bench::lifecycle::{lifecycle_json, SprayOutcome};
use bench::lsgc::{lsgc_json, LsOutcome, MdOutcome};
use bench::{lsraid_volume, mdraid_volume, raizn_volume, BenchResult, TimelineRun};
use lsraid::{LsConfig, LsStats};
use qos::TenantSnapshot;
use raizn::{LifecycleStats, RaiznConfig, RaiznStats};
use sim::SimTime;
use std::path::{Path, PathBuf};
use workloads::{BlockTarget, Engine, JobSpec, OpKind, Pattern, ZonedTarget};

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

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("raizn_schema_{}_{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Emits one RAIZN, one lsraid and one mdraid timeline plus a breakdown
/// and a spans artifact into `dir`.
fn emit_artifacts(dir: &Path) {
    let rz = TimelineRun::new("schema_rz");
    let vol = raizn_volume(&rz.recorder(), 8, 4096, RaiznConfig::default()).expect("raizn volume");
    let target = ZonedTarget::new(vol);
    let job = JobSpec::new(OpKind::Write, Pattern::Sequential, 16)
        .ops(512)
        .queue_depth(8);
    Engine::new(7)
        .run(&target, std::slice::from_ref(&job))
        .expect("run");
    rz.write_to(dir).expect("write raizn timeline");

    let lsr = TimelineRun::new("schema_ls");
    let vol = lsraid_volume(&lsr.recorder(), 8, 4096, LsConfig::default()).expect("lsraid volume");
    let target = ZonedTarget::overwriting(vol);
    Engine::new(9)
        .run(&target, std::slice::from_ref(&job))
        .expect("run");
    lsr.write_to(dir).expect("write lsraid timeline");

    let md = TimelineRun::new("schema_md");
    let vol = mdraid_volume(&md.recorder(), 65_536, 16).expect("mdraid volume");
    let target = BlockTarget::new(vol);
    Engine::new(8).run(&target, &[job]).expect("run");
    md.write_to(dir).expect("write mdraid timeline");

    let breakdown = bench::recorder().breakdown_json("schema");
    bench::write_artifact(dir, "schema", "breakdown", &breakdown).expect("write breakdown");
    // `write_to` scopes the timeline artifact to `dir` but (unlike
    // `finish`) does not fold the sub-run recorders into the shared one,
    // so absorb them here and the spans artifact covers both smoke runs.
    bench::recorder().absorb(&rz.recorder());
    bench::recorder().absorb(&lsr.recorder());
    bench::recorder().absorb(&md.recorder());
    let spans = obs::spans_json("schema", &bench::recorder());
    bench::write_artifact(dir, "schema", "spans", &spans).expect("write spans");
}

fn check_stage_digest(stages: Field, with_sectors: bool) -> BenchResult {
    for stage in STAGES {
        let s = stages.obj(stage)?;
        for key in ["count", "p50_ns", "p99_ns", "max_ns"] {
            s.u64(key)?;
        }
        if with_sectors {
            s.u64("sectors")?;
            s.u64("p95_ns")?;
        }
    }
    Ok(())
}

fn check_timeline(path: &str) -> BenchResult {
    let artifact = json::load(path, Some("timeline"))?;
    let doc = artifact.at(path);
    doc.str("name")?;
    let window_ns = doc.u64("window_ns")?;
    assert!(window_ns > 0, "{path}: window_ns must be positive");
    for key in ["events_recorded", "late_events", "windows_dropped"] {
        doc.u64(key)?;
    }
    check_stage_digest(doc.obj("whole_run")?.obj("stages")?, false)?;

    let windows: Vec<Field> = doc.arr("windows")?.collect();
    assert!(!windows.is_empty(), "{path}: smoke run produced no windows");
    let mut prev: Option<(u64, u64)> = None;
    for w in windows {
        let index = w.u64("index")?;
        let start = w.u64("start_ns")?;
        assert_eq!(
            start,
            index * window_ns,
            "{path}: window {index} start_ns disagrees with index * window_ns"
        );
        w.f64("throughput_mib_s")?;
        w.u64("errors")?;
        check_stage_digest(w.obj("stages")?, true)?;
        if let Some((pi, ps)) = prev {
            assert!(index > pi, "{path}: window indices not strictly increasing");
            assert!(
                start > ps,
                "{path}: window start_ns not strictly increasing"
            );
        }
        prev = Some((index, start));
    }

    assert!(
        artifact.get("gauges").is_none(),
        "{path}: timelines carry windows only"
    );
    Ok(())
}

fn check_breakdown(path: &str) -> BenchResult {
    let artifact = json::load(path, None)?;
    let doc = artifact.at(path);
    doc.str("name")?;
    doc.u64("events_recorded")?;
    doc.u64("events_dropped")?;
    let stages = doc.obj("stages")?;
    for stage in STAGES {
        let s = stages.obj(stage)?;
        for key in ["count", "p50_ns", "p99_ns", "mean_ns", "max_ns"] {
            s.u64(key)?;
        }
    }
    assert!(
        artifact.get("counters").is_none(),
        "{path}: counts live in the layers' stats, not the breakdown"
    );
    Ok(())
}

/// Asserts a `segments` object carries every blame category as
/// `<name>_ns` and returns their sum.
fn check_segments(v: Field) -> BenchResult<u64> {
    let seg = v.obj("segments")?;
    obs::BLAME_CATEGORIES
        .iter()
        .map(|name| seg.u64(&format!("{name}_ns")))
        .sum()
}

/// Validates the `kind: "spans"` document (`BENCH_*_spans.json`): the
/// tail-sampling counters, a blame table whose exclusive segments
/// partition each row's total exactly, slow-op trees whose events carry
/// intervals inside the root's, and a Perfetto-loadable `traceEvents`
/// array of complete-phase slices.
fn check_spans(path: &str) -> BenchResult {
    let artifact = json::load(path, Some("spans"))?;
    let doc = artifact.at(path);
    doc.str("name")?;
    doc.u64("threshold_ns")?;
    assert!(
        doc.u64("roots")? > 0,
        "{path}: smoke run closed no span roots"
    );
    doc.u64("orphan_events")?;
    doc.u64("truncated_events")?;

    let blame: Vec<Field> = doc.arr("blame")?.collect();
    assert!(!blame.is_empty(), "{path}: empty blame table");
    for row in blame {
        let tenant = row.str("tenant")?;
        assert!(row.u64("count")? > 0, "{path} tenant {tenant}: empty row");
        assert_eq!(
            check_segments(row)?,
            row.u64("total_ns")?,
            "{path} tenant {tenant}: segments do not partition total_ns"
        );
    }

    for op in doc.arr("slow_ops")? {
        let latency = op.u64("latency_ns")?;
        let (start, end) = (op.u64("start_ns")?, op.u64("end_ns")?);
        assert_eq!(
            end - start,
            latency,
            "{path} slow op: latency != end - start"
        );
        assert_eq!(
            check_segments(op)?,
            latency,
            "{path} slow op: segments do not partition the latency"
        );
        op.u64("truncated_events")?;
        op.str("op")?;
        let events: Vec<Field> = op.arr("events")?.collect();
        assert!(!events.is_empty(), "{path} slow op: captured tree is empty");
        for ev in events {
            let (es, ee) = (ev.u64("start_ns")?, ev.u64("end_ns")?);
            assert!(
                es >= start && ee <= end && es <= ee,
                "{path} slow op: event [{es}, {ee}] escapes the root [{start}, {end}]"
            );
            ev.str("stage")?;
        }
    }

    for ev in doc.arr("traceEvents")? {
        assert_eq!(
            ev.str("ph")?,
            "X",
            "{path}: traceEvent ph must be a complete-phase slice"
        );
        for key in ["name", "cat"] {
            ev.str(key)?;
        }
        for key in ["pid", "tid", "ts", "dur"] {
            ev.f64(key)?;
        }
    }
    Ok(())
}

fn check_tenants(run: Field) -> BenchResult {
    let tenants: Vec<Field> = run.arr("tenants")?.collect();
    assert_eq!(tenants.len(), 2, "{}: expected two tenants", run.path);
    for t in tenants {
        t.str("name")?;
        for key in [
            "admitted",
            "completed",
            "shed",
            "deferred",
            "batches",
            "merged",
            "bytes",
        ] {
            t.u64(key)?;
        }
    }
    Ok(())
}

/// Checks the parts every run section of the lifecycle and lsgc
/// documents carries: a non-empty series of non-negative window
/// throughputs, its band ratio `ratio_key` in [0, 1], a non-negative
/// duration and two scheduler tenants.
fn check_run(run: Field, ratio_key: &str) -> BenchResult {
    let windows: Vec<Field> = run.arr("windows_mib_s")?.collect();
    assert!(!windows.is_empty(), "{}: empty window series", run.path);
    for w in windows {
        assert!(
            w.value.as_f64().is_some_and(|v| v >= 0.0),
            "{}: window not a non-negative number",
            run.path
        );
    }
    check_share(run, ratio_key)?;
    let duration = run.f64("duration_ms")?;
    assert!(duration >= 0.0, "{}: negative duration", run.path);
    check_tenants(run)
}

/// Asserts `key` is a number in [0, 1].
fn check_share(v: Field, key: &str) -> BenchResult {
    let share = v.f64(key)?;
    assert!(
        (0.0..=1.0).contains(&share),
        "{}: {key} {share} outside [0, 1]",
        v.path
    );
    Ok(())
}

/// Validates the `kind: "lifecycle"` document the `ziggurat` binary
/// writes as `BENCH_ziggurat.json` (DESIGN.md "Observability"): run
/// geometry, both runs' window series and band ratios, the unmanaged
/// run's reclaim counters, the managed run's management counters, and
/// per-run scheduler tenant accounting.
fn check_lifecycle(doc: Field) -> BenchResult {
    assert_eq!(doc.str("kind")?, "lifecycle", "{}: kind", doc.path);
    for key in [
        "active_limit",
        "spray_zones",
        "stripes_per_zone",
        "reset_lag",
    ] {
        assert!(doc.u64(key)? > 0, "{}: {key} must be positive", doc.path);
    }
    for (run_key, ratio_key) in [("nomgr", "cliff_ratio"), ("mgr", "flat_ratio")] {
        let run = doc.obj(run_key)?;
        check_run(run, ratio_key)?;
        run.u64("foreground_reclaims")?;
        run.u64("max_active_seen")?;
    }
    doc.obj("nomgr")?.u64("zone_finishes")?;
    let mgr = doc.obj("mgr")?;
    for key in [
        "mgmt_finishes",
        "mgmt_resets",
        "mgmt_pre_opens",
        "mgmt_pumps",
        "sched_mgmt_ops",
    ] {
        mgr.u64(key)?;
    }
    check_share(mgr, "mgmt_io_share")
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
/// window series / band ratio / WAF / GC counters, the mdraid
/// baseline's series and cliff ratio, and both runs' scheduler tenant
/// accounting.
fn check_lsgc(doc: Field) -> BenchResult {
    assert_eq!(doc.str("kind")?, "lsgc", "{}: kind", doc.path);
    for key in [
        "block_sectors",
        "overwrite_ops",
        "hot_region_pct",
        "hot_write_pct",
    ] {
        assert!(doc.u64(key)? > 0, "{}: {key} must be positive", doc.path);
    }
    let ls = doc.obj("lsraid")?;
    check_run(ls, "flat_ratio")?;
    assert!(
        ls.f64("waf")? >= 1.0,
        "{}: waf below 1.0 is not physical",
        doc.path
    );
    for key in [
        "group_reclaims",
        "emergency_reclaims",
        "migrated_sectors",
        "pad_sectors",
    ] {
        ls.u64(key)?;
    }
    check_run(doc.obj("mdraid")?, "cliff_ratio")
}

#[test]
fn lsgc_artifact_conforms_to_schema() -> BenchResult {
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
    let doc = doc.at("lsgc_json");
    check_lsgc(doc)?;
    Ok(())
}

#[test]
fn lifecycle_artifact_conforms_to_schema() -> BenchResult {
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
    };
    let json = lifecycle_json(&nomgr, 0.6, &mgr, 0.99);
    let doc = Json::parse(&json).expect("lifecycle artifact is valid JSON");
    check_lifecycle(doc.at("lifecycle_json"))
}

#[test]
fn emitted_artifacts_conform_to_schema() -> BenchResult {
    let dir = scratch_dir("schema");
    emit_artifacts(&dir);

    let mut timelines = 0;
    let mut breakdowns = 0;
    let mut spans = 0;
    for entry in std::fs::read_dir(&dir).expect("read scratch dir") {
        let path = entry.expect("dir entry").path();
        let (Some(name), Some(path)) = (path.file_name().and_then(|n| n.to_str()), path.to_str())
        else {
            continue;
        };
        if name.starts_with("BENCH_") && name.ends_with("_timeline.json") {
            check_timeline(path)?;
            timelines += 1;
        } else if name.starts_with("BENCH_") && name.ends_with("_breakdown.json") {
            check_breakdown(path)?;
            breakdowns += 1;
        } else if name.starts_with("BENCH_") && name.ends_with("_spans.json") {
            check_spans(path)?;
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
    Ok(())
}

/// Same seeds, same bytes: two emissions into separate directories write
/// identical timeline artifacts.
#[test]
fn same_seeds_emit_identical_timelines() {
    let (a, b) = (scratch_dir("first"), scratch_dir("second"));
    emit_artifacts(&a);
    emit_artifacts(&b);
    let mut compared = 0;
    for entry in std::fs::read_dir(&a).expect("read scratch dir") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("BENCH_") && name.ends_with("_timeline.json") {
            let first = std::fs::read(&path).expect("read first timeline");
            let second = std::fs::read(b.join(name)).expect("read second timeline");
            assert!(first == second, "{name}: same seeds wrote different bytes");
            compared += 1;
        }
    }
    assert_eq!(
        compared, 3,
        "expected raizn + lsraid + mdraid timeline pairs"
    );
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
}
