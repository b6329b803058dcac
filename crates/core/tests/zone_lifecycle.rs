//! Zone-lifecycle integration battery: background finish, budget
//! discipline under zone-spray, reset batching vs read-back, management
//! attribution through the QoS scheduler, and the no-manager write-stall
//! cliff as a regression oracle for the cost model.

use raizn::{MgmtSink, RaiznConfig, RaiznVolume, ZoneLifecycleManager};
use sim::SimTime;
use std::sync::Arc;
use workloads::{Admission, SchedCompletion, SharedScheduler, ZonedTarget};
use zns::{LatencyConfig, WriteFlags, ZnsConfig, ZnsDevice, ZoneState, ZonedVolume, SECTOR_SIZE};

const T0: SimTime = SimTime::ZERO;
const DEVICES: usize = 5;

/// Array with explicit open/active budgets (`open`, `active`) and the
/// given latency profile. Returns device handles alongside the volume so
/// tests can watch the budgets directly.
fn array(
    open: u32,
    active: u32,
    latency: LatencyConfig,
    reclaim: bool,
) -> (Arc<RaiznVolume>, Vec<Arc<ZnsDevice>>) {
    let devices: Vec<Arc<ZnsDevice>> = (0..DEVICES)
        .map(|_| {
            Arc::new(ZnsDevice::new(
                ZnsConfig::builder()
                    .zones(16, 1024, 1024)
                    .open_limits(open, active)
                    .latency(latency.clone())
                    .build(),
            ))
        })
        .collect();
    let volume = Arc::new(
        RaiznVolume::format(
            devices.clone(),
            RaiznConfig {
                reclaim_on_exhaustion: reclaim,
                ..RaiznConfig::small_test()
            },
            T0,
        )
        .unwrap(),
    );
    (volume, devices)
}

/// Writes `sectors` of `pattern` into `zone` starting at its current
/// write pointer offset `at_off`.
fn write_at(v: &RaiznVolume, zone: u32, at_off: u64, sectors: u64, pattern: u8) -> SimTime {
    let lgeo = v.layout().logical_geometry();
    let data = vec![pattern; (sectors * SECTOR_SIZE) as usize];
    v.write(
        T0,
        lgeo.zone_start(zone) + at_off,
        &data,
        WriteFlags::default(),
    )
    .unwrap()
    .done
}

fn read_back(v: &RaiznVolume, zone: u32, sectors: u64) -> Vec<u8> {
    let lgeo = v.layout().logical_geometry();
    let mut buf = vec![0u8; (sectors * SECTOR_SIZE) as usize];
    v.read(T0, lgeo.zone_start(zone), &mut buf).unwrap();
    buf
}

#[test]
fn background_finish_releases_active_budget_and_preserves_data() {
    let (v, devices) = array(4, 6, LatencyConfig::instant(), false);
    let cap = v.layout().logical_geometry().zone_cap();
    let mgr = ZoneLifecycleManager::new(v.clone());
    let sectors = cap * 9 / 10;
    write_at(&v, 0, 0, sectors, 0xAB);
    let active_before: u32 = devices.iter().map(|d| d.active_zones()).sum();
    for _ in 0..3 {
        mgr.pump(T0).unwrap();
    }
    assert_eq!(v.zone_info(0).unwrap().state, ZoneState::Full);
    assert_eq!(mgr.stats().finishes, 1);
    // Finishing moved every device's physical zone out of the active set,
    // and the slot it freed went to the one pre-opened empty zone.
    assert_eq!(mgr.stats().pre_opens, 1);
    assert_eq!(v.zone_info(1).unwrap().state, ZoneState::ExplicitlyOpen);
    let active_after: u32 = devices.iter().map(|d| d.active_zones()).sum();
    assert_eq!(active_after, active_before);
    // The sealed zone still reads back byte-for-byte.
    assert!(read_back(&v, 0, sectors).iter().all(|&b| b == 0xAB));
}

#[test]
fn open_budget_never_exceeded_under_zone_spray() {
    // Data slots are scarce: 6 active minus the metadata zones. The
    // manager must finish sprayed zones fast enough that activation never
    // trips the device budget (reclaim is off, so an exhausted budget
    // would fail the write instead of silently reclaiming).
    let (v, devices) = array(4, 6, LatencyConfig::instant(), false);
    let cap = v.layout().logical_geometry().zone_cap();
    let mgr = ZoneLifecycleManager::new(v.clone());
    let chunk = cap * 9 / 10 / 4;
    for zone in 0..10u32 {
        for part in 0..4 {
            write_at(&v, zone, part * chunk, chunk, zone as u8);
            for dev in &devices {
                let cfg = dev.config();
                assert!(
                    dev.open_zones() <= cfg.max_open_zones(),
                    "open budget exceeded at zone {zone}"
                );
                assert!(
                    dev.active_zones() <= cfg.max_active_zones(),
                    "active budget exceeded at zone {zone}"
                );
            }
        }
        // Three pumps per sprayed zone: the first sees it move, the next
        // two see it idle, and the second of those finishes it.
        for _ in 0..3 {
            mgr.pump(T0).unwrap();
        }
        if zone >= 6 {
            mgr.request_reset(zone - 6);
        }
    }
    // The last two requests form the final batch; one more pump drains it.
    mgr.pump(T0).unwrap();
    assert!(mgr.stats().finishes >= 8, "stats {:?}", mgr.stats());
    assert_eq!(mgr.stats().resets, 4, "stats {:?}", mgr.stats());
    assert_eq!(v.stats().foreground_reclaims, 0);
}

#[test]
fn batched_resets_preserve_read_back_of_untouched_zones() {
    let (v, _devices) = array(4, 6, LatencyConfig::instant(), false);
    let cap = v.layout().logical_geometry().zone_cap();
    let mgr = ZoneLifecycleManager::new(v.clone());
    let sectors = cap * 9 / 10;
    for (zone, pattern) in [(0u32, 0x11u8), (1, 0x22), (2, 0x33)] {
        write_at(&v, zone, 0, sectors, pattern);
    }
    for _ in 0..3 {
        mgr.pump(T0).unwrap();
    }
    mgr.request_reset(0);
    mgr.pump(T0).unwrap();
    // One request stays queued below the batch threshold; nothing reset.
    assert_eq!(v.zone_info(0).unwrap().state, ZoneState::Full);
    mgr.request_reset(1);
    mgr.pump(T0).unwrap();
    // Both reset, and the slots they freed let the same pump pre-open the
    // lowest empty zone.
    assert_eq!(mgr.stats().resets, 2);
    assert_eq!(mgr.stats().pre_opens, 1);
    assert_eq!(v.zone_info(0).unwrap().state, ZoneState::ExplicitlyOpen);
    assert_eq!(v.zone_info(1).unwrap().state, ZoneState::Empty);
    for zone in [0, 1] {
        let zi = v.zone_info(zone).unwrap();
        assert_eq!(zi.write_pointer, zi.start, "zone {zone} not reset");
    }
    // The zone that was never queued still holds its data.
    assert_eq!(v.zone_info(2).unwrap().state, ZoneState::Full);
    assert!(read_back(&v, 2, sectors).iter().all(|&b| b == 0x33));
}

/// Management IO through the scheduler as tenant 1, drained after each
/// submission.
struct SchedSink<'a>(qos::InternalTenant<'a>);

impl MgmtSink for SchedSink<'_> {
    fn submit_mgmt(&mut self, at: SimTime, zone: u32, op: zns::ZoneMgmtOp) -> zns::Result<SimTime> {
        self.0.submit_and_drain(
            at,
            format_args!("{op} of zone {zone}"),
            |sched, tenant, tag| sched.submit_mgmt(tenant, tag, at, zone, op),
        )
    }
}

#[test]
fn management_io_is_attributed_to_the_internal_tenant() {
    let (v, _devices) = array(4, 6, LatencyConfig::instant(), false);
    let cap = v.layout().logical_geometry().zone_cap();
    let rec = obs::Recorder::new(4096, 1);
    let sched = qos::QosScheduler::new(
        Arc::new(ZonedTarget::new(v.clone())),
        qos::QosConfig::default(),
        vec![
            qos::TenantSpec::new("fg").weight(8),
            qos::TenantSpec::new("mgmt").weight(1),
        ],
    )
    .unwrap()
    .with_recorder(rec.clone());
    let mgr = ZoneLifecycleManager::new(v.clone());

    // Foreground traffic as tenant 0, through the same scheduler.
    let data = vec![0xCDu8; (cap * 9 / 10 * SECTOR_SIZE) as usize];
    let mut out: Vec<SchedCompletion> = Vec::new();
    assert!(matches!(
        sched.submit_write(0, 0, T0, 0, &data).unwrap(),
        Admission::Admitted(_)
    ));
    while sched.step(&mut out).unwrap() {}

    let mut sink = SchedSink(qos::InternalTenant::new(&sched, 1));
    for _ in 0..3 {
        mgr.pump_with(T0, &mut sink).unwrap();
    }
    mgr.request_reset(0);
    mgr.flush_resets(T0, &mut sink).unwrap();
    assert_eq!(mgr.stats().finishes, 1);
    assert_eq!(mgr.stats().resets, 1);
    assert_eq!(mgr.stats().pre_opens, 1);

    // Every management span carries the internal tenant's index; no
    // management op is ever attributed to the foreground tenant.
    let events = rec.events();
    let mgmt: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.op, obs::OpClass::Finish | obs::OpClass::Reset))
        .filter(|e| matches!(e.stage, obs::Stage::QueueWait | obs::Stage::Service))
        .collect();
    assert!(mgmt.len() >= 4, "expected finish+reset spans, got {mgmt:?}");
    assert!(mgmt.iter().all(|e| e.device == 1), "wrong tenant: {mgmt:?}");
    let fg: Vec<_> = events
        .iter()
        .filter(|e| e.op == obs::OpClass::Write && e.stage == obs::Stage::Service)
        .filter(|e| e.device == 0)
        .collect();
    assert!(!fg.is_empty(), "foreground write spans missing");
    // Finish, reset and the pre-open the finish made room for.
    let tenants = sched.stats();
    assert_eq!(tenants[1].name, "mgmt");
    assert_eq!(tenants[1].completed, 3);
}

#[test]
fn unmanaged_spray_hits_the_foreground_reclaim_cliff() {
    // Regression oracle for the cost model: with realistic finish fills
    // and no manager, exhausting the active budget makes zone activation
    // pay a foreground fill — write latency jumps by an order of
    // magnitude. If this stops failing-over to the slow path, the
    // lifecycle costs went soft.
    let (v, _devices) = array(3, 4, LatencyConfig::zns_ssd(), true);
    let cap = v.layout().logical_geometry().zone_cap();
    let stripe = 16u64; // one stripe unit per device
    let mut activation_lat = Vec::new();
    for zone in 0..8u32 {
        let start = T0;
        let done = write_at(&v, zone, 0, stripe * 4, zone as u8);
        activation_lat.push(done.saturating_since(start));
        // Fill the zone near capacity so every victim has a remainder
        // that the foreground reclaim must pad.
        write_at(&v, zone, stripe * 4, cap * 9 / 10 - stripe * 4, zone as u8);
    }
    let stats = v.stats();
    assert!(
        stats.foreground_reclaims >= 4,
        "reclaim path never fired: {stats:?}"
    );
    assert_eq!(stats.zone_finishes, stats.foreground_reclaims);
    // First activations ride free slots; later ones stall behind a fill.
    let fast = activation_lat[0];
    let slow = *activation_lat.iter().max().unwrap();
    assert!(
        slow >= fast * 5,
        "no cliff: first activation {fast}, worst {slow}"
    );
    // The cliff is attributable: victims were finished, not lost — all
    // sprayed zones still read back.
    for zone in 0..8u32 {
        assert!(read_back(&v, zone, stripe).iter().all(|&b| b == zone as u8));
    }
}
