//! Growth tests for the segmented universal-object log: the pointer-CAS
//! path allocates [`SEGMENT_SIZE`]-position segments lazily and installs
//! them by CAS, so an uncapped object never runs out of positions. These
//! tests push well past one segment under contention and assert
//!
//! 1. segment count grew (and stayed within the 2·n·ops duplication
//!    bound, so helping never leaks whole segments),
//! 2. no entry was lost or duplicated across a boundary (the
//!    fetch-and-add ticket-uniqueness witness), and
//! 3. a read's catch-up replays correctly across segment boundaries, so
//!    a handle that sat idle through several segments of history still
//!    converges.
//!
//! A capped configuration (`UniversalConfig::cap`) must still surface
//! `UniversalError::LogFull` — including a cap that lands beyond the
//! first segment, so the cap check and the growth path compose.
//!
//! With checkpointed truncation enabled, growth is no longer monotone:
//! installed segments keep counting up, but *live* segments (installed −
//! reclaimed) must drop back behind every checkpoint — bounded by the
//! frontier spread of the active handles, not by total ops.

use waitfree::sched::thread;

use waitfree::objects::counter::{Counter, CounterOp, CounterResp};
use waitfree::sync::universal::{UniversalConfig, UniversalError, WfUniversal, SEGMENT_SIZE};

mod common;
use common::register_n;

#[test]
fn contended_log_grows_across_segments_without_losing_tickets() {
    let threads = 4;
    // 4 threads × per ops ≥ 10 segments even before helping duplicates.
    let per = (10 * SEGMENT_SIZE) / 4 + 8;
    let (obj, handles) = register_n(Counter::new(0), threads, UniversalConfig::default());
    let joins: Vec<_> = handles
        .into_iter()
        .map(|mut h| {
            let obj = obj.clone();
            thread::spawn(move || {
                let tickets: Vec<i64> = (0..per)
                    .map(|_| match h.invoke(CounterOp::FetchAndAdd(1)) {
                        CounterResp::Value(v) => v,
                        other => panic!("unexpected {other:?}"),
                    })
                    .collect();
                (tickets, obj.stats().installed_segments)
            })
        })
        .collect();

    let mut all = Vec::new();
    let mut segments = 0;
    for j in joins {
        let (tickets, segs) = j.join().unwrap();
        all.extend(tickets);
        segments = segments.max(segs);
    }

    // (2) FAA ticket uniqueness: every old value observed exactly once —
    // entries crossing segment boundaries were neither lost nor replayed
    // twice.
    all.sort_unstable();
    let expect: Vec<i64> = (0..(threads * per) as i64).collect();
    assert_eq!(all, expect, "each ticket taken exactly once across segments");

    // (1) The log actually grew, and within the duplication bound: at
    // most 2·n·ops positions are ever decided (each entry appears at
    // most twice), so the installed segments must fit that many
    // positions plus one partial segment.
    let max_positions = 2 * threads * per;
    assert!(segments > 1, "workload must span multiple segments");
    assert!(
        (segments - 1) * SEGMENT_SIZE <= max_positions,
        "{segments} segments exceeds the 2·n·ops position bound"
    );
}

#[test]
fn read_replays_across_segment_boundaries() {
    let ops = 3 * SEGMENT_SIZE + 7;
    let (obj, mut handles) = register_n(Counter::new(0), 2, UniversalConfig::default());
    let mut idle = handles.pop().unwrap();
    let mut busy = handles.pop().unwrap();
    for i in 0..ops {
        busy.invoke(CounterOp::Add(i as i64));
    }
    // The idle handle has replayed nothing; its read must walk the whole
    // chain, crossing every boundary, and converge on the busy replica.
    assert_eq!(idle.stats().replayed, 0);
    assert_eq!(
        idle.read(Counter::clone),
        busy.read(Counter::clone),
        "replicas converge across segments"
    );
    assert!(idle.stats().replayed >= ops, "idle handle replayed the full log");
    let installed = obj.stats().installed_segments;
    assert!(installed >= 3, "history spanned segments: {installed}");
}

#[test]
fn log_full_cap_is_enforced_beyond_the_first_segment() {
    // A cap past one segment: growth happens, then the cap bites.
    let cap = SEGMENT_SIZE + 6;
    let obj = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { cap: Some(cap), ..UniversalConfig::default() },
    );
    let mut h = obj.register();
    for _ in 0..cap {
        assert!(h.try_invoke(CounterOp::Add(1)).is_ok());
    }
    match h.try_invoke(CounterOp::Add(1)) {
        Err(UniversalError::LogFull { position, capacity }) => {
            assert_eq!(position, cap);
            assert_eq!(capacity, cap);
        }
        other => panic!("expected LogFull, got {other:?}"),
    }
    assert_eq!(obj.stats().installed_segments, 2, "the capped log still grew past segment one");
}

#[test]
fn live_segments_drop_back_after_truncation() {
    // The checkpointed path's memory bound: *live* segments (installed −
    // reclaimed) are governed by the frontier spread — how far apart the
    // handles' replay cursors are — not by total ops. Run one handle far
    // past many segments: installed keeps growing, live drops back.
    let every = SEGMENT_SIZE / 2;
    let obj = WfUniversal::with_config(
        Counter::new(0),
        UniversalConfig { checkpoint_every: Some(every), ..UniversalConfig::default() },
    );
    let mut h = obj.register();
    let mut live_high = 0;
    for _ in 0..8 * SEGMENT_SIZE {
        h.invoke(CounterOp::Add(1));
        live_high = live_high.max(obj.stats().live_segments);
    }
    let installed = obj.stats().installed_segments;
    assert!(installed >= 8, "history spanned many segments: {installed}");
    let reclaimed = obj.stats().reclaimed_segments;
    assert!(
        reclaimed >= installed - 3,
        "all but the frontier neighbourhood was reclaimed ({reclaimed} of {installed})"
    );
    // A single handle's frontier spread is at most one cadence plus the
    // current partial segment: live never exceeded a small constant.
    assert!(live_high <= 3, "live segments stayed bounded, peaked at {live_high}");
    let live = obj.stats().live_segments;
    assert!(live <= 2, "live segments dropped back: {live}");

    // An idle second handle is a frontier anchor: its spread — not total
    // ops — is what bounds memory. Registering it pins the current tail
    // only (it adopts the newest checkpoint), so growth stays bounded by
    // the *two* handles' spread.
    let mut idle = obj.register();
    for _ in 0..4 * SEGMENT_SIZE {
        h.invoke(CounterOp::Add(1));
    }
    let live = obj.stats().live_segments;
    assert!(live <= 2 + 4, "an idle-but-active frontier bounds live segments by its spread: {live}");
    // Once the idle handle catches up, the spread collapses again.
    // (Reclamation fires on checkpoint decides, not on frontier
    // publishes, so trigger a pass explicitly after the catch-up.)
    idle.read(|_| ());
    obj.reclaim();
    let live = obj.stats().live_segments;
    assert!(live <= 3, "catch-up collapses the spread: {live} live");
    assert_eq!(
        h.invoke(CounterOp::Get),
        CounterResp::Value((12 * SEGMENT_SIZE) as i64),
        "truncation is invisible to the abstract state"
    );
}
