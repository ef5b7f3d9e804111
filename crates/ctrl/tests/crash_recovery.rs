//! Kill–resume convergence: a controller crashed at an interval
//! boundary, mid-rollout-stage, or facing a corrupted checkpoint must
//! resume from durable state and converge to the *bit-identical*
//! replay fingerprint of an uninterrupted run, with exactly-once
//! rollout semantics (no acked stage is ever re-pushed).

use std::collections::{BTreeMap, BTreeSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use ffc_core::FfcConfig;
use ffc_ctrl::checkpoint::{decode_checkpoint, encode_checkpoint};
use ffc_ctrl::{
    config_digest, recover_latest, ChaosHooks, CheckpointState, Checkpointer, Controller,
    ControllerConfig, ControllerReport, Event, IntervalSink, IntervalTelemetry, TimedEvent,
};
use ffc_net::prelude::*;
use ffc_sim::SwitchModel;

fn diamond() -> (Topology, TrafficMatrix, TunnelTable) {
    let mut topo = Topology::new();
    let (a, b, c, d) = (
        topo.add_node("a"),
        topo.add_node("b"),
        topo.add_node("c"),
        topo.add_node("d"),
    );
    topo.add_bidi(a, b, 10.0);
    topo.add_bidi(b, d, 10.0);
    topo.add_bidi(a, c, 10.0);
    topo.add_bidi(c, d, 10.0);
    let mut tm = TrafficMatrix::new();
    tm.add_flow(a, d, 8.0, Priority::High);
    let tunnels = layout_tunnels(
        &topo,
        &tm,
        &LayoutConfig {
            tunnels_per_flow: 2,
            ..LayoutConfig::default()
        },
    );
    (topo, tm, tunnels)
}

fn base_cfg() -> ControllerConfig {
    ControllerConfig::new(FfcConfig::new(0, 1, 0), SwitchModel::Realistic)
}

/// Demand churn plus a fault: every interval re-solves and rolls out.
fn churn_events() -> Vec<TimedEvent> {
    vec![
        TimedEvent {
            interval: 1,
            event: Event::DemandScale(0.7),
        },
        TimedEvent {
            interval: 2,
            event: Event::LinkDown(LinkId(0)),
        },
        TimedEvent {
            interval: 3,
            event: Event::DemandScale(1.0),
        },
        TimedEvent {
            interval: 4,
            event: Event::LinkUp(LinkId(0)),
        },
    ]
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ffc-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const INTERVALS: usize = 6;

/// The ground truth: the same run, never interrupted, no checkpointing.
fn uninterrupted() -> ControllerReport {
    let (topo, tm, tunnels) = diamond();
    let mut ctrl = Controller::new(&topo, &tunnels, base_cfg());
    ctrl.run(&tm, &churn_events(), INTERVALS, false)
}

/// Runs with checkpointing and the given chaos crash hooks armed,
/// expecting a panic; returns the panic message.
fn run_until_crash(dir: &Path, hooks: ChaosHooks) -> String {
    let (topo, tm, tunnels) = diamond();
    let mut cfg = base_cfg();
    cfg.chaos = hooks;
    let digest = config_digest(&cfg, &topo, &tunnels, &tm);
    let mut ck = Checkpointer::create(dir, digest).expect("checkpointer");
    let mut ctrl = Controller::new(&topo, &tunnels, cfg);
    let events = churn_events();
    let panic = catch_unwind(AssertUnwindSafe(|| {
        ctrl.run_with_recovery(&tm, &events, INTERVALS, false, None, Some(&mut ck), None)
    }))
    .expect_err("the armed crash point must fire");
    assert!(
        ck.error().is_none(),
        "checkpointing failed: {:?}",
        ck.error()
    );
    panic
        .downcast_ref::<String>()
        .cloned()
        .expect("chaos crashes carry string payloads")
}

/// Recovers the newest valid checkpoint and finishes the run (fresh
/// process: new controller, crash hooks disarmed). Returns the report
/// and the recovery notes.
fn resume(dir: &Path) -> (ControllerReport, Vec<String>) {
    let (topo, tm, tunnels) = diamond();
    let cfg = base_cfg();
    let digest = config_digest(&cfg, &topo, &tunnels, &tm);
    let rec = recover_latest(dir, digest).expect("recover");
    let got = rec.checkpoint.expect("a valid checkpoint must exist");
    let mut ck = Checkpointer::create(dir, digest).expect("checkpointer");
    let mut ctrl = Controller::new(&topo, &tunnels, cfg);
    let events = churn_events();
    let report = ctrl.run_with_recovery(
        &tm,
        &events,
        INTERVALS,
        false,
        None,
        Some(&mut ck),
        Some(got.state),
    );
    (report, rec.notes)
}

/// No `(interval, switch, step)` ack appears twice — the recorded
/// stream is the ground truth for what was pushed to the switches.
fn assert_exactly_once(report: &ControllerReport) {
    let mut seen = std::collections::BTreeSet::new();
    for te in &report.recorded_events {
        if let Event::UpdateAck { switch, step, .. } = te.event {
            assert!(
                seen.insert((te.interval, switch, step)),
                "stage double-pushed: interval {} switch {:?} step {}",
                te.interval,
                switch,
                step
            );
        }
    }
}

#[test]
fn crash_at_interval_boundary_resumes_to_identical_fingerprint() {
    let dir = scratch_dir("boundary");
    let full = uninterrupted();
    let msg = run_until_crash(
        &dir,
        ChaosHooks {
            crash_at_interval: Some(2),
            ..ChaosHooks::default()
        },
    );
    assert!(msg.contains("interval boundary 2"), "{msg}");

    let (resumed, notes) = resume(&dir);
    assert!(notes.is_empty(), "clean files, no fallback: {notes:?}");
    assert_eq!(
        resumed.prior_fingerprints.len(),
        3,
        "intervals 0..=2 restored"
    );
    assert_eq!(
        resumed.telemetry.len(),
        INTERVALS - 3,
        "intervals 3.. re-run live"
    );
    assert_eq!(
        resumed.fingerprint(),
        full.fingerprint(),
        "resumed run must converge bit-identically"
    );
    assert_eq!(
        resumed.recorded_events, full.recorded_events,
        "identical sampling stream across the crash"
    );
    assert_eq!(
        resumed.totals.total_delivered().to_bits(),
        full.totals.total_delivered().to_bits()
    );
    assert_exactly_once(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_mid_rollout_stage_completes_exactly_once() {
    let dir = scratch_dir("midstage");
    let full = uninterrupted();
    // Interval 1 re-solves (demand drop) so its rollout has stages;
    // crash right after the first stage's checkpoint hits the write.
    let msg = run_until_crash(
        &dir,
        ChaosHooks {
            crash_mid_rollout: Some((1, 1)),
            ..ChaosHooks::default()
        },
    );
    assert!(msg.contains("mid-rollout interval 1 stage 1"), "{msg}");

    let (resumed, notes) = resume(&dir);
    assert!(notes.is_empty(), "{notes:?}");
    assert_eq!(resumed.prior_fingerprints.len(), 1, "interval 0 restored");
    assert_eq!(
        resumed.fingerprint(),
        full.fingerprint(),
        "mid-rollout resume must converge bit-identically"
    );
    assert_eq!(resumed.recorded_events, full.recorded_events);
    assert_exactly_once(&resumed);
    // The half-pushed interval's telemetry is re-derived, not lost.
    assert_eq!(resumed.telemetry.first().map(|t| t.interval), Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupted_newest_checkpoint_falls_back_and_still_converges() {
    let dir = scratch_dir("corrupt");
    let full = uninterrupted();
    let msg = run_until_crash(
        &dir,
        ChaosHooks {
            crash_at_interval: Some(3),
            ..ChaosHooks::default()
        },
    );
    assert!(msg.contains("interval boundary 3"), "{msg}");

    // Corrupt the newest checkpoint file: recovery must fall back to
    // the previous valid one (interval 2's boundary) and note it.
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ffck"))
        .collect();
    files.sort();
    let newest = files.last().expect("checkpoints exist");
    let mut bytes = std::fs::read(newest).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    std::fs::write(newest, &bytes).expect("write");

    let (resumed, notes) = resume(&dir);
    assert_eq!(notes.len(), 1, "one skipped-file note: {notes:?}");
    assert!(notes[0].contains("checksum mismatch"), "{}", notes[0]);
    assert_eq!(
        resumed.prior_fingerprints.len(),
        3,
        "fell back to the interval-2 boundary checkpoint"
    );
    assert_eq!(
        resumed.fingerprint(),
        full.fingerprint(),
        "fallback resume must still converge bit-identically"
    );
    assert_eq!(resumed.recorded_events, full.recorded_events);
    assert_exactly_once(&resumed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_under_a_different_configuration_is_refused() {
    let dir = scratch_dir("refuse");
    let _ = run_until_crash(
        &dir,
        ChaosHooks {
            crash_at_interval: Some(1),
            ..ChaosHooks::default()
        },
    );
    let (topo, tm, tunnels) = diamond();
    let mut other = base_cfg();
    other.seed = 4242;
    let digest = config_digest(&other, &topo, &tunnels, &tm);
    let err = recover_latest(&dir, digest).expect_err("digest mismatch is a hard error");
    assert!(err.contains("different run"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replayed_trace_of_a_resumed_run_reproduces_the_fingerprint() {
    // The recorded stream a resumed run emits is itself a valid trace:
    // replaying it end-to-end reproduces the converged fingerprint.
    let dir = scratch_dir("replay");
    let full = uninterrupted();
    let _ = run_until_crash(
        &dir,
        ChaosHooks {
            crash_mid_rollout: Some((2, 1)),
            ..ChaosHooks::default()
        },
    );
    let (resumed, _) = resume(&dir);
    assert_eq!(resumed.fingerprint(), full.fingerprint());

    let (topo, tm, tunnels) = diamond();
    let mut ctrl = Controller::new(&topo, &tunnels, base_cfg());
    let replayed = ctrl.run(&tm, &resumed.recorded_events, INTERVALS, true);
    assert_eq!(replayed.fingerprint(), full.fingerprint());
    let _ = std::fs::remove_dir_all(&dir);
}

// The `Checkpointer` keeps the encoding of the recorded event stream
// across writes and encodes only the events appended since the last
// one. Every file it writes must still be byte-identical to a
// from-scratch `encode_checkpoint` of the state it decodes to: in a
// fresh run, after a resume with a fresh writer, and after recovery
// fell back past corrupted files so that the stream a writer sees
// shrinks and its cache resets.

/// [`churn_events`] plus a demand change in the last interval, so that
/// every interval after the first re-solves and rolls out in stages.
fn churn_through_the_last_interval() -> Vec<TimedEvent> {
    let mut events = churn_events();
    events.push(TimedEvent {
        interval: INTERVALS - 1,
        event: Event::DemandScale(0.8),
    });
    events
}

/// The checkpoint files in `dir` by name, oldest first. A file that
/// vanishes while the directory is listed is left out: the sequence
/// check in [`assert_reencodes`] reports a file that was never copied.
fn checkpoint_files(dir: &Path) -> Vec<(String, PathBuf)> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<_> = entries
        .filter_map(|e| e.ok())
        .map(|e| (e.file_name().to_string_lossy().into_owned(), e.path()))
        .filter(|(name, _)| name.ends_with(".ffck"))
        .collect();
    files.sort();
    files
}

/// Copies every checkpoint file that appears at each interval, before
/// the writer prunes it; file names are never reused, so the copy is
/// the file as written. Files present before the run are left out.
struct Collector {
    dir: PathBuf,
    before: BTreeSet<String>,
    files: BTreeMap<String, Vec<u8>>,
}

impl Collector {
    fn new(dir: &Path) -> Self {
        Collector {
            dir: dir.to_path_buf(),
            before: checkpoint_files(dir).into_iter().map(|(n, _)| n).collect(),
            files: BTreeMap::new(),
        }
    }

    fn snap(&mut self) {
        for (name, path) in checkpoint_files(&self.dir) {
            if self.before.contains(&name) || self.files.contains_key(&name) {
                continue;
            }
            if let Ok(bytes) = std::fs::read(&path) {
                self.files.insert(name, bytes);
            }
        }
    }

    /// The files collected since the last call, in write order.
    fn take(&mut self) -> Vec<(String, Vec<u8>)> {
        self.snap();
        std::mem::take(&mut self.files).into_iter().collect()
    }
}

impl IntervalSink for Collector {
    fn record(&mut self, _: &IntervalTelemetry, _: &[f64]) {
        self.snap();
    }
}

/// Runs the controller, optionally from a resumed state, with `ck`
/// attached; `crash_at` arms an interval-boundary crash. Returns the
/// files it wrote.
fn run(
    dir: &Path,
    ck: &mut Checkpointer,
    resume: Option<CheckpointState>,
    crash_at: Option<usize>,
) -> Vec<(String, Vec<u8>)> {
    let (topo, tm, tunnels) = diamond();
    let mut cfg = base_cfg();
    cfg.chaos = ChaosHooks {
        crash_at_interval: crash_at,
        ..ChaosHooks::default()
    };
    let mut ctrl = Controller::new(&topo, &tunnels, cfg);
    let events = churn_through_the_last_interval();
    let mut sink = Collector::new(dir);
    let out = catch_unwind(AssertUnwindSafe(|| {
        ctrl.run_with_recovery(
            &tm,
            &events,
            INTERVALS,
            false,
            Some(&mut sink),
            Some(&mut *ck),
            resume,
        )
    }));
    assert_eq!(out.is_err(), crash_at.is_some(), "crash hook {crash_at:?}");
    assert!(ck.error().is_none(), "{:?}", ck.error());
    sink.take()
}

/// Decodes every file, re-encodes it from scratch and compares bytes.
/// Also checks that the files form one unbroken sequence (none was
/// pruned before it was copied). Returns the decoded states.
fn assert_reencodes(files: &[(String, Vec<u8>)], digest: u64) -> Vec<CheckpointState> {
    assert!(!files.is_empty(), "the run wrote checkpoints");
    let seqs: Vec<u64> = files
        .iter()
        .map(|(name, _)| name[5..13].parse().expect("ckpt-<seq>.ffck"))
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[1] == w[0] + 1),
        "every written file was copied: {seqs:?}"
    );
    files
        .iter()
        .map(|(name, bytes)| {
            let state = decode_checkpoint(bytes, name, digest).expect("valid checkpoint");
            assert!(
                encode_checkpoint(&state, digest) == *bytes,
                "{name}: cached encoding differs from a fresh one"
            );
            state
        })
        .collect()
}

/// The run wrote both interval-boundary and mid-rollout stage files.
fn assert_both_kinds(states: &[CheckpointState]) {
    let staged = states.iter().filter(|s| s.inflight.is_some()).count();
    let boundary = states.len() - staged;
    assert!(
        boundary > 0 && staged > 0,
        "{boundary} boundary, {staged} stage"
    );
}

#[test]
fn cached_checkpoints_are_byte_identical_across_resume_and_fallback() {
    let dir = scratch_dir("ckcache");
    let (topo, tm, tunnels) = diamond();
    let digest = config_digest(&base_cfg(), &topo, &tunnels, &tm);

    // A fresh run, crashed at the interval-2 boundary.
    let mut ck = Checkpointer::create(&dir, digest).expect("checkpointer");
    let first = assert_reencodes(&run(&dir, &mut ck, None, Some(2)), digest);
    assert_both_kinds(&first);

    // Resume with a fresh writer on the same directory.
    let rec = recover_latest(&dir, digest).expect("recover");
    assert!(rec.notes.is_empty(), "{:?}", rec.notes);
    let state = rec.checkpoint.expect("a checkpoint").state;
    let mut ck = Checkpointer::create(&dir, digest).expect("checkpointer");
    let second = assert_reencodes(&run(&dir, &mut ck, Some(state), None), digest);
    assert_both_kinds(&second);
    let last = second.last().expect("files");
    assert_eq!(last.next_interval, INTERVALS);

    // Corrupt every file newer than the interval-4 boundary, so that
    // recovery falls back to it, and resume with the same writer: its
    // cache holds the finished run's stream, and interval 5's first stage
    // write hands it a shorter one.
    let mut corrupted = 0;
    for (name, path) in checkpoint_files(&dir).into_iter().rev() {
        let mut bytes = std::fs::read(&path).expect("read");
        let state = decode_checkpoint(&bytes, &name, digest).expect("valid checkpoint");
        if state.next_interval == INTERVALS - 1 && state.inflight.is_none() {
            break;
        }
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        corrupted += 1;
    }
    let rec = recover_latest(&dir, digest).expect("recover");
    assert_eq!(rec.notes.len(), corrupted, "{:?}", rec.notes);
    assert!(corrupted > 0);
    let state = rec.checkpoint.expect("an older checkpoint").state;
    assert_eq!(state.next_interval, INTERVALS - 1);
    assert!(state.inflight.is_none());
    let third = assert_reencodes(&run(&dir, &mut ck, Some(state), None), digest);
    let shrunk = &third.first().expect("files").recorded;
    assert!(
        shrunk.len() < last.recorded.len(),
        "the writer saw a shorter stream than it cached"
    );
    assert_eq!(third.last().expect("files"), last, "same end state");
    let _ = std::fs::remove_dir_all(&dir);
}
