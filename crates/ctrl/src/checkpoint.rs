//! Durable crash checkpoints of the controller loop.
//!
//! A checkpoint externalizes **everything** the controller needs to
//! continue a run bit-identically after a crash: the versioned config
//! store (installed / last-known-good / staged, plus the chained
//! warm-basis hint), the planner's degradation-ladder position, the
//! active fault scenario, the live-sampling RNG state, the mutated
//! traffic matrix, aggregate totals, the fingerprint lines of every
//! completed interval, the recorded event stream, and — when a rollout
//! was in flight — the interval's complete sampled outcome log plus
//! the post-sampling RNG state.
//!
//! The on-disk format reuses the durable-file idioms of
//! `ffc-fleet::store` (shared via [`crate::durable`]): a magic line, a
//! schema version, a run-configuration digest, a binary body, and an
//! FNV-64 checksum footer with an end marker. Files are written with
//! temp-file + rename so a crash mid-write never damages an existing
//! checkpoint, and recovery scans newest-to-oldest, skipping torn or
//! corrupt files (with a note) until it finds a valid one — the same
//! torn-tail tolerance the telemetry store has.
//!
//! Exactly-once rollout across a crash: because the executor samples
//! *all* switch outcomes before issuing the first step, a mid-rollout
//! checkpoint already carries the interval's full outcome log. A
//! resume replans the interval deterministically from the boundary
//! state and feeds the log back through
//! [`OutcomeSource::Recorded`](crate::executor::OutcomeSource) — acked
//! stages are consumed from the durable log, never re-pushed, and the
//! remaining stages complete (or the commit falls back to
//! last-known-good) exactly as the crashed run would have.

use std::fs;
use std::path::{Path, PathBuf};

use ffc_core::TeConfig;
use ffc_lp::{BasisStatuses, ColStatus};
use ffc_net::{Topology, TrafficMatrix, TunnelTable};

use crate::durable::{
    fnv64, io_err, put_bytes, put_f64, put_u32, put_u64, put_varint, write_atomic, Cursor,
};
use crate::event::TimedEvent;
use crate::planner::PlannerSnapshot;
use crate::state::{HintShape, StoreSnapshot, VersionedConfig};
use crate::ControllerConfig;

/// First line of every checkpoint file.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"FFCKPT1\n";
/// Trailing end marker (after the checksum).
pub const CHECKPOINT_END: &[u8; 8] = b"FFCKEND\n";
/// Bumped on any incompatible change to the checkpoint body layout.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;
/// How many checkpoint files [`Checkpointer`] retains: the newest may
/// be torn by a crash mid-rename-window or corrupted on disk, so
/// recovery needs older fallbacks.
pub const CHECKPOINT_KEEP: usize = 3;

/// A rollout that was in flight when the checkpoint was written: the
/// stage the controller had issued, the interval's complete sampled
/// outcome log, and the RNG state after outcome sampling. Everything
/// else about the interval (the plan, the schedule) is re-derived
/// deterministically from the boundary state on resume.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightRollout {
    /// The interval whose rollout was in flight.
    pub interval: usize,
    /// Rollout steps fully issued when the checkpoint was written —
    /// these are *acked* and must never be re-pushed.
    pub stage_reached: usize,
    /// Steps in the congestion-free plan (sanity cross-check).
    pub steps_planned: usize,
    /// RNG state after the interval's outcome sampling; the state a
    /// resume continues later intervals from.
    pub rng_after: [u64; 4],
    /// The complete sampled outcome log (acks + timeouts) for the
    /// interval — the executor samples everything up front, so this is
    /// total even when the crash hit the first stage.
    pub outcomes: Vec<TimedEvent>,
}

/// The complete externalized controller state at a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// The next interval the loop would run (== intervals completed).
    pub next_interval: usize,
    /// Current per-flow demands (the traffic matrix as mutated by the
    /// event stream so far), in `FlowId` order.
    pub demands: Vec<f64>,
    /// The versioned config store, including the chained basis hint.
    pub store: StoreSnapshot,
    /// The planner's degradation-ladder position.
    pub planner: PlannerSnapshot,
    /// Failed-link indices of the active fault scenario.
    pub failed_links: Vec<usize>,
    /// Failed-switch indices of the active fault scenario.
    pub failed_switches: Vec<usize>,
    /// Live-sampling RNG state at the interval boundary.
    pub rng: [u64; 4],
    /// Aggregate `[delivered, lost_congestion, lost_blackhole]`, each
    /// per priority class.
    pub totals: [[f64; 3]; 3],
    /// Fingerprint line of every completed interval, in order — what
    /// makes a resumed run's report fingerprint bit-identical to an
    /// uninterrupted run's.
    pub fingerprints: Vec<String>,
    /// The recorded event stream so far (inputs + sampled outcomes).
    pub recorded: Vec<TimedEvent>,
    /// The in-flight rollout, if the checkpoint was written at a
    /// rollout-stage boundary rather than an interval boundary.
    pub inflight: Option<InflightRollout>,
}

/// Why a checkpoint file was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum CheckpointError {
    /// Torn, truncated, or corrupt — recovery skips it and falls back
    /// to an older checkpoint.
    Invalid(String),
    /// Structurally valid but written by a different run configuration
    /// or schema — resuming from it would silently diverge, so this is
    /// a hard error.
    Mismatch(String),
}

/// Digest of everything that must be identical between the run that
/// wrote a checkpoint and the run resuming from it: the controller
/// configuration knobs that shape planning/rollout/sampling, and the
/// identity of the topology, tunnel layout, and base traffic matrix.
/// Two runs with equal digests re-derive identical per-interval
/// behaviour from a restored state.
pub fn config_digest(
    cfg: &ControllerConfig,
    topo: &Topology,
    tunnels: &TunnelTable,
    base_tm: &TrafficMatrix,
) -> u64 {
    let mut buf = Vec::with_capacity(256);
    put_u64(&mut buf, cfg.seed);
    put_varint(&mut buf, cfg.ffc.kc as u64);
    put_varint(&mut buf, cfg.ffc.ke as u64);
    put_varint(&mut buf, cfg.ffc.kv as u64);
    put_f64(&mut buf, cfg.interval_secs);
    put_f64(&mut buf, cfg.retry_timeout_secs);
    put_varint(&mut buf, cfg.max_retries as u64);
    put_varint(&mut buf, cfg.max_update_steps as u64);
    put_varint(&mut buf, cfg.rules_per_update as u64);
    put_varint(&mut buf, cfg.recovery_probe as u64);
    put_bytes(&mut buf, format!("{:?}", cfg.switch_model).as_bytes());
    put_varint(&mut buf, topo.num_nodes() as u64);
    put_varint(&mut buf, topo.num_links() as u64);
    for e in topo.links() {
        put_f64(&mut buf, topo.capacity(e));
    }
    put_varint(&mut buf, base_tm.len() as u64);
    for (_, f) in base_tm.iter() {
        put_varint(&mut buf, f.src.index() as u64);
        put_varint(&mut buf, f.dst.index() as u64);
        put_f64(&mut buf, f.demand);
        put_bytes(&mut buf, format!("{:?}", f.priority).as_bytes());
    }
    put_varint(&mut buf, tunnels.num_flows() as u64);
    put_varint(&mut buf, tunnels.total_tunnels() as u64);
    fnv64(&buf)
}

fn put_te_config(buf: &mut Vec<u8>, c: &TeConfig) {
    put_varint(buf, c.rate.len() as u64);
    for &r in &c.rate {
        put_f64(buf, r);
    }
    put_varint(buf, c.alloc.len() as u64);
    for row in &c.alloc {
        put_varint(buf, row.len() as u64);
        for &a in row {
            put_f64(buf, a);
        }
    }
}

fn read_te_config(cur: &mut Cursor<'_>) -> Result<TeConfig, String> {
    let n = cur.varint("rate len")? as usize;
    let mut rate = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        rate.push(cur.f64("rate")?);
    }
    let m = cur.varint("alloc len")? as usize;
    let mut alloc = Vec::with_capacity(m.min(1 << 20));
    for _ in 0..m {
        let k = cur.varint("alloc row len")? as usize;
        let mut row = Vec::with_capacity(k.min(1 << 20));
        for _ in 0..k {
            row.push(cur.f64("alloc")?);
        }
        alloc.push(row);
    }
    Ok(TeConfig { rate, alloc })
}

fn put_versioned(buf: &mut Vec<u8>, v: &VersionedConfig) {
    put_varint(buf, v.version);
    put_te_config(buf, &v.config);
}

fn read_versioned(cur: &mut Cursor<'_>) -> Result<VersionedConfig, String> {
    Ok(VersionedConfig {
        version: cur.varint("config version")?,
        config: read_te_config(cur)?,
    })
}

fn status_code(s: ColStatus) -> u8 {
    match s {
        ColStatus::Basic => 0,
        ColStatus::Lower => 1,
        ColStatus::Upper => 2,
        ColStatus::Free => 3,
    }
}

fn status_from_code(b: u8) -> Result<ColStatus, String> {
    Ok(match b {
        0 => ColStatus::Basic,
        1 => ColStatus::Lower,
        2 => ColStatus::Upper,
        3 => ColStatus::Free,
        _ => return Err(format!("unknown basis status code {b}")),
    })
}

fn put_events(buf: &mut Vec<u8>, events: &[TimedEvent]) {
    put_varint(buf, events.len() as u64);
    for te in events {
        put_bytes(buf, te.to_line().as_bytes());
    }
}

fn read_events(cur: &mut Cursor<'_>, what: &str) -> Result<Vec<TimedEvent>, String> {
    let n = cur.varint(what)? as usize;
    let mut out = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let line = cur.string(what)?;
        out.push(TimedEvent::parse_line(&line)?);
    }
    Ok(out)
}

/// The encoding of a prefix of the recorded event stream, kept across
/// checkpoint writes. Within a run the stream only grows — the input
/// events come first, then sampled outcomes are appended — so each
/// write encodes only the events that are new since the last one.
#[derive(Debug, Default)]
struct RecordedCache {
    /// How many events `bytes` encodes.
    count: usize,
    /// The last of them: a stream whose event at that position differs
    /// is not an extension of the cached prefix.
    last: Option<TimedEvent>,
    /// The length-prefixed lines of those events, as [`put_events`]
    /// writes them after the count.
    bytes: Vec<u8>,
}

impl RecordedCache {
    /// Appends `events` to `buf` exactly as [`put_events`] would,
    /// reusing the cached prefix when `events` extends it.
    fn put(&mut self, buf: &mut Vec<u8>, events: &[TimedEvent]) {
        let extends = match &self.last {
            Some(last) => events.get(self.count - 1) == Some(last),
            None => true,
        };
        if !extends {
            *self = RecordedCache::default();
        }
        for te in &events[self.count..] {
            put_bytes(&mut self.bytes, te.to_line().as_bytes());
        }
        self.count = events.len();
        self.last = events.last().cloned();
        put_varint(buf, events.len() as u64);
        buf.extend_from_slice(&self.bytes);
    }
}

/// Serializes a checkpoint, checksum footer included.
pub fn encode_checkpoint(state: &CheckpointState, digest: u64) -> Vec<u8> {
    encode_with_cache(state, digest, &mut RecordedCache::default())
}

fn encode_with_cache(state: &CheckpointState, digest: u64, cache: &mut RecordedCache) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4096 + cache.bytes.len());
    buf.extend_from_slice(CHECKPOINT_MAGIC);
    put_u32(&mut buf, CHECKPOINT_SCHEMA_VERSION);
    put_u64(&mut buf, digest);

    put_varint(&mut buf, state.next_interval as u64);
    put_varint(&mut buf, state.demands.len() as u64);
    for &d in &state.demands {
        put_f64(&mut buf, d);
    }

    put_versioned(&mut buf, &state.store.installed);
    put_versioned(&mut buf, &state.store.last_good);
    match &state.store.staged {
        Some(v) => {
            buf.push(1);
            put_versioned(&mut buf, v);
        }
        None => buf.push(0),
    }
    put_varint(&mut buf, state.store.next_version);
    match &state.store.hint {
        Some((basis, shape)) => {
            buf.push(1);
            put_varint(&mut buf, basis.0.len() as u64);
            for &s in &basis.0 {
                buf.push(status_code(s));
            }
            for &k in &[shape.0, shape.1, shape.2, shape.3] {
                put_varint(&mut buf, k as u64);
            }
        }
        None => buf.push(0),
    }

    for &k in &[
        state.planner.requested.0,
        state.planner.requested.1,
        state.planner.requested.2,
        state.planner.current.0,
        state.planner.current.1,
        state.planner.current.2,
    ] {
        put_varint(&mut buf, k as u64);
    }
    buf.push(state.planner.rescale_only as u8);
    put_varint(&mut buf, state.planner.intervals_since_probe as u64);

    put_varint(&mut buf, state.failed_links.len() as u64);
    for &l in &state.failed_links {
        put_varint(&mut buf, l as u64);
    }
    put_varint(&mut buf, state.failed_switches.len() as u64);
    for &v in &state.failed_switches {
        put_varint(&mut buf, v as u64);
    }

    for &w in &state.rng {
        put_u64(&mut buf, w);
    }
    for row in &state.totals {
        for &x in row {
            put_f64(&mut buf, x);
        }
    }

    put_varint(&mut buf, state.fingerprints.len() as u64);
    for line in &state.fingerprints {
        put_bytes(&mut buf, line.as_bytes());
    }
    cache.put(&mut buf, &state.recorded);

    match &state.inflight {
        Some(f) => {
            buf.push(1);
            put_varint(&mut buf, f.interval as u64);
            put_varint(&mut buf, f.stage_reached as u64);
            put_varint(&mut buf, f.steps_planned as u64);
            for &w in &f.rng_after {
                put_u64(&mut buf, w);
            }
            put_events(&mut buf, &f.outcomes);
        }
        None => buf.push(0),
    }

    let checksum = fnv64(&buf);
    put_u64(&mut buf, checksum);
    buf.extend_from_slice(CHECKPOINT_END);
    buf
}

fn read_body(cur: &mut Cursor<'_>) -> Result<CheckpointState, String> {
    let next_interval = cur.varint("next interval")? as usize;
    let n = cur.varint("demand count")? as usize;
    let mut demands = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        demands.push(cur.f64("demand")?);
    }

    let installed = read_versioned(cur)?;
    let last_good = read_versioned(cur)?;
    let staged = match cur.take(1, "staged flag")?[0] {
        0 => None,
        _ => Some(read_versioned(cur)?),
    };
    let next_version = cur.varint("next version")?;
    let hint = match cur.take(1, "hint flag")?[0] {
        0 => None,
        _ => {
            let k = cur.varint("basis len")? as usize;
            let raw = cur.take(k, "basis statuses")?;
            let mut statuses = Vec::with_capacity(k);
            for &b in raw {
                statuses.push(status_from_code(b)?);
            }
            let shape: HintShape = (
                cur.varint("shape kc")? as usize,
                cur.varint("shape ke")? as usize,
                cur.varint("shape kv")? as usize,
                cur.varint("shape flows")? as usize,
            );
            Some((BasisStatuses(statuses), shape))
        }
    };
    let store = StoreSnapshot {
        installed,
        last_good,
        staged,
        next_version,
        hint,
    };

    let planner = PlannerSnapshot {
        requested: (
            cur.varint("req kc")? as usize,
            cur.varint("req ke")? as usize,
            cur.varint("req kv")? as usize,
        ),
        current: (
            cur.varint("cur kc")? as usize,
            cur.varint("cur ke")? as usize,
            cur.varint("cur kv")? as usize,
        ),
        rescale_only: cur.take(1, "rescale flag")?[0] != 0,
        intervals_since_probe: cur.varint("probe counter")? as usize,
    };

    let nl = cur.varint("failed link count")? as usize;
    let mut failed_links = Vec::with_capacity(nl.min(1 << 20));
    for _ in 0..nl {
        failed_links.push(cur.varint("failed link")? as usize);
    }
    let ns = cur.varint("failed switch count")? as usize;
    let mut failed_switches = Vec::with_capacity(ns.min(1 << 20));
    for _ in 0..ns {
        failed_switches.push(cur.varint("failed switch")? as usize);
    }

    let mut rng = [0u64; 4];
    for w in &mut rng {
        *w = cur.u64("rng word")?;
    }
    let mut totals = [[0.0f64; 3]; 3];
    for row in &mut totals {
        for x in row.iter_mut() {
            *x = cur.f64("totals")?;
        }
    }

    let nf = cur.varint("fingerprint count")? as usize;
    let mut fingerprints = Vec::with_capacity(nf.min(1 << 20));
    for _ in 0..nf {
        fingerprints.push(cur.string("fingerprint line")?);
    }
    let recorded = read_events(cur, "recorded event")?;

    let inflight = match cur.take(1, "inflight flag")?[0] {
        0 => None,
        _ => {
            let interval = cur.varint("inflight interval")? as usize;
            let stage_reached = cur.varint("stage reached")? as usize;
            let steps_planned = cur.varint("steps planned")? as usize;
            let mut rng_after = [0u64; 4];
            for w in &mut rng_after {
                *w = cur.u64("inflight rng word")?;
            }
            let outcomes = read_events(cur, "inflight outcome")?;
            Some(InflightRollout {
                interval,
                stage_reached,
                steps_planned,
                rng_after,
                outcomes,
            })
        }
    };

    Ok(CheckpointState {
        next_interval,
        demands,
        store,
        planner,
        failed_links,
        failed_switches,
        rng,
        totals,
        fingerprints,
        recorded,
        inflight,
    })
}

/// Deserializes and validates a checkpoint file: magic, end marker,
/// checksum, schema version, and run-configuration digest all have to
/// check out before the body is trusted.
pub fn decode_checkpoint(
    bytes: &[u8],
    file: &str,
    expect_digest: u64,
) -> Result<CheckpointState, CheckpointError> {
    let min = CHECKPOINT_MAGIC.len() + 4 + 8 + 8 + CHECKPOINT_END.len();
    if bytes.len() < min {
        return Err(CheckpointError::Invalid(format!(
            "{file}: {} bytes, shorter than the minimal checkpoint ({min})",
            bytes.len()
        )));
    }
    if &bytes[..CHECKPOINT_MAGIC.len()] != CHECKPOINT_MAGIC {
        return Err(CheckpointError::Invalid(format!(
            "{file}: bad magic (not a checkpoint file)"
        )));
    }
    if &bytes[bytes.len() - CHECKPOINT_END.len()..] != CHECKPOINT_END {
        return Err(CheckpointError::Invalid(format!(
            "{file}: missing end marker (torn write)"
        )));
    }
    let body_end = bytes.len() - CHECKPOINT_END.len() - 8;
    let mut fcur = Cursor::at(bytes, body_end, file);
    let stored = fcur.u64("checksum").map_err(CheckpointError::Invalid)?;
    let actual = fnv64(&bytes[..body_end]);
    if stored != actual {
        return Err(CheckpointError::Invalid(format!(
            "{file}: checksum mismatch (stored {stored:#018x}, computed {actual:#018x})"
        )));
    }
    let mut cur = Cursor::at(&bytes[..body_end], CHECKPOINT_MAGIC.len(), file);
    let version = cur
        .u32("schema version")
        .map_err(CheckpointError::Invalid)?;
    if version != CHECKPOINT_SCHEMA_VERSION {
        return Err(CheckpointError::Mismatch(format!(
            "{file}: checkpoint schema v{version}, this binary reads v{CHECKPOINT_SCHEMA_VERSION}"
        )));
    }
    let digest = cur.u64("config digest").map_err(CheckpointError::Invalid)?;
    if digest != expect_digest {
        return Err(CheckpointError::Mismatch(format!(
            "{file}: checkpoint belongs to a different run configuration \
             (digest {digest:#018x}, this run {expect_digest:#018x})"
        )));
    }
    read_body(&mut cur).map_err(CheckpointError::Invalid)
}

/// Writes checkpoints into a directory as `ckpt-<seq>.ffck`, atomically
/// (temp + rename), pruning all but the newest [`CHECKPOINT_KEEP`].
///
/// A write failure latches: checkpointing degrades to a no-op and the
/// first error is reported via [`Checkpointer::error`] — a full disk
/// must not kill the controller, it just loses crash coverage.
#[derive(Debug)]
pub struct Checkpointer {
    dir: PathBuf,
    digest: u64,
    next_seq: u64,
    error: Option<String>,
    recorded: RecordedCache,
}

impl Checkpointer {
    /// Opens (creating if needed) a checkpoint directory. Sequence
    /// numbers continue after any checkpoints already present, so a
    /// resumed run never overwrites the files it recovered from.
    pub fn create(dir: &Path, digest: u64) -> Result<Checkpointer, String> {
        fs::create_dir_all(dir).map_err(|e| io_err(dir, "create checkpoint dir", e))?;
        let next_seq = list_checkpoints(dir)?.last().map_or(0, |&(seq, _)| seq + 1);
        Ok(Checkpointer {
            dir: dir.to_path_buf(),
            digest,
            next_seq,
            error: None,
            recorded: RecordedCache::default(),
        })
    }

    /// The checkpoint directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes one checkpoint; errors latch instead of propagating.
    pub fn write(&mut self, state: &CheckpointState) {
        if self.error.is_some() {
            return;
        }
        let path = self.dir.join(format!("ckpt-{:08}.ffck", self.next_seq));
        let bytes = encode_with_cache(state, self.digest, &mut self.recorded);
        match write_atomic(&path, &bytes) {
            Ok(()) => {
                self.next_seq += 1;
                self.prune();
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// The first write error, if checkpointing has failed and latched.
    pub fn error(&self) -> Option<&str> {
        self.error.as_deref()
    }

    fn prune(&self) {
        if let Ok(files) = list_checkpoints(&self.dir) {
            if files.len() > CHECKPOINT_KEEP {
                for (_, path) in &files[..files.len() - CHECKPOINT_KEEP] {
                    // Best effort: a stale extra checkpoint is harmless.
                    let _ = fs::remove_file(path);
                }
            }
        }
    }
}

/// Checkpoint files in `dir`, sorted by ascending sequence number.
fn list_checkpoints(dir: &Path) -> Result<Vec<(u64, PathBuf)>, String> {
    let rd = fs::read_dir(dir).map_err(|e| io_err(dir, "read checkpoint dir", e))?;
    let mut files = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| io_err(dir, "scan checkpoint dir", e))?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(seq) = name
            .strip_prefix("ckpt-")
            .and_then(|r| r.strip_suffix(".ffck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            files.push((seq, entry.path()));
        }
    }
    files.sort_unstable_by_key(|&(seq, _)| seq);
    Ok(files)
}

/// A successfully recovered checkpoint.
#[derive(Debug)]
pub struct RecoveredCheckpoint {
    /// The restored state.
    pub state: CheckpointState,
    /// Sequence number of the file it came from.
    pub seq: u64,
    /// File name it came from.
    pub file: String,
}

/// The result of scanning a checkpoint directory.
#[derive(Debug)]
pub struct Recovery {
    /// The newest valid checkpoint, if any file survived validation.
    pub checkpoint: Option<RecoveredCheckpoint>,
    /// One note per newer file that was skipped as torn or corrupt —
    /// surfaced in reports, mirroring the telemetry store's
    /// `recovery_notes`.
    pub notes: Vec<String>,
}

/// Scans `dir` newest-to-oldest for a valid checkpoint matching this
/// run's configuration digest. Torn or corrupt files are skipped with
/// a note (crash-tolerant fallback); a checkpoint from a *different*
/// configuration is a hard error — resuming from it would silently
/// diverge.
pub fn recover_latest(dir: &Path, digest: u64) -> Result<Recovery, String> {
    let files = list_checkpoints(dir)?;
    let mut notes = Vec::new();
    for (seq, path) in files.iter().rev() {
        let file = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let bytes = match fs::read(path) {
            Ok(b) => b,
            Err(e) => {
                notes.push(format!("skipped {}", io_err(path, "read", e)));
                continue;
            }
        };
        match decode_checkpoint(&bytes, &file, digest) {
            Ok(state) => {
                return Ok(Recovery {
                    checkpoint: Some(RecoveredCheckpoint {
                        state,
                        seq: *seq,
                        file,
                    }),
                    notes,
                })
            }
            Err(CheckpointError::Invalid(e)) => notes.push(format!("skipped {e}")),
            Err(CheckpointError::Mismatch(e)) => return Err(e),
        }
    }
    Ok(Recovery {
        checkpoint: None,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use ffc_net::NodeId;

    fn te(rate: f64) -> TeConfig {
        TeConfig {
            rate: vec![rate, rate * 0.5],
            alloc: vec![vec![rate, 0.0], vec![0.25, rate]],
        }
    }

    fn sample_state() -> CheckpointState {
        CheckpointState {
            next_interval: 7,
            demands: vec![8.0, 0.125, 3.5],
            store: StoreSnapshot {
                installed: VersionedConfig {
                    version: 9,
                    config: te(2.0),
                },
                last_good: VersionedConfig {
                    version: 8,
                    config: te(1.5),
                },
                staged: Some(VersionedConfig {
                    version: 10,
                    config: te(3.0),
                }),
                next_version: 11,
                hint: Some((
                    BasisStatuses(vec![
                        ColStatus::Basic,
                        ColStatus::Lower,
                        ColStatus::Upper,
                        ColStatus::Free,
                    ]),
                    (2, 1, 0, 3),
                )),
            },
            planner: PlannerSnapshot {
                requested: (2, 1, 0),
                current: (1, 1, 0),
                rescale_only: false,
                intervals_since_probe: 2,
            },
            failed_links: vec![0, 5],
            failed_switches: vec![3],
            rng: [1, 2, 3, u64::MAX],
            totals: [[10.0, 0.5, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 1.0]],
            fingerprints: vec!["i0 ok".into(), "i1 ok".into()],
            recorded: vec![
                TimedEvent {
                    interval: 1,
                    event: Event::DemandScale(1.25),
                },
                TimedEvent {
                    interval: 2,
                    event: Event::UpdateAck {
                        switch: NodeId(0),
                        step: 1,
                        delay: 0.5,
                    },
                },
            ],
            inflight: Some(InflightRollout {
                interval: 7,
                stage_reached: 2,
                steps_planned: 3,
                rng_after: [5, 6, 7, 8],
                outcomes: vec![TimedEvent {
                    interval: 7,
                    event: Event::UpdateTimeout {
                        switch: NodeId(2),
                        step: 0,
                    },
                }],
            }),
        }
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ffc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn encode_decode_round_trip_is_identity() {
        let state = sample_state();
        let bytes = encode_checkpoint(&state, 0xdead_beef);
        let back = decode_checkpoint(&bytes, "t", 0xdead_beef).expect("decode");
        assert_eq!(back, state);

        // Minimal state (no staged, no hint, no inflight) too.
        let mut min = sample_state();
        min.store.staged = None;
        min.store.hint = None;
        min.inflight = None;
        min.recorded.clear();
        min.fingerprints.clear();
        let bytes = encode_checkpoint(&min, 1);
        assert_eq!(decode_checkpoint(&bytes, "t", 1).expect("decode"), min);
    }

    /// The cached encoding of the recorded stream equals a fresh one
    /// whether the stream grows, shrinks, or changes its last event.
    #[test]
    fn recorded_cache_matches_a_fresh_encoding_as_the_stream_changes() {
        let ev = |interval, scale| TimedEvent {
            interval,
            event: Event::DemandScale(scale),
        };
        let grown: Vec<TimedEvent> = (0..6).map(|i| ev(i, 1.0 + i as f64)).collect();
        let mut changed_last = grown[..4].to_vec();
        changed_last[3] = ev(3, 0.5);
        let mut cache = RecordedCache::default();
        for stream in [
            &grown[..0],
            &grown[..2],
            &grown[..5],
            &grown[..],
            &grown[..3],
            &grown[..4],
            &changed_last[..],
            &changed_last[..0],
            &grown[..],
        ] {
            let (mut cached, mut fresh) = (Vec::new(), Vec::new());
            cache.put(&mut cached, stream);
            put_events(&mut fresh, stream);
            assert_eq!(cached, fresh, "{} events", stream.len());
        }
    }

    #[test]
    fn truncation_at_every_offset_is_invalid_never_a_panic() {
        let bytes = encode_checkpoint(&sample_state(), 42);
        for cut in 0..bytes.len() {
            match decode_checkpoint(&bytes[..cut], "t", 42) {
                Err(CheckpointError::Invalid(_)) => {}
                other => panic!("cut at {cut}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_single_byte_flip_in_the_body_is_detected() {
        let good = encode_checkpoint(&sample_state(), 42);
        // Flipping any body byte must trip the checksum (or the magic);
        // a flip inside the footer trips the checksum comparison or the
        // end marker. Nothing may decode successfully or panic.
        for i in 0..good.len() {
            let mut bad = good.clone();
            bad[i] ^= 0x40;
            assert!(
                decode_checkpoint(&bad, "t", 42).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn digest_and_schema_mismatches_are_hard_errors() {
        let bytes = encode_checkpoint(&sample_state(), 42);
        match decode_checkpoint(&bytes, "t", 43) {
            Err(CheckpointError::Mismatch(e)) => {
                assert!(e.contains("different run"), "{e}")
            }
            other => panic!("expected Mismatch, got {other:?}"),
        }
    }

    #[test]
    fn checkpointer_prunes_and_recovers_the_newest() {
        let dir = scratch_dir("prune");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        for i in 0..5 {
            let mut st = sample_state();
            st.next_interval = i;
            ck.write(&st);
        }
        assert!(ck.error().is_none());
        let files = list_checkpoints(&dir).expect("list");
        assert_eq!(files.len(), CHECKPOINT_KEEP, "pruned to the keep limit");
        assert_eq!(files.last().map(|&(s, _)| s), Some(4));

        let rec = recover_latest(&dir, 7).expect("recover");
        let got = rec.checkpoint.expect("newest");
        assert_eq!(got.state.next_interval, 4);
        assert_eq!(got.seq, 4);
        assert!(rec.notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_falls_back_past_corrupt_and_torn_files_with_notes() {
        let dir = scratch_dir("fallback");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        for i in 0..3 {
            let mut st = sample_state();
            st.next_interval = i;
            ck.write(&st);
        }
        // Corrupt the newest (bit flip) and tear the middle one.
        let files = list_checkpoints(&dir).expect("list");
        let newest = &files[2].1;
        let mut bytes = fs::read(newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(newest, &bytes).expect("write");
        let middle = &files[1].1;
        let bytes = fs::read(middle).expect("read");
        fs::write(middle, &bytes[..bytes.len() / 3]).expect("write");

        let rec = recover_latest(&dir, 7).expect("recover");
        let got = rec.checkpoint.expect("oldest survives");
        assert_eq!(got.state.next_interval, 0, "fell back to the valid one");
        assert_eq!(
            rec.notes.len(),
            2,
            "one note per skipped file: {:?}",
            rec.notes
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_of_a_foreign_run_is_a_hard_error() {
        let dir = scratch_dir("foreign");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        ck.write(&sample_state());
        let err = recover_latest(&dir, 8).expect_err("digest mismatch");
        assert!(err.contains("different run"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_directory_recovers_to_nothing() {
        let dir = scratch_dir("empty");
        let rec = recover_latest(&dir, 7).expect("recover");
        assert!(rec.checkpoint.is_none());
        assert!(rec.notes.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sequence_numbers_continue_after_reopen() {
        let dir = scratch_dir("reopen");
        let mut ck = Checkpointer::create(&dir, 7).expect("create");
        ck.write(&sample_state());
        drop(ck);
        let mut ck = Checkpointer::create(&dir, 7).expect("reopen");
        ck.write(&sample_state());
        let files = list_checkpoints(&dir).expect("list");
        assert_eq!(
            files.iter().map(|&(s, _)| s).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
