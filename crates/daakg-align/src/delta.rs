//! Live KG updates: the append-only delta layer beside a published
//! snapshot.
//!
//! Published snapshots (PR 4) are immutable — right for readers, wrong as
//! the *only* write path when the KGs keep growing mid-campaign. This
//! module adds the missing write path without giving up any read-side
//! guarantee:
//!
//! * `DeltaBuffer` — an append-only side corpus of new right-KG
//!   entities. Each entry's embedding is trained by the warm-start path
//!   ([`daakg_embed::warm_start_row`]) against the frozen published
//!   tables, then **normalized exactly as snapshot construction
//!   normalizes its slabs** (per-row, independent), so a delta row scores
//!   bit-for-bit as if it had been part of the base candidate matrix.
//! * `DeltaSlab` — the query-facing view: normalized pending rows,
//!   transposed for the shared [`daakg_index::scan::scan_block`] kernel,
//!   with global candidate ids threaded through the kernel's remap slice.
//!   `DeltaSlab::merge_into` folds a base ranking and the delta scan
//!   through one bounded [`TopKSelector`] per query — selector pushes are
//!   order-independent under *(score desc, id asc)*, so the merged top-k
//!   over base ∪ delta is **bitwise-equal to an exact scan over the union
//!   corpus**.
//! * **The durable delta log** (`DeltaLog`) — every upsert is one
//!   record `[len: u32][crc32: u32][payload]` appended to a log file in
//!   the snapshot store directory, where the payload is the entry's
//!   section-format image (the store's codec, CRCs included). The ack is
//!   one `pwrite` into space the file was preallocated with as written
//!   zeros, then one `fdatasync`: no file create, rename, or directory
//!   fsync, so no journal commit, sits on the ack path. A zero length ends
//!   the log; a record for a still-pending id (an `upsert_triples`
//!   extension) replaces the earlier one.
//!
//!   Files are named `l<lineage>-<first id>.dlog`. The *lineage* is the
//!   version of the training publish (or live anchor) whose tables the
//!   rows were warm-started against: a retrain starts a new lineage, so
//!   ids it re-issues never collide with records of the lineage a
//!   failed persist left as the only durable copy. File creation,
//!   preallocation (in bounded chunks, sized from `compact_after`),
//!   rolls, and retirements run at `enable_live`, at a retrain, or on the
//!   compactor — never on the ack path — and retirement only follows a
//!   persisted snapshot: a persisted fold retires files whose ids it
//!   folded, a persisted retrain retires older lineages. A warm restart
//!   replays the greatest lineage starting at or below the recovered
//!   snapshot's version, from its right-entity count on (the *last
//!   intact prefix*); a torn or flipped record ends the replay with a
//!   typed [`DaakgError::Corrupt`], and records of a newer lineage (a
//!   retrain that never persisted) are reported as skipped. Because the
//!   replayed lineage is read off the files, a retrain persists only once
//!   its lineage's file exists; a failed creation is retried by the next
//!   upsert (on its error path) or the compactor.
//! * `Compactor` — the background thread harness that periodically folds
//!   the delta into the next published snapshot. Same lifecycle
//!   discipline as the ingress worker: a named thread, condvar ticks, a
//!   panic-isolated task boundary with a counter, and a
//!   drain-then-join `Drop`.
//!
//! The anchor invariant that makes mixed-version serving safe: a slab is
//! only merged into queries whose pinned snapshot is exactly the
//! **version** the slab was built against. Anchoring by version (not by
//! right-entity count) matters because a retrain typically publishes a
//! snapshot with the *same* entity count but entirely re-derived tables —
//! a count-keyed slab would transiently merge superseded delta rows into
//! the fresh publication. Across a compaction publish the buffer keeps
//! **two** slabs — the pre-fold slab (matching still-pinned older
//! versions) and the post-fold remainder (matching the new version) — so
//! no reader ever transiently loses a delta entity.

use crate::ingress::lock_recover;
use crate::telem::ServiceTelemetry;
use daakg_autograd::Tensor;
use daakg_embed::WarmStartConfig;
use daakg_graph::DaakgError;
use daakg_index::scan::{normalize_rows_cosine, scan_block, TopKSelector};
use daakg_store::crc32;
use daakg_store::format::{SectionReader, SectionWriter};
use daakg_store::store::TMP_SUFFIX;
use daakg_telemetry::EventKind;
use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Payload-kind discriminator of delta log record payloads ("ADL1").
pub(crate) const FILE_KIND_DELTA: u32 = u32::from_le_bytes(*b"ADL1");

/// One asserted triple anchoring a new right-KG entity to an existing
/// entity (or an earlier delta entity). `neighbor` is a *global* right
/// entity id — a base row when `< base_n`, an earlier delta entry
/// otherwise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaTriple {
    /// Relation id in the right KG.
    pub rel: u32,
    /// Global right-entity id of the other endpoint.
    pub neighbor: u32,
    /// Direction: `true` when the new entity is the head.
    pub outgoing: bool,
}

/// One pending delta entity: its global id, raw (un-normalized) trained
/// embedding, and the triples that anchored the warm start.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaEntry {
    /// Global right-entity id (`base_n + position` at append time; stable
    /// across compactions).
    pub global_id: u32,
    /// Raw trained embedding row (normalized only inside the query slab).
    pub raw: Vec<f32>,
    /// The triples given at upsert time.
    pub triples: Vec<DeltaTriple>,
}

// ---------------------------------------------------------------------------
// Query-facing slab
// ---------------------------------------------------------------------------

/// An immutable scan view over the pending delta rows, anchored to one
/// published snapshot version.
#[derive(Debug)]
pub(crate) struct DeltaSlab {
    /// The snapshot version this slab extends — the merge key (see the
    /// module docs for why the anchor is the version, not the count).
    anchor: u64,
    /// Embedding width.
    dim: usize,
    /// Number of delta rows.
    len: usize,
    /// Row-normalized delta rows, transposed (`dim` rows × `len` cols) for
    /// the vertical-accumulation scan kernel.
    ct: Vec<f32>,
    /// Global candidate id per column (`base_n..base_n + len`).
    ids: Vec<u32>,
}

impl DeltaSlab {
    /// Build a slab from pending entries. Normalization is per-row and
    /// independent, exactly [`normalize_rows_cosine`] over the stacked raw
    /// rows — the same bits the rows would get inside a snapshot engine.
    fn build(anchor: u64, base_n: usize, dim: usize, entries: &[DeltaEntry]) -> Self {
        let len = entries.len();
        let mut rows = Tensor::zeros(len, dim);
        for (i, e) in entries.iter().enumerate() {
            rows.row_mut(i).copy_from_slice(&e.raw);
        }
        normalize_rows_cosine(&mut rows);
        let mut ct = vec![0.0f32; dim * len];
        for i in 0..len {
            let row = rows.row(i);
            for l in 0..dim {
                ct[l * len + i] = row[l];
            }
        }
        let ids = (0..len).map(|i| (base_n + i) as u32).collect();
        Self {
            anchor,
            dim,
            len,
            ct,
            ids,
        }
    }

    /// Number of delta rows in the slab.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Merge a base ranking with an exact scan over the delta rows, one
    /// bounded selector per query.
    ///
    /// * `panel` — `nq` contiguous normalized query rows of width `dim`
    ///   (the engine's `normalized_query`/gathered panel — the same rows
    ///   the base ranking was scored with);
    /// * `k` — `None` for a full ranking, `Some(k)` for top-k;
    /// * `base_total` — number of candidates in the base corpus;
    /// * `base` — per-query base rankings (full for `k = None`, best
    ///   `min(k, base_total)` otherwise).
    ///
    /// Selector pushes are order-independent under *(score desc, id asc)*
    /// and delta scores come from the same kernel over identically
    /// normalized rows, so the output is bitwise what one exact scan over
    /// the `base_total + len` union corpus would produce.
    pub(crate) fn merge_into(
        &self,
        panel: &[f32],
        nq: usize,
        k: Option<usize>,
        base_total: usize,
        base: Vec<Vec<(u32, f32)>>,
    ) -> Vec<Vec<(u32, f32)>> {
        debug_assert_eq!(panel.len(), nq * self.dim);
        debug_assert_eq!(base.len(), nq);
        if self.len == 0 {
            return base;
        }
        let total = base_total + self.len;
        let bound = k.map_or(total, |k| k.min(total));
        let mut selectors: Vec<TopKSelector> = (0..nq).map(|_| TopKSelector::new(bound)).collect();
        for (sel, ranking) in selectors.iter_mut().zip(&base) {
            for &(id, score) in ranking {
                sel.push(id, score);
            }
        }
        scan_block(
            panel,
            self.dim,
            nq,
            &self.ct,
            self.len,
            &self.ids,
            &mut selectors,
        );
        selectors
            .into_iter()
            .map(TopKSelector::into_sorted)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Buffer
// ---------------------------------------------------------------------------

struct BufferInner {
    /// Anchor: the published snapshot version pending entries extend.
    anchor: u64,
    /// Right-entity count of the anchor snapshot.
    base_n: usize,
    /// Pending (uncompacted) entries; entry `j` has global id `base_n + j`.
    entries: Vec<DeltaEntry>,
    /// Scan view over `entries`, anchored at `anchor`.
    current: Arc<DeltaSlab>,
    /// The pre-fold slab kept across one compaction publish, so queries
    /// pinned to the previous version keep seeing the folded entities.
    prev: Option<Arc<DeltaSlab>>,
}

/// The append-only delta corpus attached to a live service. All mutation
/// happens under one short-held mutex; queries only clone an `Arc` out.
pub(crate) struct DeltaBuffer {
    dim: usize,
    inner: Mutex<BufferInner>,
    /// Total accepted upserts (monotonic, includes folded entries).
    upserts: AtomicU64,
}

impl DeltaBuffer {
    /// An empty buffer anchored at snapshot version `anchor` with `base_n`
    /// right entities of width `dim`.
    pub(crate) fn new(anchor: u64, base_n: usize, dim: usize) -> Self {
        Self {
            dim,
            inner: Mutex::new(BufferInner {
                anchor,
                base_n,
                entries: Vec::new(),
                current: Arc::new(DeltaSlab::build(anchor, base_n, dim, &[])),
                prev: None,
            }),
            upserts: AtomicU64::new(0),
        }
    }

    /// Number of pending (uncompacted) entries.
    pub(crate) fn depth(&self) -> usize {
        lock_recover(&self.inner).entries.len()
    }

    /// Total accepted upserts, monotonic across compactions.
    pub(crate) fn upserts(&self) -> u64 {
        self.upserts.load(Ordering::Relaxed)
    }

    /// Current anchor (the snapshot version the pending entries extend).
    pub(crate) fn anchor(&self) -> u64 {
        lock_recover(&self.inner).anchor
    }

    /// Right-entity count of the anchor snapshot.
    #[cfg(test)]
    pub(crate) fn base_n(&self) -> usize {
        lock_recover(&self.inner).base_n
    }

    /// The global id the *next* appended entry will receive.
    #[cfg(test)]
    pub(crate) fn next_id(&self) -> u32 {
        let inner = lock_recover(&self.inner);
        (inner.base_n + inner.entries.len()) as u32
    }

    /// Snapshot of the pending entries (cheap clones, for neighbor
    /// resolution and fold preparation).
    pub(crate) fn pending(&self) -> (usize, Vec<DeltaEntry>) {
        let inner = lock_recover(&self.inner);
        (inner.base_n, inner.entries.clone())
    }

    /// Where `entry` lands: the next position for an append (its id must
    /// be the buffer's next id — the caller serializes upserts), or the
    /// pending position it replaces. Folded ids are the base corpus's
    /// business now.
    fn position(
        &self,
        inner: &BufferInner,
        entry: &DeltaEntry,
        replace: bool,
    ) -> Result<usize, DaakgError> {
        if entry.raw.len() != self.dim {
            return Err(DaakgError::DimensionMismatch {
                context: "DeltaBuffer row width",
                expected: self.dim,
                got: entry.raw.len(),
            });
        }
        let len = inner.entries.len();
        let pos = (entry.global_id as usize).checked_sub(inner.base_n);
        if replace {
            return pos
                .filter(|&p| p < len)
                .ok_or_else(|| DaakgError::UnknownEntity {
                    kg: "delta".into(),
                    id: entry.global_id,
                    bound: inner.base_n + len,
                });
        }
        pos.filter(|&p| p == len)
            .ok_or_else(|| DaakgError::InvalidConfig {
                context: "DeltaBuffer",
                reason: format!(
                    "entry id {} where the next id is {} (upserts must be serialized)",
                    entry.global_id,
                    inner.base_n + len
                ),
            })
    }

    /// Validate `entry` as the next append (`replace == false`) or as the
    /// replacement of a pending id, without applying it.
    pub(crate) fn check(&self, entry: &DeltaEntry, replace: bool) -> Result<(), DaakgError> {
        self.position(&lock_recover(&self.inner), entry, replace)
            .map(drop)
    }

    /// Append a trained entry as the next id. Rebuilds the current slab
    /// under the lock (`O(len·dim)` — pending depth is bounded by the
    /// compaction threshold in steady state).
    pub(crate) fn append(&self, entry: DeltaEntry) -> Result<(), DaakgError> {
        let mut inner = lock_recover(&self.inner);
        self.position(&inner, &entry, false)?;
        inner.entries.push(entry);
        inner.current = Arc::new(DeltaSlab::build(
            inner.anchor,
            inner.base_n,
            self.dim,
            &inner.entries,
        ));
        self.upserts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replace a pending entry in place (the `upsert_triples` re-finetune
    /// path).
    pub(crate) fn replace(&self, entry: DeltaEntry) -> Result<(), DaakgError> {
        let mut inner = lock_recover(&self.inner);
        let pos = self.position(&inner, &entry, true)?;
        inner.entries[pos] = entry;
        inner.current = Arc::new(DeltaSlab::build(
            inner.anchor,
            inner.base_n,
            self.dim,
            &inner.entries,
        ));
        Ok(())
    }

    /// The slab to merge into a query pinned to snapshot `version` — the
    /// current slab, the kept pre-fold slab, or nothing when neither
    /// anchor matches (e.g. a retrain superseded the delta, or the query
    /// pinned a fresh publication the buffer has not re-anchored to yet).
    /// Empty slabs return `None` (nothing to merge).
    pub(crate) fn slab_for(&self, version: u64) -> Option<Arc<DeltaSlab>> {
        let inner = lock_recover(&self.inner);
        if inner.current.anchor == version && inner.current.len > 0 {
            return Some(Arc::clone(&inner.current));
        }
        inner
            .prev
            .as_ref()
            .filter(|s| s.anchor == version && s.len > 0)
            .map(Arc::clone)
    }

    /// Entries eligible for folding into snapshot `version`: the pending
    /// prefix, only when the anchor matches. `None` when there is nothing
    /// to fold or the anchor moved (a retrain republished a model-shaped
    /// snapshot).
    pub(crate) fn fold_candidates(&self, version: u64) -> Option<Vec<DeltaEntry>> {
        let inner = lock_recover(&self.inner);
        (inner.anchor == version && !inner.entries.is_empty()).then(|| inner.entries.clone())
    }

    /// Commit a fold of the first `count` pending entries into the newly
    /// published snapshot `folded`: keep the pre-fold slab for
    /// still-pinned readers, advance the anchor to the folded version,
    /// and rebuild the current slab from whatever was appended meanwhile.
    pub(crate) fn fold_committed(&self, count: usize, folded: u64) {
        let mut inner = lock_recover(&self.inner);
        debug_assert!(count <= inner.entries.len());
        inner.prev = Some(Arc::clone(&inner.current));
        inner.entries.drain(..count);
        inner.anchor = folded;
        inner.base_n += count;
        inner.current = Arc::new(DeltaSlab::build(
            folded,
            inner.base_n,
            self.dim,
            &inner.entries,
        ));
    }

    /// Re-anchor after a supersession (a retrain published a snapshot the
    /// pending entries no longer extend): drop everything and start fresh
    /// at the superseding version and right-entity count. Returns the
    /// dropped entries. Their log records stay on disk until the
    /// superseding snapshot is durably persisted, because until then they
    /// are the only durable copies of the acknowledged upserts. A buffer
    /// already anchored at `anchor` or later has seen this supersession
    /// (a racing re-anchor ran first): nothing is dropped.
    pub(crate) fn reanchor(&self, anchor: u64, base_n: usize) -> Vec<DeltaEntry> {
        let mut inner = lock_recover(&self.inner);
        if inner.anchor >= anchor {
            return Vec::new();
        }
        let dropped = std::mem::take(&mut inner.entries);
        inner.anchor = anchor;
        inner.base_n = base_n;
        inner.prev = None;
        inner.current = Arc::new(DeltaSlab::build(anchor, base_n, self.dim, &[]));
        dropped
    }

    /// Seed recovered entries (warm restart). The entries must be the
    /// contiguous id run starting at the buffer's anchor.
    pub(crate) fn restore(&self, entries: Vec<DeltaEntry>) -> Result<(), DaakgError> {
        let count = entries.len() as u64;
        for e in entries {
            self.append(e)?;
        }
        // Restored rows don't count as fresh upserts.
        self.upserts.fetch_sub(count, Ordering::Relaxed);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Durable delta log
// ---------------------------------------------------------------------------

/// Delta log file extension.
const LOG_EXT: &str = "dlog";
/// Extension of the per-upsert segment files older releases wrote. They
/// are detected (and refused) at [`DeltaLog::open`], never written.
const SEGMENT_EXT: &str = "dseg";
/// Record header: payload length, then the payload's CRC-32, both `u32` LE.
const RECORD_HEADER: usize = 8;
/// The most records one log file is preallocated for.
const LOG_RECORDS_MAX: usize = 1024;
/// Zero-fill chunk used to preallocate a log file.
const PREALLOC_CHUNK: usize = 64 * 1024;

/// File name of one delta log file: its training lineage and the first
/// global id it may hold (`l0000000003-0000000042.dlog`).
pub(crate) fn log_name(lineage: u64, first_id: u32) -> String {
    format!("l{lineage:010}-{first_id:010}.{LOG_EXT}")
}

/// Parse a log file name back to `(lineage, first_id)`; `None` for
/// anything else (snapshots, tmp files, manifests).
pub(crate) fn parse_log_name(name: &str) -> Option<(u64, u32)> {
    let stem = name
        .strip_prefix('l')?
        .strip_suffix(&format!(".{LOG_EXT}"))?;
    let (lineage, first) = stem.split_once('-')?;
    let ten_digits = |s: &str| s.len() == 10 && s.bytes().all(|b| b.is_ascii_digit());
    if !ten_digits(lineage) || !ten_digits(first) {
        return None;
    }
    Some((lineage.parse().ok()?, first.parse().ok()?))
}

/// Parse an older release's segment file name (`d0000000042.dseg`) to its
/// global id; `None` for anything else.
pub(crate) fn parse_segment_name(name: &str) -> Option<u32> {
    let digits = name
        .strip_prefix('d')?
        .strip_suffix(&format!(".{SEGMENT_EXT}"))?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Serialize one entry into a section-format image: a log record's
/// payload.
pub(crate) fn encode_segment(entry: &DeltaEntry) -> Vec<u8> {
    let mut w = SectionWriter::new(FILE_KIND_DELTA);
    w.u64s(
        "meta",
        &[
            entry.global_id as u64,
            entry.raw.len() as u64,
            entry.triples.len() as u64,
        ],
    );
    w.f32s("row", 1, entry.raw.len(), &entry.raw);
    let mut tris = Vec::with_capacity(entry.triples.len() * 3);
    for t in &entry.triples {
        tris.push(t.rel);
        tris.push(t.neighbor);
        tris.push(t.outgoing as u32);
    }
    w.u32s("tris", &tris);
    w.finish()
}

/// Parse and validate one record payload back into an entry.
pub(crate) fn decode_segment(path: &Path, bytes: Vec<u8>) -> Result<DeltaEntry, DaakgError> {
    let r = SectionReader::parse(path, bytes, FILE_KIND_DELTA)?;
    let meta = r.u64s("meta")?;
    if meta.len() != 3 {
        return Err(r.corrupt("meta", format!("expected 3 words, found {}", meta.len())));
    }
    let (global_id, dim, tri_count) = (meta[0], meta[1] as usize, meta[2] as usize);
    if global_id > u32::MAX as u64 {
        return Err(r.corrupt("meta", format!("global id {global_id} exceeds u32")));
    }
    let row = r.f32s("row")?;
    if row.rows != 1 || row.cols != dim {
        return Err(r.corrupt(
            "row",
            format!("shape {}×{} where 1×{dim} was recorded", row.rows, row.cols),
        ));
    }
    let tris = r.u32s("tris")?;
    if tris.len() != tri_count * 3 {
        return Err(r.corrupt(
            "tris",
            format!("{} words for {tri_count} recorded triples", tris.len()),
        ));
    }
    let triples = tris
        .chunks_exact(3)
        .map(|c| DeltaTriple {
            rel: c[0],
            neighbor: c[1],
            outgoing: c[2] != 0,
        })
        .collect();
    Ok(DeltaEntry {
        global_id: global_id as u32,
        raw: row.data,
        triples,
    })
}

/// Frame one entry as a log record: `[len][crc32][payload]`.
pub(crate) fn encode_record(entry: &DeltaEntry) -> Vec<u8> {
    let payload = encode_segment(entry);
    let mut rec = Vec::with_capacity(RECORD_HEADER + payload.len());
    rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    rec.extend_from_slice(&crc32(&payload).to_le_bytes());
    rec.extend_from_slice(&payload);
    rec
}

/// Bytes to preallocate per log file: room for twice the fold threshold
/// (capped at [`LOG_RECORDS_MAX`]) of records `dim` wide with four
/// triples each. Only a sizing estimate — a record that does not fit
/// extends the file, and the compactor rolls it well before that.
pub(crate) fn log_file_bytes(dim: usize, compact_after: usize) -> u64 {
    let probe = DeltaEntry {
        global_id: 0,
        raw: vec![0.0; dim],
        triples: vec![
            DeltaTriple {
                rel: 0,
                neighbor: 0,
                outgoing: true,
            };
            4
        ],
    };
    let records = compact_after.saturating_mul(2).min(LOG_RECORDS_MAX);
    (encode_record(&probe).len() * records) as u64
}

/// One step of a log walk.
enum Frame {
    /// A zero length (or a zero tail too short for a header): the log
    /// ends here.
    End,
    /// An intact record: its payload range and the offset after it.
    Record(Range<usize>, usize),
    /// A torn or flipped record.
    Torn(String),
}

/// Read the frame at `at`. With `check_crc` off, frames are walked by
/// their length words alone (a checksum mismatch is not a tear).
fn read_frame(bytes: &[u8], at: usize, check_crc: bool) -> Frame {
    let rest = &bytes[at..];
    if rest.len() < RECORD_HEADER {
        return if rest.iter().all(|&b| b == 0) {
            Frame::End
        } else {
            Frame::Torn(format!("{} stray bytes where a record starts", rest.len()))
        };
    }
    let word = |i: usize| u32::from_le_bytes([rest[i], rest[i + 1], rest[i + 2], rest[i + 3]]);
    let len = word(0) as usize;
    if len == 0 {
        return Frame::End;
    }
    let Some(payload) = rest.get(RECORD_HEADER..RECORD_HEADER + len) else {
        return Frame::Torn(format!(
            "a {len}-byte record runs past the end of the file ({} bytes left)",
            rest.len() - RECORD_HEADER
        ));
    };
    if check_crc && crc32(payload) != word(4) {
        return Frame::Torn("record checksum mismatch".into());
    }
    let start = at + RECORD_HEADER;
    Frame::Record(start..start + len, start + len)
}

/// How many records start at or after `at`, framed by their length words
/// alone (checksums unchecked) — what a replay break drops.
fn count_frames(bytes: &[u8], mut at: usize) -> usize {
    let mut n = 0;
    loop {
        match read_frame(bytes, at, false) {
            Frame::End => return n,
            Frame::Torn(_) => return n + 1,
            Frame::Record(_, after) => {
                n += 1;
                at = after;
            }
        }
    }
}

/// What delta-log replay found on a warm restart.
#[derive(Debug, Default)]
pub struct DeltaRecovery {
    /// Entries replayed into the buffer (the contiguous intact prefix).
    pub replayed: usize,
    /// Records skipped with their typed errors: a torn or flipped record,
    /// an id that breaks the contiguous run, or a record written under a
    /// training publish that never became durable.
    pub skipped: Vec<(u32, DaakgError)>,
    /// Log records dropped: folded leftovers, superseded lineages, and
    /// everything at or past the first break (those ids are re-issued by
    /// future upserts, so stale rows must not resurface later).
    pub removed: usize,
}

/// Read every delta log in `dir` against a recovered snapshot `version`
/// with `base_n` right entities. Returns the replayed entries, the
/// report, and every delta file found (for the caller to retire once the
/// replayed prefix is rewritten).
///
/// The replayed lineage is the greatest one that starts at or below
/// `version`: its rows were warm-started under the training publish (or
/// live anchor) the recovered snapshot descends from. Within it, files
/// are read in first-id order and records in file order, under the *last
/// intact prefix* rule: ids below `base_n` were folded into the snapshot
/// and are dropped; a record for a pending id replaces the earlier one
/// (an `upsert_triples` extension); the next id extends the run; a gap,
/// a torn record, or a flipped one ends the replay with a typed error.
/// Files of a newer lineage were written under a training publish that
/// never persisted: their records are reported as skipped.
fn recover_log(
    dir: &Path,
    version: u64,
    base_n: usize,
) -> Result<(Vec<DeltaEntry>, DeltaRecovery, Vec<PathBuf>), DaakgError> {
    let (logs, mut found) = scan_log_dir(dir)?;
    found.extend(logs.iter().map(|l| l.2.clone()));
    let images = logs
        .into_iter()
        .map(|(lineage, _, path)| match std::fs::read(&path) {
            Ok(bytes) => Ok((lineage, path, bytes)),
            Err(e) => Err(DaakgError::io_at(&path, e)),
        })
        .collect::<Result<Vec<_>, _>>()?;
    let (entries, report) = replay_logs(&images, version, base_n);
    Ok((entries, report, found))
}

/// The delta files in `dir`: log files as `(lineage, first_id, path)` in
/// lineage, then first-id, order, and leftover `*.dlog.tmp` files. An
/// older release's `.dseg` segment is a typed error naming it.
#[allow(clippy::type_complexity)]
fn scan_log_dir(dir: &Path) -> Result<(Vec<(u64, u32, PathBuf)>, Vec<PathBuf>), DaakgError> {
    let mut logs = Vec::new();
    let mut stale = Vec::new();
    let rd = std::fs::read_dir(dir).map_err(|e| DaakgError::io_at(dir, e))?;
    for dent in rd {
        let dent = dent.map_err(|e| DaakgError::io_at(dir, e))?;
        let name = dent.file_name();
        let Some(name) = name.to_str() else { continue };
        if parse_segment_name(name).is_some() {
            return Err(DaakgError::Corrupt {
                path: dent.path(),
                section: "delta".into(),
                reason: "a per-upsert delta segment from an older release; this release \
                         replays only delta logs (*.dlog) — fold it with that release or \
                         remove it before enabling live updates"
                    .into(),
            });
        }
        if let Some((lineage, first)) = parse_log_name(name) {
            logs.push((lineage, first, dent.path()));
        } else if name.ends_with(&format!(".{LOG_EXT}{TMP_SUFFIX}")) {
            stale.push(dent.path());
        }
    }
    logs.sort();
    Ok((logs, stale))
}

/// The replay rule of [`recover_log`] over log images
/// `(lineage, path, bytes)` in lineage, then first-id, order.
fn replay_logs(
    logs: &[(u64, PathBuf, Vec<u8>)],
    version: u64,
    base_n: usize,
) -> (Vec<DeltaEntry>, DeltaRecovery) {
    let chosen = logs.iter().map(|l| l.0).filter(|&l| l <= version).max();
    let mut report = DeltaRecovery::default();
    let mut entries: Vec<DeltaEntry> = Vec::new();
    let mut next = base_n as u32;
    let mut broken = false;
    for (lineage, path, bytes) in logs {
        if Some(*lineage) != chosen {
            if *lineage > version {
                // Written under a training publish that never persisted:
                // the recovered snapshot is not what these rows extend.
                let mut at = 0;
                while let Frame::Record(payload, after) = read_frame(bytes, at, true) {
                    if let Ok(e) = decode_segment(path, bytes[payload].to_vec()) {
                        report.skipped.push((
                            e.global_id,
                            DaakgError::Corrupt {
                                path: path.clone(),
                                section: "lineage".into(),
                                reason: format!(
                                    "written under training publish v{lineage}, which never \
                                     became durable (recovered v{version})"
                                ),
                            },
                        ));
                    }
                    at = after;
                }
            }
            report.removed += count_frames(bytes, 0);
            continue;
        }
        if broken {
            report.removed += count_frames(bytes, 0);
            continue;
        }
        let mut at = 0;
        loop {
            let (payload, after) = match read_frame(bytes, at, true) {
                Frame::End => break,
                Frame::Record(payload, after) => (payload, after),
                Frame::Torn(reason) => {
                    report.skipped.push((
                        next,
                        DaakgError::Corrupt {
                            path: path.clone(),
                            section: "record".into(),
                            reason: format!("at byte {at}: {reason}"),
                        },
                    ));
                    broken = true;
                    break;
                }
            };
            match decode_segment(path, bytes[payload].to_vec()) {
                Err(err) => {
                    report.skipped.push((next, err));
                    broken = true;
                }
                Ok(e) if (e.global_id as usize) < base_n => report.removed += 1,
                Ok(e) if e.global_id < next => {
                    let pos = e.global_id as usize - base_n;
                    entries[pos] = e;
                }
                Ok(e) if e.global_id == next => {
                    entries.push(e);
                    next += 1;
                }
                Ok(e) => {
                    report.skipped.push((
                        e.global_id,
                        DaakgError::Corrupt {
                            path: path.clone(),
                            section: "sequence".into(),
                            reason: format!(
                                "record id {} breaks the contiguous run at {next}",
                                e.global_id
                            ),
                        },
                    ));
                    broken = true;
                }
            }
            if broken {
                break;
            }
            at = after;
        }
        if broken {
            report.removed += count_frames(bytes, at);
        }
    }
    report.replayed = entries.len();
    (entries, report)
}

/// Best-effort directory fsync, as the store does after a rename: some
/// filesystems refuse it, which weakens only the power-loss window.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The log file upserts append to.
struct ActiveLog {
    file: File,
    path: PathBuf,
    lineage: u64,
    first_id: u32,
    /// Write offset: the end of the last acknowledged record.
    end: u64,
    /// Preallocated (zero-filled) size.
    cap: u64,
    /// Highest id with a record in this file.
    last_id: Option<u32>,
}

impl ActiveLog {
    /// Durably create a log file holding `records` followed by
    /// `zero_bytes` of written zeros: tmp write in bounded chunks, fsync,
    /// rename, directory fsync. Overwriting preallocated zeros later needs
    /// only a data sync — no size or extent change reaches the journal.
    fn create(
        dir: &Path,
        lineage: u64,
        first_id: u32,
        records: &[u8],
        last_id: Option<u32>,
        zero_bytes: u64,
    ) -> Result<Self, DaakgError> {
        let path = dir.join(log_name(lineage, first_id));
        let tmp = dir.join(format!("{}{TMP_SUFFIX}", log_name(lineage, first_id)));
        let run = || -> std::io::Result<File> {
            let mut f = File::create(&tmp)?;
            f.write_all(records)?;
            let zeros = vec![0u8; PREALLOC_CHUNK.min(zero_bytes as usize)];
            let mut left = zero_bytes as usize;
            while left > 0 {
                let n = left.min(zeros.len());
                f.write_all(&zeros[..n])?;
                left -= n;
            }
            f.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            sync_dir(dir);
            Ok(f)
        };
        let file = run().map_err(|e| DaakgError::io_at(&path, e))?;
        Ok(Self {
            file,
            path,
            lineage,
            first_id,
            end: records.len() as u64,
            cap: records.len() as u64 + zero_bytes,
            last_id,
        })
    }

    fn seal(self) -> SealedLog {
        SealedLog {
            path: self.path,
            lineage: self.lineage,
            first_id: self.first_id,
            last_id: self.last_id,
        }
    }
}

/// A log file no longer appended to, kept until a persisted snapshot
/// supersedes every record in it.
struct SealedLog {
    path: PathBuf,
    lineage: u64,
    first_id: u32,
    last_id: Option<u32>,
}

struct LogState {
    /// The training lineage new records belong to.
    lineage: u64,
    /// The id the next fresh upsert receives (names rolled files).
    next_id: u32,
    /// `None` only after a file creation failed; the next upsert, the
    /// training publish's persist, or the compactor creates one.
    active: Option<ActiveLog>,
    sealed: Vec<SealedLog>,
}

/// The durable side of the delta layer: an append-only log of
/// checksummed records in preallocated files (see the module docs).
///
/// An upsert's ack is one `pwrite` into the active file's zero-filled
/// space plus one `fdatasync`. Every file create, roll and retirement
/// happens at [`DeltaLog::open`], in [`DeltaLog::reanchor`], or on the
/// compactor behind a persisted snapshot — never on the ack path.
pub(crate) struct DeltaLog {
    dir: PathBuf,
    /// Zero bytes each new file is preallocated with.
    file_bytes: u64,
    telem: ServiceTelemetry,
    /// Serializes every file creation after `open` (re-anchors and
    /// rolls), so no two of them ever write the same file name. Taken
    /// before `state`, which acks hold alone.
    files: Mutex<()>,
    state: Mutex<LogState>,
}

impl DeltaLog {
    /// Open the log of a live service anchored at snapshot `version` with
    /// `base_n` right entities, starting lineage `version`.
    ///
    /// When `version` is the snapshot the store `recovered` at open, the
    /// logs on disk extend it: replay them (see [`recover_log`]), rewrite
    /// the replayed prefix into a fresh preallocated file, and retire
    /// every other delta file, durably, before any upsert can reuse a
    /// dropped id. When a training publish came in between, it supersedes
    /// every lineage on disk: nothing replays, and the files stay until a
    /// snapshot of the new lineage persists — a restart before that
    /// recovers the snapshot they extend — except lineages newer than
    /// `recovered`, whose training publish never persisted.
    ///
    /// An older release's `.dseg` segment is a typed
    /// [`DaakgError::Corrupt`] naming the file.
    pub(crate) fn open(
        dir: &Path,
        recovered: Option<u64>,
        version: u64,
        base_n: usize,
        file_bytes: u64,
        telem: ServiceTelemetry,
    ) -> Result<(Self, Vec<DeltaEntry>, DeltaRecovery), DaakgError> {
        let (entries, report, found, kept) = if recovered == Some(version) {
            let (entries, report, found) = recover_log(dir, version, base_n)?;
            (entries, report, found, Vec::new())
        } else {
            let (logs, mut stale) = scan_log_dir(dir)?;
            let durable = recovered.unwrap_or(0);
            let (kept, newer): (Vec<_>, Vec<_>) = logs.into_iter().partition(|l| l.0 <= durable);
            stale.extend(newer.into_iter().map(|l| l.2));
            (Vec::new(), DeltaRecovery::default(), stale, kept)
        };
        let records: Vec<u8> = entries.iter().flat_map(encode_record).collect();
        let last_id = entries.last().map(|e| e.global_id);
        let active = ActiveLog::create(dir, version, base_n as u32, &records, last_id, file_bytes)?;
        for path in found.iter().filter(|p| **p != active.path) {
            match std::fs::remove_file(path) {
                Ok(()) => {}
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(DaakgError::io_at(path, e)),
            }
        }
        sync_dir(dir);
        telem.event(EventKind::DeltaLogRoll {
            lineage: version,
            first_id: base_n as u32,
        });
        let sealed = kept
            .into_iter()
            .filter(|l| l.2 != active.path)
            .map(|(lineage, first_id, path)| SealedLog {
                path,
                lineage,
                first_id,
                last_id: None,
            })
            .collect();
        let log = Self {
            dir: dir.to_path_buf(),
            file_bytes,
            telem,
            files: Mutex::new(()),
            state: Mutex::new(LogState {
                lineage: version,
                next_id: (base_n + entries.len()) as u32,
                active: Some(active),
                sealed,
            }),
        };
        Ok((log, entries, report))
    }

    /// The training lineage new records belong to.
    pub(crate) fn lineage(&self) -> u64 {
        lock_recover(&self.state).lineage
    }

    /// Log `entry` durably, then apply it to `buffer` — as the next
    /// append, or as the replacement of a pending id. The entry is
    /// validated against the buffer first and the log lock excludes every
    /// re-anchor, so the buffer update after the sync cannot fail: an
    /// upsert is queryable only once its record is durable, and nothing
    /// is logged that the buffer would refuse. Returns whether the active
    /// file is past its roll mark (the caller nudges the compactor).
    pub(crate) fn commit(
        &self,
        entry: DeltaEntry,
        buffer: &DeltaBuffer,
        replace: bool,
    ) -> Result<bool, DaakgError> {
        // Only after a failed creation: retry it before logging (this is
        // not the ack fast path, which never creates a file).
        self.ensure_active()?;
        let mut st = lock_recover(&self.state);
        buffer.check(&entry, replace)?;
        let Some(active) = st.active.as_mut() else {
            return Err(DaakgError::io_at(
                &self.dir,
                std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    "no delta log file is open (its creation failed)",
                ),
            ));
        };
        let written = {
            let _span = self.telem.delta_append.span();
            let rec = encode_record(&entry);
            active
                .file
                .write_all_at(&rec, active.end)
                .map(|()| rec.len() as u64)
        };
        let synced = written.and_then(|len| {
            let _span = self.telem.delta_sync.span();
            active.file.sync_data().map(|()| len)
        });
        let len = synced.map_err(|e| DaakgError::io_at(&active.path, e))?;
        self.telem.delta_log_syncs.incr();
        active.end += len;
        active.last_id = active.last_id.max(Some(entry.global_id));
        let roll = active.end * 4 >= active.cap * 3;
        st.next_id = st.next_id.max(entry.global_id.saturating_add(1));
        if replace {
            buffer.replace(entry)?;
        } else {
            buffer.append(entry)?;
        }
        Ok(roll)
    }

    /// Start lineage `anchor` at `base_n` (a training publish superseded
    /// the pending delta): create its file, then — under the log lock, so
    /// no upsert straddles the switch — seal the old file and re-anchor
    /// `buffer`. Returns the dropped entries. The old lineage's files stay
    /// until a snapshot of the new lineage persists
    /// ([`DeltaLog::after_persist`]).
    ///
    /// Idempotent: once `buffer` is anchored at `anchor` or later (an
    /// earlier re-anchor for this publish already ran, and upserts may
    /// have been acknowledged into its file since), this does nothing. If
    /// the file cannot be created, the state still moves to the new
    /// lineage with no active file; [`DeltaLog::ensure_active`] retries.
    pub(crate) fn reanchor(
        &self,
        anchor: u64,
        base_n: usize,
        buffer: &DeltaBuffer,
    ) -> Vec<DeltaEntry> {
        let _files = lock_recover(&self.files);
        if buffer.anchor() >= anchor {
            return Vec::new();
        }
        let fresh = ActiveLog::create(&self.dir, anchor, base_n as u32, &[], None, self.file_bytes);
        let mut st = lock_recover(&self.state);
        if let Some(old) = st.active.take() {
            st.sealed.push(old.seal());
        }
        st.active = fresh.ok();
        if st.active.is_some() {
            self.telem.event(EventKind::DeltaLogRoll {
                lineage: anchor,
                first_id: base_n as u32,
            });
        }
        st.lineage = anchor;
        st.next_id = base_n as u32;
        buffer.reanchor(anchor, base_n)
    }

    /// Create the active file if a failed creation left none. A training
    /// publish calls this before persisting, so no snapshot of a lineage
    /// ever becomes durable without that lineage's file: recovery would
    /// otherwise pick an older lineage and replay rows warm-started on
    /// superseded tables.
    pub(crate) fn ensure_active(&self) -> Result<(), DaakgError> {
        if lock_recover(&self.state).active.is_some() {
            return Ok(());
        }
        self.roll_if(&|st| st.active.is_none())
    }

    /// A snapshot of `lineage` with `base_n` right entities is durably
    /// persisted: retire every file it supersedes (older lineages, and
    /// files of this lineage whose ids are all below `base_n`), and roll
    /// the active file when all its records are folded. Retiring before
    /// rolling keeps a steady-state service at two files at most.
    /// Best-effort: what a failure leaves behind, recovery drops.
    pub(crate) fn after_persist(&self, lineage: u64, base_n: usize) {
        let superseded = |l: u64, last: Option<u32>| {
            l < lineage || (l == lineage && last.is_none_or(|id| (id as usize) < base_n))
        };
        self.retire(&superseded);
        let folded = |st: &LogState| {
            st.lineage == lineage
                && st
                    .active
                    .as_ref()
                    .is_none_or(|a| a.last_id.is_some() && superseded(a.lineage, a.last_id))
        };
        if self.roll_if(&folded).is_ok() {
            self.retire(&superseded);
        }
    }

    /// Compactor upkeep: roll a file past its roll mark, or create one
    /// after a failed creation.
    pub(crate) fn maintain(&self) -> Result<(), DaakgError> {
        self.roll_if(&|st| st.active.as_ref().is_none_or(|a| a.end * 4 >= a.cap * 3))
    }

    /// When `due` holds, seal the active file and continue in a fresh one
    /// named by the next id. The file is created outside the log lock, so
    /// acks keep landing in the old file meanwhile (the new name's id is
    /// then a lower bound, which keeps first-id order equal to write
    /// order); the files lock keeps the lineage fixed until the swap. A
    /// file that holds no fresh id is not rolled: the new name would equal
    /// its own.
    fn roll_if(&self, due: &dyn Fn(&LogState) -> bool) -> Result<(), DaakgError> {
        let _files = lock_recover(&self.files);
        let (lineage, first_id) = {
            let st = lock_recover(&self.state);
            if !due(&st) || st.active.as_ref().is_some_and(|a| st.next_id <= a.first_id) {
                return Ok(());
            }
            (st.lineage, st.next_id)
        };
        let fresh = ActiveLog::create(&self.dir, lineage, first_id, &[], None, self.file_bytes)?;
        let mut st = lock_recover(&self.state);
        if let Some(old) = st.active.replace(fresh) {
            st.sealed.push(old.seal());
        }
        self.telem
            .event(EventKind::DeltaLogRoll { lineage, first_id });
        Ok(())
    }

    /// Unlink every sealed file `superseded(lineage, last_id)` selects.
    fn retire(&self, superseded: &dyn Fn(u64, Option<u32>) -> bool) {
        let gone: Vec<SealedLog> = {
            let mut st = lock_recover(&self.state);
            let active = st.active.as_ref().map(|a| a.path.clone());
            // The active file's path is never unlinked, whatever the books
            // say: acknowledged records may sit in it.
            let (gone, keep) = std::mem::take(&mut st.sealed)
                .into_iter()
                .filter(|s| Some(&s.path) != active.as_ref())
                .partition(|s| superseded(s.lineage, s.last_id));
            st.sealed = keep;
            gone
        };
        for s in gone {
            match std::fs::remove_file(&s.path) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    // Keep it on the books; the next persist retries.
                    lock_recover(&self.state).sealed.push(s);
                }
                _ => self.telem.event(EventKind::DeltaLogRetire {
                    lineage: s.lineage,
                    first_id: s.first_id,
                }),
            }
        }
    }
}

/// The delta log files in `dir`, sorted by name.
#[cfg(test)]
pub(crate) fn log_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|d| d.unwrap().path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(parse_log_name)
                .is_some()
        })
        .collect();
    out.sort();
    out
}

/// The byte ranges (header included) of the intact records of one log
/// image, in file order.
#[cfg(test)]
pub(crate) fn record_spans(bytes: &[u8]) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut at = 0;
    while let Frame::Record(_, after) = read_frame(bytes, at, true) {
        out.push(at..after);
        at = after;
    }
    out
}

/// The ids of every intact record in `dir`'s delta log files.
#[cfg(test)]
pub(crate) fn logged_ids(dir: &Path) -> Vec<u32> {
    let mut out = Vec::new();
    for path in log_files(dir) {
        let bytes = std::fs::read(&path).unwrap();
        for span in record_spans(&bytes) {
            let payload = bytes[span.start + RECORD_HEADER..span.end].to_vec();
            out.push(decode_segment(&path, payload).unwrap().global_id);
        }
    }
    out
}

/// Re-anchor the delta at a superseding publication `anchor` with
/// `base_n` right entities, through the log when the service is durable.
pub(crate) fn reanchor_delta(
    buffer: &DeltaBuffer,
    log: Option<&DeltaLog>,
    anchor: u64,
    base_n: usize,
) -> Vec<DeltaEntry> {
    match log {
        Some(log) => log.reanchor(anchor, base_n, buffer),
        None => buffer.reanchor(anchor, base_n),
    }
}

// ---------------------------------------------------------------------------
// Live configuration & health
// ---------------------------------------------------------------------------

/// Typed configuration of the live-update subsystem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiveConfig {
    /// Fold the delta into a new snapshot once this many entries are
    /// pending (the compactor also folds whatever is pending on its
    /// periodic tick).
    pub compact_after: usize,
    /// Compactor wake interval.
    pub tick: Duration,
    /// Warm-start fine-tune settings for new rows.
    pub warm: WarmStartConfig,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            compact_after: 64,
            tick: Duration::from_millis(50),
            warm: WarmStartConfig::default(),
        }
    }
}

impl LiveConfig {
    /// Reject unusable configurations with a typed error.
    pub fn validate(&self) -> Result<(), DaakgError> {
        if self.compact_after == 0 {
            return Err(DaakgError::InvalidConfig {
                context: "LiveConfig",
                reason: "compact_after must be at least 1".into(),
            });
        }
        if self.tick.is_zero() {
            return Err(DaakgError::InvalidConfig {
                context: "LiveConfig",
                reason: "tick must be positive".into(),
            });
        }
        self.warm.validate()
    }
}

/// Health counters of the live-update subsystem, surfaced through
/// `ServiceHealth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LiveHealth {
    /// Pending (uncompacted) delta entries.
    pub delta_depth: usize,
    /// Upserts accepted since the service started.
    pub upserts: u64,
    /// Compactions published.
    pub compactions: u64,
    /// Panics caught and isolated at the compactor task boundary.
    pub compactor_panics: u64,
    /// How many full folds the compactor is behind:
    /// `delta_depth / compact_after`. Zero in steady state; growing values
    /// mean compaction cannot keep up with the upsert rate.
    pub compaction_lag: u64,
    /// The snapshot version the latest compaction published, if any.
    pub last_compacted_version: Option<u64>,
}

/// Shared compaction counters (written by the compactor thread and the
/// synchronous `compact_now` path, read by health).
#[derive(Debug, Default)]
pub(crate) struct LiveStats {
    /// Compactions published.
    pub(crate) compactions: AtomicU64,
    /// Panics caught at the compactor task boundary.
    pub(crate) panics: AtomicU64,
    /// `last published compaction version + 1` (0 = none yet) — offset so
    /// an `AtomicU64` can carry the `Option`.
    pub(crate) last_version: AtomicU64,
}

impl LiveStats {
    /// Record a published compaction.
    pub(crate) fn record(&self, version: u64) {
        self.compactions.fetch_add(1, Ordering::Relaxed);
        self.last_version.store(version + 1, Ordering::Relaxed);
    }

    /// The last published compaction version, if any.
    pub(crate) fn last_compacted(&self) -> Option<u64> {
        match self.last_version.load(Ordering::Relaxed) {
            0 => None,
            v => Some(v - 1),
        }
    }
}

// ---------------------------------------------------------------------------
// Compactor thread
// ---------------------------------------------------------------------------

struct CompactorShared {
    /// `true` once shutdown begins; guarded by the tick mutex.
    stop: Mutex<bool>,
    /// Periodic tick + shutdown + nudge wakeups.
    tick: Condvar,
}

/// The background compaction thread: runs a caller-supplied task every
/// tick (or on [`Compactor::nudge`]), isolating panics at the task
/// boundary exactly like the ingress dispatch loop. Dropping the handle
/// stops and joins the thread — no detached threads outlive the service.
pub(crate) struct Compactor {
    shared: Arc<CompactorShared>,
    handle: Option<JoinHandle<()>>,
}

impl Compactor {
    /// Spawn the `daakg-compact` thread running `task` every `interval`.
    /// A caught task panic counts into `stats.panics` and journals a
    /// [`daakg_telemetry::EventKind::CompactorPanic`] event (`journal`
    /// may be a no-op handle).
    pub(crate) fn spawn(
        interval: Duration,
        stats: Arc<LiveStats>,
        journal: daakg_telemetry::EventJournal,
        mut task: Box<dyn FnMut() + Send>,
    ) -> Self {
        let shared = Arc::new(CompactorShared {
            stop: Mutex::new(false),
            tick: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let thread_stats = stats;
        let handle = std::thread::Builder::new()
            .name("daakg-compact".into())
            .spawn(move || loop {
                // Wait first: the task runs on ticks and nudges, never
                // eagerly at spawn — a service that just replayed deltas
                // keeps them pending until the configured cadence says
                // otherwise. (A nudge landing while the task runs is
                // absorbed by the next tick — the tick is the backstop.)
                {
                    let stop = lock_recover(&thread_shared.stop);
                    if *stop {
                        return;
                    }
                    let (stop, _) = thread_shared
                        .tick
                        .wait_timeout(stop, interval)
                        .unwrap_or_else(|p| p.into_inner());
                    if *stop {
                        return;
                    }
                }
                // Panic isolation: a poisoned fold must not kill the
                // compactor — the next tick retries with fresh state.
                if catch_unwind(AssertUnwindSafe(&mut task)).is_err() {
                    thread_stats.panics.fetch_add(1, Ordering::Relaxed);
                    journal.record(daakg_telemetry::EventKind::CompactorPanic);
                }
            })
            .expect("spawn daakg-compact thread");
        Self {
            shared,
            handle: Some(handle),
        }
    }

    /// Wake the thread for an immediate compaction check (e.g. when an
    /// upsert pushes the depth past the threshold).
    pub(crate) fn nudge(&self) {
        self.shared.tick.notify_all();
    }
}

impl Drop for Compactor {
    fn drop(&mut self) {
        *lock_recover(&self.shared.stop) = true;
        self.shared.tick.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::atomic::AtomicUsize;

    fn random_rows(n: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    fn entry(id: u32, raw: Vec<f32>) -> DeltaEntry {
        DeltaEntry {
            global_id: id,
            raw,
            triples: vec![DeltaTriple {
                rel: 0,
                neighbor: 0,
                outgoing: true,
            }],
        }
    }

    /// Exact union oracle: normalize base ∪ delta rows together, score one
    /// query against everything, sort by (score desc, id asc).
    fn union_oracle(
        base: &[Vec<f32>],
        delta: &[Vec<f32>],
        query: &[f32],
        k: Option<usize>,
    ) -> Vec<(u32, f32)> {
        let d = query.len();
        let all: Vec<&[f32]> = base.iter().chain(delta.iter()).map(Vec::as_slice).collect();
        let mut m = Tensor::from_rows(&all);
        normalize_rows_cosine(&mut m);
        let mut scored: Vec<(u32, f32)> = (0..m.rows())
            .map(|j| {
                let dot: f32 = query.iter().zip(m.row(j)).map(|(a, b)| a * b).sum();
                (j as u32, dot)
            })
            .collect();
        let _ = d;
        scored.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        if let Some(k) = k {
            scored.truncate(k);
        }
        scored
    }

    #[test]
    fn merge_is_bitwise_equal_to_union_scan() {
        let d = 16;
        let base_rows = random_rows(50, d, 1);
        let delta_rows = random_rows(9, d, 2);
        let base_n = base_rows.len();

        let mut base_t =
            Tensor::from_rows(&base_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        normalize_rows_cosine(&mut base_t);
        let entries: Vec<DeltaEntry> = delta_rows
            .iter()
            .enumerate()
            .map(|(i, r)| entry((base_n + i) as u32, r.clone()))
            .collect();
        let slab = DeltaSlab::build(1, base_n, d, &entries);

        let queries = random_rows(7, d, 3);
        for q in &queries {
            let mut qt = Tensor::from_rows(&[q.as_slice()]);
            normalize_rows_cosine(&mut qt);
            let qn = qt.row(0).to_vec();
            for k in [Some(0), Some(5), Some(base_n + 9), Some(base_n + 12), None] {
                // Base ranking over base corpus only.
                let mut base_ranked: Vec<(u32, f32)> = (0..base_n)
                    .map(|j| {
                        let dot: f32 = qn.iter().zip(base_t.row(j)).map(|(a, b)| a * b).sum();
                        (j as u32, dot)
                    })
                    .collect();
                base_ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                if let Some(k) = k {
                    base_ranked.truncate(k);
                }
                let merged = slab
                    .merge_into(&qn, 1, k, base_n, vec![base_ranked])
                    .remove(0);
                let oracle = union_oracle(&base_rows, &delta_rows, &qn, k);
                assert_eq!(merged.len(), oracle.len(), "k={k:?}");
                for (rank, ((mi, ms), (oi, os))) in merged.iter().zip(&oracle).enumerate() {
                    assert_eq!(mi, oi, "k={k:?} rank {rank}");
                    assert_eq!(ms.to_bits(), os.to_bits(), "k={k:?} rank {rank}");
                }
            }
        }
    }

    #[test]
    fn merge_breaks_cross_boundary_ties_by_global_id() {
        // A delta row that is an exact copy of a base row scores exactly
        // equal; the base (lower) id must win the tie.
        let d = 8;
        let base_rows = random_rows(4, d, 7);
        let delta_rows = [base_rows[2].clone()];
        let base_n = base_rows.len();
        let entries = vec![entry(base_n as u32, delta_rows[0].clone())];
        let slab = DeltaSlab::build(1, base_n, d, &entries);

        let mut qt = Tensor::from_rows(&[base_rows[2].as_slice()]);
        normalize_rows_cosine(&mut qt);
        let qn = qt.row(0).to_vec();
        let mut base_t =
            Tensor::from_rows(&base_rows.iter().map(Vec::as_slice).collect::<Vec<_>>());
        normalize_rows_cosine(&mut base_t);
        let mut base_ranked: Vec<(u32, f32)> = (0..base_n)
            .map(|j| {
                let dot: f32 = qn.iter().zip(base_t.row(j)).map(|(a, b)| a * b).sum();
                (j as u32, dot)
            })
            .collect();
        base_ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        base_ranked.truncate(2);
        let merged = slab
            .merge_into(&qn, 1, Some(2), base_n, vec![base_ranked])
            .remove(0);
        assert_eq!(merged[0].0, 2, "base id wins the exact tie");
        assert_eq!(merged[1].0, base_n as u32, "delta copy ranks second");
        assert_eq!(merged[0].1.to_bits(), merged[1].1.to_bits());
    }

    #[test]
    fn buffer_appends_folds_and_reanchors() {
        let d = 4;
        let buf = DeltaBuffer::new(1, 10, d);
        assert_eq!(buf.depth(), 0);
        assert_eq!(buf.next_id(), 10);
        assert_eq!(buf.anchor(), 1);
        assert!(buf.slab_for(1).is_none(), "empty slab is not merged");

        for i in 0..3u32 {
            buf.append(entry(10 + i, vec![i as f32 + 1.0; d])).unwrap();
        }
        assert_eq!(buf.depth(), 3);
        assert_eq!(buf.upserts(), 3);
        let slab = buf.slab_for(1).expect("anchored slab");
        assert_eq!(slab.len(), 3);
        assert!(buf.slab_for(2).is_none(), "anchor mismatch yields none");

        // Wrong id or width is typed.
        assert!(buf.append(entry(99, vec![0.0; d])).is_err());
        assert!(buf.append(entry(13, vec![0.0; d + 1])).is_err());

        // Fold two of three into published version 2: the anchor advances,
        // the pre-fold slab stays reachable for readers pinned to the old
        // version.
        let folding = buf.fold_candidates(1).unwrap();
        assert_eq!(folding.len(), 3);
        buf.fold_committed(2, 2);
        assert_eq!(buf.depth(), 1);
        assert_eq!(buf.anchor(), 2);
        assert_eq!(buf.base_n(), 12);
        assert_eq!(buf.next_id(), 13);
        let old = buf.slab_for(1).expect("pre-fold slab kept");
        assert_eq!(old.len(), 3);
        let new = buf.slab_for(2).expect("post-fold slab");
        assert_eq!(new.len(), 1);
        assert!(buf.fold_candidates(1).is_none(), "anchor moved on");

        // Replace a pending entry; folded ids are rejected.
        buf.replace(entry(12, vec![9.0; d])).unwrap();
        assert!(buf.replace(entry(11, vec![9.0; d])).is_err());

        // Re-anchor (retrain supersession, version 3) drops the pending
        // tail — even though the retrain may keep the same entity count,
        // version anchoring keeps the stale slab out of fresh queries.
        let dropped = buf.reanchor(3, 40);
        assert_eq!(dropped.len(), 1);
        assert_eq!(buf.depth(), 0);
        assert_eq!(buf.anchor(), 3);
        assert_eq!(buf.next_id(), 40);
        assert!(buf.slab_for(2).is_none());
        assert!(buf.slab_for(3).is_none(), "fresh anchor starts empty");
    }

    /// The anchor is the *version*, not the entity count: a supersession
    /// that keeps `base_n` unchanged must still unhook both slabs.
    #[test]
    fn same_count_reanchor_unhooks_stale_slabs() {
        let d = 4;
        let buf = DeltaBuffer::new(5, 10, d);
        buf.append(entry(10, vec![1.0; d])).unwrap();
        buf.fold_committed(1, 6);
        buf.append(entry(11, vec![2.0; d])).unwrap();
        assert!(buf.slab_for(5).is_some(), "pre-fold slab serves v5");
        assert!(buf.slab_for(6).is_some(), "current slab serves v6");
        // Retrain publishes v7 with the SAME right-entity count (11).
        let dropped = buf.reanchor(7, 11);
        assert_eq!(dropped.len(), 1);
        for v in [5, 6, 7] {
            assert!(buf.slab_for(v).is_none(), "v{v} must not merge stale rows");
        }
    }

    #[test]
    fn segment_roundtrip_is_bitwise() {
        let e = DeltaEntry {
            global_id: 42,
            raw: vec![1.5, -0.25, f32::MIN_POSITIVE, -0.0],
            triples: vec![
                DeltaTriple {
                    rel: 3,
                    neighbor: 17,
                    outgoing: true,
                },
                DeltaTriple {
                    rel: 0,
                    neighbor: 41,
                    outgoing: false,
                },
            ],
        };
        let bytes = encode_segment(&e);
        let back = decode_segment(Path::new("mem"), bytes).unwrap();
        assert_eq!(back.global_id, 42);
        assert_eq!(
            back.raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            e.raw.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(back.triples, e.triples);
    }

    #[test]
    fn segment_names_roundtrip_and_reject_foreign_files() {
        assert_eq!(log_name(3, 42), "l0000000003-0000000042.dlog");
        assert_eq!(parse_log_name("l0000000003-0000000042.dlog"), Some((3, 42)));
        for bad in [
            "v0000000042.snap",
            "l3-42.dlog",
            "l0000000003-0000000042.dlog.tmp",
            "manifest",
            "l00000000030-0000000042.dlog",
            "lXXXXXXXXXX-0000000042.dlog",
            "d0000000042.dseg",
        ] {
            assert_eq!(parse_log_name(bad), None, "{bad}");
        }
        // Older releases' segment names stay recognizable, so a store
        // still holding one is refused by name rather than ignored.
        assert_eq!(parse_segment_name("d0000000042.dseg"), Some(42));
        for bad in [
            "v0000000042.snap",
            "d42.dseg",
            "d0000000042.dseg.tmp",
            "manifest",
            "d00000000420.dseg",
            "dXXXXXXXXXX.dseg",
        ] {
            assert_eq!(parse_segment_name(bad), None, "{bad}");
        }
    }

    /// A log file of `lineage` starting at `first` holding `entries`,
    /// followed by a preallocated zero tail.
    fn write_log(dir: &Path, lineage: u64, first: u32, entries: &[DeltaEntry]) -> PathBuf {
        let records: Vec<u8> = entries.iter().flat_map(encode_record).collect();
        let last = entries.iter().map(|e| e.global_id).max();
        ActiveLog::create(dir, lineage, first, &records, last, 256)
            .unwrap()
            .path
    }

    fn ids(entries: &[DeltaEntry]) -> Vec<u32> {
        entries.iter().map(|e| e.global_id).collect()
    }

    fn open_log(
        dir: &Path,
        version: u64,
        base_n: usize,
    ) -> (DeltaLog, Vec<DeltaEntry>, DeltaRecovery) {
        DeltaLog::open(
            dir,
            Some(version),
            version,
            base_n,
            512,
            ServiceTelemetry::default(),
        )
        .unwrap()
    }

    #[test]
    fn recovery_replays_contiguous_prefix_and_drops_the_rest() {
        let dir = daakg_store::TestDir::new("delta-recovery");
        let d = 4;
        // Records 10, 11, 12, 14 (gap at 13) plus a folded leftover 8.
        let recs: Vec<DeltaEntry> = [8u32, 10, 11, 12, 14]
            .iter()
            .map(|&id| entry(id, vec![id as f32; d]))
            .collect();
        write_log(dir.path(), 1, 8, &recs);
        let (log, entries, report) = open_log(dir.path(), 1, 10);
        assert_eq!(entries.len(), 3, "contiguous 10..=12 replays");
        assert_eq!(ids(&entries), vec![10, 11, 12]);
        assert_eq!(report.replayed, 3);
        // Folded 8 plus out-of-run 14 are dropped; 14 is the typed break.
        assert_eq!(report.removed, 2);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 14);
        assert!(matches!(report.skipped[0].1, DaakgError::Corrupt { .. }));
        drop(log);
        // Second recovery is clean: only the intact prefix remains, in
        // one rewritten file.
        let (_log, entries, report) = open_log(dir.path(), 1, 10);
        assert_eq!(entries.len(), 3);
        assert!(report.skipped.is_empty());
        assert_eq!(report.removed, 0);
        assert_eq!(log_files(dir.path()).len(), 1);
    }

    #[test]
    fn corrupt_segment_ends_the_prefix_with_a_typed_error() {
        let dir = daakg_store::TestDir::new("delta-corrupt");
        let d = 4;
        let recs: Vec<DeltaEntry> = [5u32, 6, 7]
            .iter()
            .map(|&id| entry(id, vec![id as f32; d]))
            .collect();
        let path = write_log(dir.path(), 1, 5, &recs);
        // Flip one payload bit inside the middle record: 5 survives, 6
        // and 7 go.
        let spans = record_spans(&std::fs::read(&path).unwrap());
        daakg_store::fault::flip_bit(&path, spans[1].start + RECORD_HEADER + 70, 3).unwrap();
        let (entries, report, _) = recover_log(dir.path(), 1, 5).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].global_id, 5);
        assert_eq!(report.replayed, 1);
        assert_eq!(report.removed, 2);
        assert_eq!(report.skipped.len(), 1);
        let (id, err) = &report.skipped[0];
        assert_eq!(*id, 6);
        assert!(matches!(err, DaakgError::Corrupt { .. }), "{err}");
    }

    /// Every single-bit flip anywhere in a middle record — header or
    /// payload — ends the replay right before it with a typed error.
    #[test]
    fn log_bit_flip_at_every_byte_of_a_middle_record_is_typed() {
        let dir = daakg_store::TestDir::new("delta-flip-sweep");
        let recs: Vec<DeltaEntry> = [5u32, 6, 7]
            .iter()
            .map(|&id| entry(id, vec![id as f32 - 0.5; 6]))
            .collect();
        let path = write_log(dir.path(), 1, 5, &recs);
        let clean = std::fs::read(&path).unwrap();
        let mid = record_spans(&clean)[1].clone();
        for byte in mid.clone() {
            let mut bytes = clean.clone();
            bytes[byte] ^= 1 << (byte % 8);
            let (entries, report) = replay_logs(&[(1, path.clone(), bytes.clone())], 1, 5);
            assert_eq!(ids(&entries), vec![5], "flip at byte {byte}");
            let zero_len = bytes[mid.start..mid.start + 4].iter().all(|&b| b == 0);
            if zero_len {
                // A zero length is the end marker: a clean, shorter log.
                assert!(report.skipped.is_empty(), "flip at byte {byte}");
            } else {
                assert_eq!(report.skipped.len(), 1, "flip at byte {byte}");
                assert_eq!(report.skipped[0].0, 6, "flip at byte {byte}");
                assert!(
                    matches!(report.skipped[0].1, DaakgError::Corrupt { .. }),
                    "flip at byte {byte}: {}",
                    report.skipped[0].1
                );
            }
        }
    }

    /// Cutting the log at every byte of its last record (a kill
    /// mid-append) replays exactly the records before it; any kept byte of
    /// the torn record is a typed `Corrupt`, and a cut that keeps only
    /// zeros is indistinguishable from — and treated as — a clean end.
    #[test]
    fn truncated_segment_is_typed_corrupt_at_every_cut() {
        let e = entry(3, vec![0.5; 6]);
        let bytes = encode_segment(&e);
        for cut in [0, 1, 31, bytes.len() / 2, bytes.len() - 1] {
            let err = decode_segment(Path::new("mem"), bytes[..cut].to_vec())
                .expect_err("truncated payload must not parse");
            assert!(
                matches!(err, DaakgError::Corrupt { .. }),
                "cut {cut}: {err}"
            );
        }
        let dir = daakg_store::TestDir::new("delta-torn");
        let recs: Vec<DeltaEntry> = (3u32..6).map(|id| entry(id, vec![0.5; 6])).collect();
        let path = write_log(dir.path(), 1, 3, &recs);
        let full = std::fs::read(&path).unwrap();
        // The file as written replays whole; the cuts below run the same
        // replay over its truncated images.
        let (entries, report, _) = recover_log(dir.path(), 1, 3).unwrap();
        assert_eq!(ids(&entries), vec![3, 4, 5]);
        assert!(report.skipped.is_empty());
        let last = record_spans(&full)[2].clone();
        for cut in last.clone() {
            let (entries, report) = replay_logs(&[(1, path.clone(), full[..cut].to_vec())], 1, 3);
            assert_eq!(ids(&entries), vec![3, 4], "cut {cut}");
            if full[last.start..cut].iter().any(|&b| b != 0) {
                assert_eq!(report.skipped.len(), 1, "cut {cut}");
                assert_eq!(report.skipped[0].0, 5, "cut {cut}");
                assert!(
                    matches!(report.skipped[0].1, DaakgError::Corrupt { .. }),
                    "cut {cut}: {}",
                    report.skipped[0].1
                );
            } else {
                assert!(report.skipped.is_empty(), "cut {cut}");
            }
        }
    }

    /// Recovery replays the newest lineage that starts at or below the
    /// recovered version; a newer lineage (a training publish that never
    /// persisted) is reported record by record, an older one is dropped.
    #[test]
    fn log_replays_the_newest_durable_lineage_and_reports_newer_ones() {
        let dir = daakg_store::TestDir::new("delta-lineage");
        let d = 4;
        write_log(
            dir.path(),
            1,
            10,
            &[entry(10, vec![1.0; d]), entry(11, vec![1.5; d])],
        );
        write_log(dir.path(), 3, 10, &[entry(10, vec![3.0; d])]);
        write_log(dir.path(), 5, 10, &[entry(10, vec![5.0; d])]);
        let (entries, report, found) = recover_log(dir.path(), 4, 10).unwrap();
        assert_eq!(ids(&entries), vec![10]);
        assert_eq!(entries[0].raw, vec![3.0; d], "lineage 3 replays");
        assert_eq!(report.replayed, 1);
        assert_eq!(
            report.removed, 3,
            "lineage 1's two records, lineage 5's one"
        );
        assert_eq!(report.skipped.len(), 1);
        match &report.skipped[0] {
            (10, DaakgError::Corrupt { section, .. }) => assert_eq!(section, "lineage"),
            other => panic!("unexpected skip: {other:?}"),
        }
        assert_eq!(found.len(), 3);
    }

    /// A later record for a pending id replaces the earlier one, within a
    /// file and across rolled files.
    #[test]
    fn later_records_replace_earlier_ones_for_pending_ids() {
        let dir = daakg_store::TestDir::new("delta-replace");
        let d = 4;
        write_log(
            dir.path(),
            1,
            10,
            &[
                entry(10, vec![1.0; d]),
                entry(11, vec![2.0; d]),
                entry(10, vec![3.0; d]),
            ],
        );
        write_log(
            dir.path(),
            1,
            12,
            &[entry(11, vec![4.0; d]), entry(12, vec![5.0; d])],
        );
        let (entries, report, _) = recover_log(dir.path(), 1, 10).unwrap();
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(ids(&entries), vec![10, 11, 12]);
        let firsts: Vec<f32> = entries.iter().map(|e| e.raw[0]).collect();
        assert_eq!(firsts, vec![3.0, 4.0, 5.0]);
    }

    /// Validation precedes logging (a refused entry writes nothing), folds
    /// roll and retire files behind persists, a re-anchor starts a new
    /// lineage whose predecessor is retired only once the new lineage
    /// persisted, and a filling file asks for a roll.
    #[test]
    fn log_commits_rolls_and_retires_behind_persists() {
        let dir = daakg_store::TestDir::new("delta-log-life");
        let d = 4;
        let (log, entries, _) = open_log(dir.path(), 1, 10);
        assert!(entries.is_empty());
        let buf = DeltaBuffer::new(1, 10, d);
        let names = || -> Vec<String> {
            log_files(dir.path())
                .iter()
                .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
                .collect()
        };
        assert_eq!(names(), vec![log_name(1, 10)]);
        let before = std::fs::read(dir.path().join(log_name(1, 10))).unwrap();
        assert!(log.commit(entry(11, vec![0.0; d]), &buf, false).is_err());
        assert!(log
            .commit(entry(10, vec![0.0; d + 1]), &buf, false)
            .is_err());
        assert!(log.commit(entry(10, vec![0.0; d]), &buf, true).is_err());
        let after = std::fs::read(dir.path().join(log_name(1, 10))).unwrap();
        assert_eq!(before, after, "a refused entry logs nothing");
        assert_eq!(buf.depth(), 0);

        log.commit(entry(10, vec![1.0; d]), &buf, false).unwrap();
        log.commit(entry(11, vec![2.0; d]), &buf, false).unwrap();
        log.commit(entry(10, vec![3.0; d]), &buf, true).unwrap();
        assert_eq!(buf.depth(), 2);
        // A fold of both entries persisted: the file rolls and retires.
        buf.fold_committed(2, 2);
        log.after_persist(1, 12);
        assert_eq!(names(), vec![log_name(1, 12)]);
        log.commit(entry(12, vec![4.0; d]), &buf, false).unwrap();
        // A retrain at v3: a new lineage file; the old one waits for the
        // retrain's persist.
        let dropped = log.reanchor(3, 12, &buf);
        assert_eq!(dropped.len(), 1);
        assert_eq!(names(), vec![log_name(1, 12), log_name(3, 12)]);
        log.after_persist(3, 12);
        assert_eq!(names(), vec![log_name(3, 12)]);
        // Fill the 512-byte file past its roll mark; the compactor rolls.
        let mut roll = false;
        for id in 12..40u32 {
            roll = log
                .commit(entry(id, vec![id as f32; d]), &buf, false)
                .unwrap();
            if roll {
                break;
            }
        }
        assert!(roll, "a filling file asks for a roll");
        log.maintain().unwrap();
        assert_eq!(names().len(), 2);
        let (_, replayed, report) = {
            drop(log);
            open_log(dir.path(), 3, 12)
        };
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(
            ids(&replayed),
            ids(&buf.pending().1),
            "rolled files replay in order"
        );
    }

    /// A re-anchor for a publish the buffer already follows (the
    /// compactor and the training publish racing to re-anchor) is a
    /// no-op: it neither recreates the lineage's file over acknowledged
    /// records nor leaves a sealed entry under the active file's name
    /// for a persist to unlink — so every acknowledged record replays.
    #[test]
    fn repeated_reanchor_keeps_the_active_log_and_its_records() {
        let dir = daakg_store::TestDir::new("delta-log-double-reanchor");
        let d = 4;
        let (log, _, _) = open_log(dir.path(), 1, 10);
        let buf = DeltaBuffer::new(1, 10, d);
        log.commit(entry(10, vec![1.0; d]), &buf, false).unwrap();
        assert_eq!(reanchor_delta(&buf, Some(&log), 3, 11).len(), 1);
        // Nothing acknowledged in between.
        assert!(reanchor_delta(&buf, Some(&log), 3, 11).is_empty());
        log.after_persist(3, 11);
        let active = dir.path().join(log_name(3, 11));
        assert!(active.exists(), "a persist never unlinks the active file");
        log.commit(entry(11, vec![2.0; d]), &buf, false).unwrap();
        log.commit(entry(12, vec![3.0; d]), &buf, false).unwrap();
        // Records acknowledged in between.
        assert!(reanchor_delta(&buf, Some(&log), 3, 11).is_empty());
        assert_eq!(ids(&buf.pending().1), vec![11, 12], "nothing dropped");
        log.after_persist(3, 11);
        log.commit(entry(13, vec![4.0; d]), &buf, false).unwrap();
        assert_eq!(log_files(dir.path()), vec![active]);
        drop(log);
        let (_, replayed, report) = open_log(dir.path(), 3, 11);
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        assert_eq!(ids(&replayed), vec![11, 12, 13]);
        assert_eq!(replayed, buf.pending().1, "replayed bitwise");
    }

    #[test]
    fn compactor_runs_isolates_panics_and_joins_on_drop() {
        let stats = Arc::new(LiveStats::default());
        let runs = Arc::new(AtomicUsize::new(0));
        let task_runs = Arc::clone(&runs);
        let journal = daakg_telemetry::EventJournal::new(16);
        let compactor = Compactor::spawn(
            Duration::from_millis(5),
            Arc::clone(&stats),
            journal.clone(),
            Box::new(move || {
                let n = task_runs.fetch_add(1, Ordering::SeqCst);
                if n == 1 {
                    panic!("injected compaction panic");
                }
            }),
        );
        // Nudges and ticks keep the task running past the panic.
        for _ in 0..50 {
            compactor.nudge();
            std::thread::sleep(Duration::from_millis(2));
            if runs.load(Ordering::SeqCst) >= 4 {
                break;
            }
        }
        assert!(runs.load(Ordering::SeqCst) >= 4, "task kept running");
        assert_eq!(
            stats.panics.load(Ordering::Relaxed),
            1,
            "panic isolated and counted"
        );
        drop(compactor);
        let after = runs.load(Ordering::SeqCst);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(runs.load(Ordering::SeqCst), after, "thread joined on drop");
        assert_eq!(stats.panics.load(Ordering::Relaxed), 1);
        let panics: Vec<_> = journal
            .events()
            .into_iter()
            .filter(|e| e.kind == daakg_telemetry::EventKind::CompactorPanic)
            .collect();
        assert_eq!(panics.len(), 1, "panic journaled exactly once");
    }

    #[test]
    fn live_config_validation_is_typed() {
        assert!(LiveConfig::default().validate().is_ok());
        let bad = LiveConfig {
            compact_after: 0,
            ..LiveConfig::default()
        };
        assert!(matches!(
            bad.validate(),
            Err(DaakgError::InvalidConfig { .. })
        ));
        let bad = LiveConfig {
            tick: Duration::ZERO,
            ..LiveConfig::default()
        };
        assert!(bad.validate().is_err());
        let bad = LiveConfig {
            warm: WarmStartConfig {
                epochs: 0,
                ..WarmStartConfig::default()
            },
            ..LiveConfig::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn live_stats_track_last_version() {
        let stats = LiveStats::default();
        assert_eq!(stats.last_compacted(), None);
        stats.record(0);
        assert_eq!(stats.last_compacted(), Some(0));
        stats.record(7);
        assert_eq!(stats.last_compacted(), Some(7));
        assert_eq!(stats.compactions.load(Ordering::Relaxed), 2);
    }
}
