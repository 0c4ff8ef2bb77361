//! Durable persistence of [`AlignmentSnapshot`]s: the snapshot codec on
//! the `daakg-store` section format, and [`DurableRegistry`] — the
//! on-disk counterpart of the in-memory `SnapshotRegistry` that
//! `AlignmentService::open` warm-restarts from.
//!
//! # What is persisted
//!
//! A snapshot file carries every cached matrix of the alignment round
//! (entity / relation / class / mean slabs, mapped variants), the entity
//! weights, the ablation flags, and — when serving configured an index —
//! the IVF configuration **plus the built index itself** (forced to build
//! at save time), so a warm restart neither re-trains nor re-clusters.
//! The entity-similarity engine is *not* stored: it is a pure function of
//! `(mapped_ents1, ents2)` and is rebuilt deterministically on load,
//! which is what makes loaded services answer bitwise-identically.
//!
//! # Recovery semantics
//!
//! [`DurableRegistry::recover`] scans the directory (the `MANIFEST` is
//! advisory only), removes stale `*.tmp` files from torn writes, and
//! loads versions newest→oldest. A file that fails checksum or structural
//! validation is *skipped with a typed diagnostic* and left on disk for
//! forensics — recovery degrades to the newest intact version instead of
//! refusing to start, and the skipped version number is simply republished
//! (atomically overwriting the corrupt file) as training resumes.

use crate::batched::BatchedSimilarity;
use crate::snapshot::{AlignmentSnapshot, SnapshotParts};
use crate::weights::EntityWeights;
use daakg_autograd::Tensor;
use daakg_graph::DaakgError;
use daakg_index::{IvfConfig, IvfIndex};
use daakg_store::store::VersionStore;
use daakg_store::{SectionReader, SectionWriter};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Payload-kind discriminator of snapshot files (`b"ASN1"` LE).
pub const FILE_KIND_SNAPSHOT: u32 = u32::from_le_bytes(*b"ASN1");

/// The `(tag, accessor)` table of tensor sections — one place so encode
/// and decode can never drift apart.
const TENSOR_TAGS: [&str; 15] = [
    "ents1", "ents2", "mapents1", "rels1", "rels2", "maprels1", "cls1", "cls2", "mapcls1",
    "mrels1", "mrels2", "mapmrel1", "mcls1", "mcls2", "mapmcls1",
];

fn tensor_fields(s: &AlignmentSnapshot) -> [&Tensor; 15] {
    [
        &s.ents1,
        &s.ents2,
        &s.mapped_ents1,
        &s.rels1,
        &s.rels2,
        &s.mapped_rels1,
        &s.cls1,
        &s.cls2,
        &s.mapped_cls1,
        &s.mean_rels1,
        &s.mean_rels2,
        &s.mapped_mean_rels1,
        &s.mean_cls1,
        &s.mean_cls2,
        &s.mapped_mean_cls1,
    ]
}

/// Serialize a snapshot to a standalone checksummed file image. When the
/// snapshot carries an index configuration, the index is built now (if it
/// was not already) and persisted alongside the slabs.
pub fn encode_snapshot(snap: &AlignmentSnapshot) -> Vec<u8> {
    let mut w = SectionWriter::new(FILE_KIND_SNAPSHOT);
    for (tag, t) in TENSOR_TAGS.iter().zip(tensor_fields(snap)) {
        w.f32s(tag, t.rows(), t.cols(), t.as_slice());
    }
    w.f32s("wleft", snap.weights.left.len(), 1, &snap.weights.left);
    w.f32s("wright", snap.weights.right.len(), 1, &snap.weights.right);
    w.bytes(
        "flags",
        &[
            snap.use_mean_embeddings as u8,
            snap.use_class_embeddings as u8,
        ],
    );
    if let Some(cfg) = snap.index_config() {
        w.u64s(
            "ivfcfg",
            &[cfg.nlist as u64, cfg.max_iters as u64, cfg.seed],
        );
        let index = snap.ivf_index().expect("config present implies an index");
        index.write_sections(&mut w);
    }
    w.finish()
}

/// Parse and validate a snapshot image. Every structural or semantic
/// inconsistency is a typed [`DaakgError::Corrupt`] naming `path` and the
/// failing section; this function never panics on untrusted bytes. The
/// persisted IVF index (if any) is primed into the snapshot's lazy cell,
/// so approximate queries serve the saved index without re-clustering.
pub fn decode_snapshot(path: &Path, bytes: Vec<u8>) -> Result<AlignmentSnapshot, DaakgError> {
    let r = SectionReader::parse(path, bytes, FILE_KIND_SNAPSHOT)?;
    let mut tensors = Vec::with_capacity(TENSOR_TAGS.len());
    for tag in TENSOR_TAGS {
        let s = r.f32s(tag)?;
        tensors.push(Tensor::from_vec(s.rows, s.cols, s.data));
    }
    let mut it = tensors.into_iter();
    let mut next = || it.next().expect("15 tensors decoded above");
    let flags = r.bytes("flags")?;
    if flags.len() != 2 {
        return Err(r.corrupt(
            "flags",
            format!("expected 2 flag bytes, found {}", flags.len()),
        ));
    }
    let parts = SnapshotParts {
        ents1: Arc::new(next()),
        ents2: next(),
        mapped_ents1: Arc::new(next()),
        rels1: next(),
        rels2: next(),
        mapped_rels1: next(),
        cls1: next(),
        cls2: next(),
        mapped_cls1: next(),
        mean_rels1: next(),
        mean_rels2: next(),
        mapped_mean_rels1: next(),
        mean_cls1: next(),
        mean_cls2: next(),
        mapped_mean_cls1: next(),
        weights: EntityWeights {
            left: r.f32s("wleft")?.data,
            right: r.f32s("wright")?.data,
        },
        use_mean_embeddings: flags[0] != 0,
        use_class_embeddings: flags[1] != 0,
    };
    let mut snap =
        AlignmentSnapshot::from_parts(parts, |p| BatchedSimilarity::new(&p.mapped_ents1, &p.ents2))
            .map_err(|reason| r.corrupt("snapshot", reason))?;
    if r.has("ivfcfg") {
        let cfg = r.u64s("ivfcfg")?;
        if cfg.len() != 3 {
            return Err(r.corrupt("ivfcfg", format!("expected 3 words, found {}", cfg.len())));
        }
        let cfg = IvfConfig {
            nlist: cfg[0] as usize,
            max_iters: cfg[1] as usize,
            seed: cfg[2],
        };
        cfg.validate()
            .map_err(|e| r.corrupt("ivfcfg", e.to_string()))?;
        let index = IvfIndex::read_sections(&r)?;
        let (_, n2) = snap.entity_counts();
        if index.num_vectors() != n2 {
            return Err(r.corrupt(
                "ivfids",
                format!(
                    "index covers {} vectors but the snapshot holds {n2} right entities",
                    index.num_vectors()
                ),
            ));
        }
        snap.set_index_config(Some(cfg));
        snap.prime_index(Arc::new(index));
    }
    Ok(snap)
}

/// What [`DurableRegistry::recover`] found and did: the versions loaded,
/// the versions skipped (with their typed load errors, newest first in
/// scan order), the torn `*.tmp` files removed, and what the advisory
/// manifest claimed.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Versions loaded intact, ascending.
    pub loaded: Vec<u64>,
    /// Versions present on disk but skipped, each with the typed error
    /// explaining why (checksum mismatch, truncation, semantic
    /// inconsistency, I/O failure).
    pub skipped: Vec<(u64, DaakgError)>,
    /// Stale `*.tmp` files from torn writes, removed during recovery.
    pub removed_tmp: Vec<PathBuf>,
    /// The version the `MANIFEST` claimed was newest (`None` when
    /// missing or malformed). Advisory: recovery never trusts it.
    pub manifest_latest: Option<u64>,
}

impl RecoveryReport {
    /// The newest intact version, if any survived.
    pub fn latest_intact(&self) -> Option<u64> {
        self.loaded.last().copied()
    }

    /// Whether the manifest disagreed with what recovery actually found
    /// (missing, malformed, stale, or pointing at a corrupt file).
    pub fn manifest_was_stale(&self) -> bool {
        self.manifest_latest != self.latest_intact()
    }
}

/// The on-disk registry of published snapshot versions: one immutable,
/// checksummed file per version, written crash-safely (tmp → fsync →
/// atomic rename → dir fsync, `MANIFEST` last).
#[derive(Debug, Clone)]
pub struct DurableRegistry {
    store: VersionStore,
}

impl DurableRegistry {
    /// Open (creating if needed) a snapshot directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, DaakgError> {
        Ok(Self {
            store: VersionStore::open(dir)?,
        })
    }

    /// The directory versions are stored in.
    pub fn dir(&self) -> &Path {
        self.store.dir()
    }

    /// Attach store-stage latency spans: every subsequent [`DurableRegistry::save`]
    /// records its byte-write and fsync+rename durations separately.
    /// No-op handles (the default) cost nothing.
    pub fn set_spans(&mut self, spans: daakg_store::StoreSpans) {
        self.store.set_spans(spans);
    }

    /// Atomically persist `snap` as `version`. A crash at any byte
    /// boundary leaves previously committed versions intact.
    pub fn save(&self, version: u64, snap: &AlignmentSnapshot) -> Result<(), DaakgError> {
        self.store.save(version, &encode_snapshot(snap))
    }

    /// Load and validate one version.
    pub fn load(&self, version: u64) -> Result<AlignmentSnapshot, DaakgError> {
        let path = self.store.version_path(version);
        let bytes = std::fs::read(&path).map_err(|e| DaakgError::io_at(&path, e))?;
        decode_snapshot(&path, bytes)
    }

    /// Committed versions on disk, ascending (torn `*.tmp` files are not
    /// versions).
    pub fn versions(&self) -> Result<Vec<u64>, DaakgError> {
        self.store.versions()
    }

    /// Delete on-disk versions beyond the newest `keep` (clamped to keep
    /// at least one). Returns the versions removed.
    pub fn gc(&self, keep: usize) -> Result<Vec<u64>, DaakgError> {
        self.store.gc(keep)
    }

    /// Scan the directory and load every intact version, newest→oldest,
    /// skipping corrupt or torn files with typed diagnostics and removing
    /// stale `*.tmp` leftovers. Returns the intact `(version, snapshot)`
    /// pairs ascending plus the [`RecoveryReport`]. Corrupt files are
    /// left in place for forensics; their version numbers are reclaimed
    /// when the resumed service republishes them.
    ///
    /// Only directory-level I/O failures abort recovery; per-file damage
    /// never does (graceful degradation — an empty result with every
    /// version in `skipped` means "start fresh").
    pub fn recover(&self) -> Result<(Vec<(u64, AlignmentSnapshot)>, RecoveryReport), DaakgError> {
        let mut report = RecoveryReport {
            removed_tmp: self.store.remove_stale_tmp()?,
            manifest_latest: self.store.manifest_latest(),
            ..RecoveryReport::default()
        };
        let mut entries = Vec::new();
        for &version in self.store.versions()?.iter().rev() {
            match self.load(version) {
                Ok(snap) => entries.push((version, snap)),
                Err(err) => report.skipped.push((version, err)),
            }
        }
        entries.reverse();
        report.loaded = entries.iter().map(|(v, _)| *v).collect();
        Ok((entries, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::JointConfig;
    use crate::joint::JointModel;
    use daakg_embed::EmbedConfig;
    use daakg_graph::kg::{example_dbpedia, example_wikidata};
    use daakg_store::fault;
    use daakg_store::TestDir;

    fn tiny_snapshot(indexed: bool) -> AlignmentSnapshot {
        let kg1 = example_dbpedia();
        let kg2 = example_wikidata();
        let cfg = JointConfig {
            embed: EmbedConfig {
                dim: 8,
                class_dim: 4,
                epochs: 2,
                batch_size: 16,
                ..EmbedConfig::default()
            },
            align_epochs: 2,
            ..JointConfig::default()
        };
        let model = JointModel::new(cfg, &kg1, &kg2).unwrap();
        let mut snap = model.snapshot(&kg1, &kg2);
        if indexed {
            snap.set_index_config(Some(IvfConfig::new(3)));
        }
        snap
    }

    #[test]
    fn roundtrip_is_bitwise_with_and_without_index() {
        for indexed in [false, true] {
            let snap = tiny_snapshot(indexed);
            let bytes = encode_snapshot(&snap);
            let loaded = decode_snapshot(Path::new("mem"), bytes).unwrap();
            assert!(loaded.bitwise_eq(&snap), "indexed={indexed}");
            assert!(snap.bitwise_eq(&loaded), "symmetry");
            // Rankings agree bitwise on both paths.
            let (n1, _) = snap.entity_counts();
            for e1 in 0..n1 as u32 {
                let a = snap.top_k_entities(e1, 4);
                let b = loaded.top_k_entities(e1, 4);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.0, y.0);
                    assert_eq!(x.1.to_bits(), y.1.to_bits());
                }
            }
        }
    }

    #[test]
    fn persisted_index_is_primed_not_rebuilt_and_byte_identical() {
        let snap = tiny_snapshot(true);
        let original_index = Arc::clone(snap.ivf_index().unwrap());
        let loaded = decode_snapshot(Path::new("mem"), encode_snapshot(&snap)).unwrap();
        // The loaded snapshot's index is served from the persisted bytes:
        // byte-identical to the index that was saved.
        let primed = loaded.ivf_index().unwrap();
        assert_eq!(primed.to_bytes(), original_index.to_bytes());
        // And a lazily re-built index (config reset discards the primed
        // one) reproduces the same bytes — determinism of the build.
        let mut rebuilt = loaded.clone();
        rebuilt.set_index_config(Some(IvfConfig::new(3)));
        assert_eq!(
            rebuilt.ivf_index().unwrap().to_bytes(),
            original_index.to_bytes()
        );
    }

    #[test]
    fn registry_saves_loads_and_recovers_in_version_order() {
        let td = TestDir::new("align-registry");
        let reg = DurableRegistry::open(td.path()).unwrap();
        let snap = tiny_snapshot(false);
        for v in 1..=3 {
            reg.save(v, &snap).unwrap();
        }
        assert_eq!(reg.versions().unwrap(), vec![1, 2, 3]);
        assert!(reg.load(2).unwrap().bitwise_eq(&snap));
        let (entries, report) = reg.recover().unwrap();
        assert_eq!(report.loaded, vec![1, 2, 3]);
        assert!(report.skipped.is_empty());
        assert_eq!(report.manifest_latest, Some(3));
        assert!(!report.manifest_was_stale());
        assert_eq!(entries.len(), 3);
        assert!(entries.iter().all(|(_, s)| s.bitwise_eq(&snap)));
        // GC keeps the newest files.
        assert_eq!(reg.gc(1).unwrap(), vec![1, 2]);
        assert_eq!(reg.versions().unwrap(), vec![3]);
    }

    #[test]
    fn recovery_skips_corrupt_newest_and_falls_back() {
        let td = TestDir::new("align-fallback");
        let reg = DurableRegistry::open(td.path()).unwrap();
        let snap = tiny_snapshot(true);
        reg.save(1, &snap).unwrap();
        reg.save(2, &snap).unwrap();
        // Corrupt the newest file and leave a torn tmp beside it.
        let v2 = td.path().join("v0000000002.snap");
        fault::flip_bit(&v2, 100, 2).unwrap();
        fault::tear_tmp_write(td.path(), "v0000000003.snap", b"partial", 4).unwrap();
        let (entries, report) = reg.recover().unwrap();
        assert_eq!(report.loaded, vec![1]);
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 2);
        assert!(matches!(report.skipped[0].1, DaakgError::Corrupt { .. }));
        assert_eq!(report.removed_tmp.len(), 1);
        // Manifest said 2, but 2 is corrupt: stale.
        assert!(report.manifest_was_stale());
        assert_eq!(entries.len(), 1);
        assert!(entries[0].1.bitwise_eq(&snap));
        // The corrupt file stays on disk for forensics.
        assert!(v2.exists());
    }

    #[test]
    fn missing_version_load_is_a_typed_io_error_with_path() {
        let td = TestDir::new("align-missing");
        let reg = DurableRegistry::open(td.path()).unwrap();
        let err = reg.load(9).unwrap_err();
        match err {
            DaakgError::IoAt { ref path, .. } => {
                assert!(path.to_string_lossy().contains("v0000000009.snap"))
            }
            other => panic!("expected IoAt, got {other:?}"),
        }
    }
}
