//! Durability integration suite: crash-safe persistence, checksummed
//! loading, and fault-injected recovery, exercised end to end through the
//! `daakg` facade (`Pipeline::store` → `AlignmentService::open`).
//!
//! The contract under test, across every injected fault: a load either
//! reproduces the persisted snapshot **bitwise** or returns a **typed
//! error** and recovery falls back to the newest intact version — never a
//! panic, never silently wrong data.

use daakg::align::persist::FILE_KIND_SNAPSHOT;
use daakg::graph::kg::{example_dbpedia, example_wikidata};
use daakg::store::{fault, SectionReader, TestDir, MANIFEST_NAME};
use daakg::{
    AlignmentService, DaakgError, DeltaTriple, DurableRegistry, EmbedConfig, JointConfig,
    LabeledMatches, LiveConfig, Pipeline, QueryMode, QueryOptions, ServingConfig, SnapshotVersion,
};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

fn tiny_cfg() -> JointConfig {
    JointConfig {
        embed: EmbedConfig {
            dim: 8,
            class_dim: 4,
            epochs: 2,
            batch_size: 16,
            ..EmbedConfig::default()
        },
        align_epochs: 2,
        fine_tune_epochs: 1,
        ..JointConfig::default()
    }
}

fn open_indexed(dir: &Path) -> AlignmentService {
    Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .joint(tiny_cfg())
        .index(3)
        .store(dir)
        .build()
        .unwrap()
}

fn assert_bitwise(a: &[Vec<(u32, f32)>], b: &[Vec<(u32, f32)>]) {
    assert_eq!(a.len(), b.len());
    for (ra, rb) in a.iter().zip(b) {
        assert_eq!(ra.len(), rb.len());
        for (x, y) in ra.iter().zip(rb) {
            assert_eq!(x.0, y.0);
            assert_eq!(x.1.to_bits(), y.1.to_bits());
        }
    }
}

/// Warm restart mid-campaign: a service killed between `align_rounds`
/// publications resumes with every retained version answering
/// bitwise-identically, in `Exact` mode and in full-probe `Approx` mode,
/// and version numbering continues monotonically.
#[test]
fn warm_restart_mid_campaign_reproduces_versioned_answers_exact_and_approx() {
    let td = TestDir::new("it-warm-restart");
    let queries: Vec<u32> = (0..example_dbpedia().num_entities() as u32).collect();
    let full = QueryMode::Approx { nprobe: 3 };
    let (exact_before, approx_before) = {
        let svc = open_indexed(td.path());
        let labels = LabeledMatches::new();
        svc.train(&labels).unwrap();
        svc.align_rounds(&labels, 1).unwrap();
        assert_eq!(svc.version().get(), 3);
        (
            svc.batch_top_k(&queries, 4).unwrap(),
            svc.query_batch(&queries, QueryOptions::top_k(4).with_mode(full))
                .unwrap(),
        )
    }; // drop = simulated process death mid-campaign
    let svc = open_indexed(td.path());
    assert_eq!(svc.version().get(), 3);
    assert!(svc.recovery().unwrap().skipped.is_empty());
    let exact_after = svc.batch_top_k(&queries, 4).unwrap();
    let approx_after = svc
        .query_batch(&queries, QueryOptions::top_k(4).with_mode(full))
        .unwrap();
    assert_eq!(exact_after.version, exact_before.version);
    assert_eq!(approx_after.version, approx_before.version);
    assert_bitwise(&exact_before.value, &exact_after.value);
    assert_bitwise(&approx_before.value, &approx_after.value);
    // Every retained version (not just the newest) restored bitwise.
    for v in 1..=3u64 {
        let pinned = svc.snapshot_at_checked(SnapshotVersion::of(v)).unwrap();
        let reloaded = DurableRegistry::open(td.path()).unwrap().load(v).unwrap();
        assert!(reloaded.bitwise_eq(&pinned.snapshot), "version {v}");
    }
    // Numbering resumes monotonically after the restart.
    assert_eq!(svc.train(&LabeledMatches::new()).unwrap().version.get(), 4);
}

/// The restored snapshot serves the **persisted** IVF index (no
/// re-clustering), and that index is byte-identical to what a lazy
/// rebuild from the restored slabs would produce — the two paths can
/// never diverge.
#[test]
fn restored_snapshots_serve_the_persisted_index_byte_identically() {
    let td = TestDir::new("it-index-bytes");
    let saved_bytes = {
        let svc = open_indexed(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
        svc.current().snapshot.ivf_index().unwrap().to_bytes()
    };
    let svc = open_indexed(td.path());
    let restored = svc.current().snapshot;
    // Persisted index, primed at load: byte-identical to the saved one.
    assert_eq!(restored.ivf_index().unwrap().to_bytes(), saved_bytes);
    // A from-scratch rebuild over the restored slabs produces the same
    // bytes (re-stamping the config resets the lazy index cell).
    let mut rebuilt = (*restored).clone();
    let cfg = restored.index_config().unwrap().clone();
    rebuilt.set_index_config(Some(cfg));
    assert_eq!(rebuilt.ivf_index().unwrap().to_bytes(), saved_bytes);
}

/// Truncation at *every* structural boundary of a snapshot file (section
/// headers, payload edges, the footer) is detected as a typed error, and
/// directory recovery falls back to the previous intact version.
#[test]
fn truncation_at_every_boundary_is_detected_and_recovery_falls_back() {
    let td = TestDir::new("it-truncate");
    {
        let svc = open_indexed(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
    }
    let reg = DurableRegistry::open(td.path()).unwrap();
    let v2 = td.path().join("v0000000002.snap");
    let pristine = std::fs::read(&v2).unwrap();
    let boundaries = SectionReader::parse(&v2, pristine.clone(), FILE_KIND_SNAPSHOT)
        .unwrap()
        .boundaries();
    assert!(boundaries.len() > 20, "snapshot files have many sections");
    for &cut in &boundaries {
        if cut == pristine.len() {
            continue; // full length = intact
        }
        std::fs::write(&v2, &pristine[..cut]).unwrap();
        match reg.load(2) {
            Err(DaakgError::Corrupt { path, .. }) => {
                assert!(path.ends_with("v0000000002.snap"), "cut at {cut}")
            }
            other => panic!("truncation at {cut} not detected: {other:?}"),
        }
        let (entries, report) = reg.recover().unwrap();
        assert_eq!(report.loaded, vec![1], "cut at {cut}");
        assert_eq!(report.skipped.len(), 1);
        assert_eq!(report.skipped[0].0, 2);
        assert_eq!(entries.len(), 1);
    }
    // Restore and confirm the file is intact again end to end.
    std::fs::write(&v2, &pristine).unwrap();
    assert_eq!(reg.recover().unwrap().1.loaded, vec![1, 2]);
}

/// A fixed-seed sweep of random bit flips over the newest snapshot file:
/// every load either reproduces the original bitwise (flips cancelled
/// out) or returns a typed error — and the damaged directory still opens,
/// degraded to the intact version. Zero panics, zero silent corruption.
#[test]
fn seeded_bit_flip_sweep_never_panics_and_never_yields_wrong_data() {
    let td = TestDir::new("it-bitflip");
    {
        let svc = open_indexed(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
    }
    let reg = DurableRegistry::open(td.path()).unwrap();
    let original = reg.load(2).unwrap();
    let v2 = td.path().join("v0000000002.snap");
    let pristine = std::fs::read(&v2).unwrap();
    let mut detected = 0usize;
    for seed in 0..64u64 {
        std::fs::write(&v2, &pristine).unwrap();
        let flips = (seed % 4 + 1) as usize;
        fault::flip_random_bits(&v2, flips, seed).unwrap();
        match reg.load(2) {
            // Tolerated only if the flips cancelled out exactly.
            Ok(snap) => assert!(
                snap.bitwise_eq(&original) && std::fs::read(&v2).unwrap() == pristine,
                "seed {seed}: load succeeded on a damaged file"
            ),
            Err(DaakgError::Corrupt { .. }) => detected += 1,
            Err(other) => panic!("seed {seed}: unexpected error kind {other:?}"),
        }
    }
    assert!(detected >= 60, "only {detected}/64 seeds detected");
    // The last damaged state still opens as a degraded service.
    let svc = open_indexed(td.path());
    assert_eq!(svc.version().get(), 1);
    assert_eq!(svc.recovery().unwrap().skipped[0].0, 2);
    svc.top_k(0, 3).unwrap();
}

/// A simulated kill between the tmp write and the rename — whether the
/// tmp is torn or even fully written — leaves the committed versions
/// untouched: recovery removes the leftovers and never mistakes them for
/// publications.
#[test]
fn kill_between_tmp_write_and_rename_is_invisible_to_recovery() {
    let td = TestDir::new("it-torn-tmp");
    {
        let svc = open_indexed(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
    }
    let reg = DurableRegistry::open(td.path()).unwrap();
    let complete = reg.load(2).unwrap();
    let bytes = std::fs::read(td.path().join("v0000000002.snap")).unwrap();
    // Torn write of v3 (half the bytes) and a *complete* tmp for v4 that
    // never got its rename: both are crash artifacts, not publications.
    fault::tear_tmp_write(td.path(), "v0000000003.snap", &bytes, bytes.len() / 2).unwrap();
    fault::tear_tmp_write(td.path(), "v0000000004.snap", &bytes, bytes.len()).unwrap();
    let svc = open_indexed(td.path());
    assert_eq!(svc.version().get(), 2);
    let report = svc.recovery().unwrap();
    assert_eq!(report.loaded, vec![1, 2]);
    assert_eq!(report.removed_tmp.len(), 2);
    assert!(report.skipped.is_empty());
    // The leftovers are gone and the committed data is what serves.
    assert!(DurableRegistry::open(td.path())
        .unwrap()
        .load(2)
        .unwrap()
        .bitwise_eq(&complete));
    assert!(!td.path().join("v0000000003.snap.tmp").exists());
    assert!(!td.path().join("v0000000004.snap.tmp").exists());
    // The next publish claims version 3 normally.
    assert_eq!(svc.train(&LabeledMatches::new()).unwrap().version.get(), 3);
}

/// The `MANIFEST` is advisory: deleting it, garbling it, or leaving it
/// stale never changes what recovery loads — the directory scan is the
/// ground truth — and the next save rewrites it.
#[test]
fn deleted_or_stale_manifest_never_confuses_recovery() {
    let td = TestDir::new("it-manifest");
    {
        let svc = open_indexed(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
    }
    let manifest = td.path().join(MANIFEST_NAME);
    for garble in [
        None,
        Some("not a manifest\n"),
        Some("daakg-store-manifest v1\nlatest 999\n"),
    ] {
        match garble {
            None => std::fs::remove_file(&manifest).unwrap(),
            Some(text) => std::fs::write(&manifest, text).unwrap(),
        }
        let svc = open_indexed(td.path());
        assert_eq!(svc.version().get(), 2, "garble {garble:?}");
        let report = svc.recovery().unwrap();
        assert_eq!(report.loaded, vec![1, 2]);
        assert_ne!(report.manifest_latest, Some(2));
        assert!(report.manifest_was_stale());
        svc.top_k(0, 3).unwrap();
    }
    // A save repairs the manifest.
    let svc = open_indexed(td.path());
    svc.train(&LabeledMatches::new()).unwrap();
    let reg = DurableRegistry::open(td.path()).unwrap();
    let (_, report) = reg.recover().unwrap();
    assert_eq!(report.manifest_latest, Some(3));
    assert!(!report.manifest_was_stale());
}

fn open_live(dir: &Path) -> AlignmentService {
    Pipeline::builder()
        .kg1(example_dbpedia())
        .kg2(example_wikidata())
        .joint(tiny_cfg())
        .index(3)
        .store(dir)
        // Quiet compactor: folds happen only via `compact_now`, so every
        // kill below really does leave uncompacted log records on disk.
        .live(LiveConfig {
            compact_after: 100,
            tick: Duration::from_secs(3600),
            ..LiveConfig::default()
        })
        .build()
        .unwrap()
}

fn dt(rel: u32, neighbor: u32) -> DeltaTriple {
    DeltaTriple {
        rel,
        neighbor,
        outgoing: true,
    }
}

/// The delta log files (`*.dlog`) in `dir`.
fn delta_logs(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut logs: Vec<_> = std::fs::read_dir(dir)
        .unwrap()
        .map(|d| d.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dlog"))
        .collect();
    logs.sort();
    logs
}

/// Where two images of one delta log differ: inside the record the later
/// image appended (the earlier one holds preallocated zeros there).
fn appended(before: &[u8], after: &[u8]) -> std::ops::Range<usize> {
    let differs = |(a, b): (&u8, &u8)| a != b;
    let start = before.iter().zip(after).position(differs).unwrap();
    let end = before.iter().zip(after).rposition(differs).unwrap() + 1;
    start..end
}

/// Chaos kill-and-restart with uncompacted deltas on disk: a process
/// that dies with pending delta log records — even mid-append —
/// restarts serving the same merged answers bitwise (last intact prefix,
/// typed `Corrupt` for the torn tail), and folding the recovered prefix
/// publishes a snapshot that answers identically with the log files
/// retired.
#[test]
fn kill_and_restart_with_uncompacted_deltas_recovers_and_folds_identically() {
    let td = TestDir::new("it-live-kill");
    let n2 = example_wikidata().num_entities();
    // Process 1: train, accept three upserts (the third anchored on a
    // pending delta entity), then die without compacting.
    let (pre, newest) = {
        let svc = open_live(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
        let a = svc.upsert_entity(&[dt(0, 0), dt(1, 2)]).unwrap();
        assert_eq!(a as usize, n2);
        svc.upsert_entity(&[dt(0, 1)]).unwrap();
        let log = delta_logs(td.path()).pop().unwrap();
        let two = std::fs::read(&log).unwrap();
        svc.upsert_entity(&[dt(1, a)]).unwrap();
        let newest = appended(&two, &std::fs::read(&log).unwrap());
        (svc.query(0, QueryOptions::rank()).unwrap(), newest)
    }; // drop = simulated kill with three uncompacted records on disk
    assert_eq!(pre.deltas_merged, 3);
    // Restart 1: every record replays and the warm-started merged
    // ranking is bitwise what the dead process served.
    {
        let svc = open_live(td.path());
        let rec = svc.live_recovery().unwrap();
        assert_eq!((rec.replayed, rec.skipped.len()), (3, 0));
        let post = svc.query(0, QueryOptions::rank()).unwrap();
        assert_eq!(post.deltas_merged, 3);
        assert_bitwise(
            std::slice::from_ref(&pre.value),
            std::slice::from_ref(&post.value),
        );
    } // die again, still uncompacted
      // Kill mid-append: tear the log inside the newest record. Replay
      // must stop at the last intact prefix with a typed diagnostic. The
      // restart rewrote the same records, so the newest one sits where the
      // dead process appended it.
    let logs = delta_logs(td.path());
    assert_eq!(logs.len(), 1, "one live log file");
    let bytes = std::fs::read(&logs[0]).unwrap();
    std::fs::write(&logs[0], &bytes[..(newest.start + newest.end) / 2]).unwrap();
    let svc = open_live(td.path());
    let rec = svc.live_recovery().unwrap();
    assert_eq!(rec.replayed, 2, "only the intact prefix replays");
    assert!(
        rec.skipped
            .iter()
            .any(|(id, e)| *id == n2 as u32 + 2 && matches!(e, DaakgError::Corrupt { .. })),
        "torn record must surface as Corrupt: {:?}",
        rec.skipped
    );
    let merged = svc.query(0, QueryOptions::rank()).unwrap();
    assert_eq!(merged.deltas_merged, 2);
    assert_eq!(merged.value.len(), n2 + 2);
    // Folding the recovered prefix publishes a union snapshot whose
    // answers are bitwise the merged ones, exact and full-probe alike.
    let published = svc.compact_now().unwrap().expect("two entries pending");
    assert_eq!(published.version.get(), 3);
    let folded = svc.query(0, QueryOptions::rank()).unwrap();
    assert_eq!(folded.deltas_merged, 0);
    assert_bitwise(
        std::slice::from_ref(&merged.value),
        std::slice::from_ref(&folded.value),
    );
    let full_probe = svc.query(0, QueryOptions::top_k(n2 + 2).approx(3)).unwrap();
    assert_bitwise(
        std::slice::from_ref(&folded.value),
        std::slice::from_ref(&full_probe.value),
    );
    drop(svc);
    // Restart after the fold: the folded records are retired, nothing
    // replays, and the published union snapshot is what serves.
    let svc = open_live(td.path());
    let rec = svc.live_recovery().unwrap();
    assert_eq!((rec.replayed, rec.skipped.len()), (0, 0));
    assert_eq!(svc.version().get(), 3);
    let post = svc.query(0, QueryOptions::rank()).unwrap();
    assert_eq!(post.deltas_merged, 0);
    assert_bitwise(
        std::slice::from_ref(&folded.value),
        std::slice::from_ref(&post.value),
    );
}

/// Serving-configuration changes across a restart are reconciled instead
/// of trusted blindly: an index-less reopen of an indexed directory (and
/// vice versa) serves correctly under the *new* configuration.
#[test]
fn serving_config_changes_across_restart_are_reconciled() {
    let td = TestDir::new("it-cfg-change");
    let exact_before = {
        let svc = open_indexed(td.path());
        svc.train(&LabeledMatches::new()).unwrap();
        svc.batch_top_k(&[0, 1, 2], 3).unwrap()
    };
    // Reopen with no index: Approx must be a typed error, exact answers
    // unchanged bitwise.
    let svc = AlignmentService::open(
        tiny_cfg(),
        ServingConfig::default(),
        Arc::new(example_dbpedia()),
        Arc::new(example_wikidata()),
        td.path(),
    )
    .unwrap();
    assert_eq!(svc.version().get(), 2);
    let exact_after = svc.batch_top_k(&[0, 1, 2], 3).unwrap();
    assert_bitwise(&exact_before.value, &exact_after.value);
    assert!(svc.query(0, QueryOptions::top_k(3).approx(1)).is_err());
    // And reopening indexed again serves approx from a rebuilt index.
    drop(svc);
    let svc = open_indexed(td.path());
    let full = svc.query(0, QueryOptions::top_k(3).approx(3)).unwrap();
    let exact = svc.top_k(0, 3).unwrap();
    assert_bitwise(
        std::slice::from_ref(&exact.value),
        std::slice::from_ref(&full.value),
    );
}
